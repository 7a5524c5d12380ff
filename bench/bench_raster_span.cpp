/**
 * @file
 * Microbenchmarks of the span raster path, using google-benchmark:
 *
 *  - ns per generated fragment for each span-loop specialization the
 *    raster pipeline picks per primitive (fragment program x depth mode
 *    x blend x tracker), measured by rendering frames of stacked
 *    full-screen quads of one render state;
 *  - the span rasterizer alone, per fragment;
 *  - SetAssocCache access cost for an MRU-line hit, a set hit (the
 *    line is resident but not the last one touched) and a miss;
 *  - memory-log replay, ns per replayed access and entries per
 *    access: one tile's log with every texel fetch its own entry, with
 *    each unit's fetches folded only into its previous line, and with
 *    the set fold the raster path records; and a folded geometry
 *    segment.
 *
 * Run: build/bench/bench_raster_span [--benchmark_filter=<regex>]
 */
#include <benchmark/benchmark.h>

#include <chrono>

#include "driver/gpu_simulator.hpp"
#include "gpu/rasterizer.hpp"
#include "gpu/tile_mem_log.hpp"
#include "mem/cache.hpp"
#include "scene/camera.hpp"

using namespace evrsim;

namespace {

constexpr int kWidth = 256;
constexpr int kHeight = 192;
constexpr int kLayers = 4;

/** One span-loop shape, named after the specialization it selects. */
struct SpanCase {
    const char *name;
    FragmentProgram program;
    bool depth_test;
    bool depth_write;
    BlendMode blend;
    /** Render under the EVR config (visibility tracker present). */
    bool tracker;
    /** Preload final depths (oracle Z): Z-writers test with <=. */
    bool oracle_z;
};

const SpanCase kCases[] = {
    {"flat/early/opaque", FragmentProgram::Flat, true, true,
     BlendMode::Opaque, false, false},
    {"flat/none/opaque", FragmentProgram::Flat, false, false,
     BlendMode::Opaque, false, false},
    {"textured/early/opaque", FragmentProgram::Textured, true, true,
     BlendMode::Opaque, false, false},
    {"textured/early/opaque/tracker", FragmentProgram::Textured, true,
     true, BlendMode::Opaque, true, false},
    {"textured/early-leq/opaque", FragmentProgram::Textured, true, true,
     BlendMode::Opaque, false, true},
    {"textured/none/blend", FragmentProgram::Textured, false, false,
     BlendMode::Alpha, false, false},
    {"tint/early-test-only/blend", FragmentProgram::TexturedTint, true,
     false, BlendMode::Alpha, false, false},
    {"procedural/early/opaque", FragmentProgram::Procedural, true, true,
     BlendMode::Opaque, false, false},
    {"discard/late/opaque", FragmentProgram::TexturedDiscard, true, true,
     BlendMode::Opaque, false, false},
};

/** Render frames of kLayers stacked full-screen quads of one state. */
void
BM_SpanLoop(benchmark::State &state)
{
    const SpanCase &c = kCases[state.range(0)];
    state.SetLabel(c.name);

    GpuConfig gpu;
    gpu.screen_width = kWidth;
    gpu.screen_height = kHeight;
    SimConfig config =
        c.tracker ? SimConfig::evr(gpu) : SimConfig::baseline(gpu);
    // The scene is static: without Rendering Elimination every frame
    // renders every tile.
    config.re = false;
    config.evr_filter_signature = false;
    config.oracle_z = c.oracle_z;
    GpuSimulator sim(config);

    Mesh quad = meshes::quad({0.6f, 0.5f, 0.4f, 0.75f});
    Texture tex(TextureKind::Noise, 256, {0.1f, 0.2f, 0.3f, 1.0f},
                {0.9f, 0.8f, 0.7f, 0.4f}, 11, 32);
    sim.uploadMesh(quad);
    sim.registerTexture(tex);

    RenderState rs;
    rs.program = c.program;
    rs.depth_test = c.depth_test;
    rs.depth_write = c.depth_write;
    rs.blend = c.blend;
    rs.texture = 0;

    Scene scene;
    setCamera2D(scene, kWidth, kHeight);
    scene.textures.push_back(&tex);
    for (int l = 0; l < kLayers; ++l) {
        // Front to back, slightly offset: early depth tests kill part
        // of every layer after the first.
        float z = 0.2f + 0.15f * static_cast<float>(l);
        float off = 3.0f * static_cast<float>(l);
        scene.submit(&quad,
                     Mat4::translate({kWidth * 0.5f + off,
                                      kHeight * 0.5f + off, z}) *
                         Mat4::scale({kWidth * 1.0f, kHeight * 1.0f, 1.0f}),
                     rs);
    }

    std::uint64_t fragments = 0;
    auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
        FrameStats s = sim.renderFrame(scene);
        fragments += s.fragments_generated;
    }
    double ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    state.counters["ns_per_fragment"] =
        fragments > 0 ? ns / static_cast<double>(fragments) : 0.0;
}
BENCHMARK(BM_SpanLoop)->DenseRange(0, std::size(kCases) - 1);

/**
 * Rasterizer::rasterizeSpans alone (row intervals, compaction and
 * interpolation of every attribute) for a triangle over half of a
 * 16x16 tile.
 */
void
BM_RasterizeSpans(benchmark::State &state)
{
    ShadedPrimitive prim;
    prim.v[0] = {{0.5f, 0.25f}, 0.2f, 1.0f, {1, 0, 0, 1}, {0, 0}};
    prim.v[1] = {{16.0f, 0.75f}, 0.4f, 0.5f, {0, 1, 0, 1}, {1, 0}};
    prim.v[2] = {{0.25f, 15.5f}, 0.6f, 0.8f, {0, 0, 1, 1}, {0, 1}};
    RasterScratch scratch;
    FrameStats stats;
    const RectI tile{0, 0, 16, 16};
    const unsigned all = kSpanDepth | kSpanRgb | kSpanAlpha | kSpanUv;
    float sink = 0.0f;
    for (auto _ : state) {
        Rasterizer::rasterizeSpans(prim, tile, all, stats, scratch,
                                   [&](const FragmentSpan &s) {
                                       sink += s.depth[s.count - 1];
                                   });
        benchmark::DoNotOptimize(sink);
    }
    state.counters["ns_per_fragment"] = benchmark::Counter(
        static_cast<double>(stats.fragments_generated),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_RasterizeSpans);

/**
 * One SetAssocCache::access per iteration (2-way, 8 KB, like a texture
 * cache) over an address pattern chosen by range(0):
 *  0 "mru-hit"  the same line every time (the MRU-line filter);
 *  1 "set-hit"  two lines of one set alternating: both resident, so
 *               every access scans the set and hits;
 *  2 "miss"     three lines of one set in rotation: each evicts the
 *               next one's predecessor, so every access misses to DRAM.
 */
void
BM_CacheAccess(benchmark::State &state)
{
    static const char *const kNames[] = {"mru-hit", "set-hit", "miss"};
    const int pattern = static_cast<int>(state.range(0));
    state.SetLabel(kNames[pattern]);
    DramModel dram;
    SetAssocCache cache(CacheConfig{"tex", 8 * 1024, 64, 2, 1}, &dram);
    const Addr set_stride = 8 * 1024 / 2; // same set, next tag
    const int lines = pattern == 0 ? 1 : pattern == 1 ? 2 : 3;
    Addr addrs[3];
    for (int i = 0; i < 3; ++i)
        addrs[i] = 0x10000 + static_cast<Addr>(i) * set_stride;
    int i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i], 4, false, TrafficClass::Texture));
        if (++i == lines)
            i = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->DenseRange(0, 2);

/**
 * The access log of one 16x16 tile: four textured primitives, each
 * with its two parameter reads and a texel fetch per pixel in quad-walk
 * order on the pixel's fragment unit, at 0.5, 1, 1.5 and 2 texels per
 * pixel of a 256x256 RGBA8 texture, then the 16 Color Buffer row
 * flushes. Texel fetches fold by the set map of @p record's texture
 * cache.
 */
TileMemLog
syntheticTileLog(const MemorySystemConfig &record)
{
    ShaderCore shader(record);
    TileMemLog log(record);
    const int size = 16;
    for (int layer = 0; layer < 4; ++layer) {
        const float scale = 0.5f * static_cast<float>(layer + 1);
        log.paramRead(AddressSpace::kParameterBase + 64 * layer, 8);
        log.paramRead(AddressSpace::kParameterBase + 4096 + 64 * layer, 64);
        for (int qy = 0; qy < size; qy += 2)
            for (int qx = 0; qx < size; qx += 2)
                for (int dy = 0; dy < 2; ++dy)
                    for (int dx = 0; dx < 2; ++dx) {
                        const int x = qx + dx, y = qy + dy;
                        const auto tx = static_cast<Addr>(x * scale) + 32;
                        const auto ty = static_cast<Addr>(y * scale) + 32;
                        log.textureFetch(shader.unitFor(x, y),
                                         AddressSpace::kTextureBase +
                                             (ty * 256 + tx) * 4,
                                         4);
                    }
    }
    for (int y = 0; y < size; ++y)
        log.framebufferWrite(AddressSpace::framebufferAddr(0, y, 608),
                             size * 4);
    return log;
}

/**
 * A geometry segment of 512 triangles of a strip: each fetches one new
 * 36-byte vertex, writes its 128-byte attribute block, and appends a
 * 4-byte entry to the lists of the two tiles it overlaps (8 triangles
 * per tile column, 38 columns), each list in 256-byte chunks, all
 * allocated from the Parameter Buffer as the binner does.
 */
GeometryMemLog
syntheticGeometryLog(const MemorySystemConfig &record)
{
    constexpr int kTiles = 38;
    GeometryMemLog log(record);
    Addr top = AddressSpace::kParameterBase + 64;
    Addr cursor[kTiles] = {};
    unsigned left[kTiles] = {};
    for (int t = 0; t < 512; ++t) {
        log.vertexFetch(AddressSpace::kVertexBase + 64 +
                            static_cast<Addr>(t + 2) * kVertexBytes,
                        kVertexBytes);
        log.parameterWrite(top, ShadedPrimitive::kAttrBytes);
        top += ShadedPrimitive::kAttrBytes;
        for (int k = 0; k < 2; ++k) {
            const int tile = (t / 8 + k) % kTiles;
            if (left[tile] < DisplayListEntry::kBaseBytes) {
                cursor[tile] = top;
                top += 256;
                left[tile] = 256;
            }
            log.parameterWrite(cursor[tile], DisplayListEntry::kBaseBytes);
            cursor[tile] += DisplayListEntry::kBaseBytes;
            left[tile] -= DisplayListEntry::kBaseBytes;
        }
    }
    return log;
}

/**
 * Memory-log replay against a live MemorySystem (warm after the first
 * iteration, as in a frame's steady state):
 *  0 "raw"        one tile's log, every texel fetch its own entry;
 *  1 "line-fold"  each unit's fetches folded only into its previous
 *                 line (the set fold of a one-set texture cache map);
 *  2 "set-fold"   the set fold, as the raster path records it;
 *  3 "geometry"   the folded geometry segment above.
 * ns_per_access counts logical accesses (folded repeats included), so
 * the rows compare directly; entries_per_access is the log's size per
 * access.
 */
void
BM_ReplayLog(benchmark::State &state)
{
    static const char *const kLegs[] = {"raw", "line-fold", "set-fold",
                                        "geometry"};
    const auto leg = static_cast<int>(state.range(0));
    state.SetLabel(kLegs[leg]);
    MemorySystem mem;
    auto measure = [&](const auto &log) {
        const double entries = static_cast<double>(log.accesses().size());
        const double accesses =
            static_cast<double>(log.uncoalesced().accesses().size());
        for (auto _ : state)
            benchmark::DoNotOptimize(log.replay(mem));
        state.counters["ns_per_access"] = benchmark::Counter(
            accesses * static_cast<double>(state.iterations()),
            benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
        state.counters["entries_per_access"] = entries / accesses;
    };
    if (leg == 3) {
        measure(syntheticGeometryLog(mem.config()));
        return;
    }
    MemorySystemConfig record = mem.config();
    if (leg == 1)
        record.texture_cache.size_bytes =
            record.texture_cache.line_bytes * record.texture_cache.ways;
    const TileMemLog tile = syntheticTileLog(record);
    measure(leg == 0 ? tile.uncoalesced() : tile);
}
BENCHMARK(BM_ReplayLog)->DenseRange(0, 3);

} // namespace

BENCHMARK_MAIN();
