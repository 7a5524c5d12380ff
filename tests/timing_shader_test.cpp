/**
 * @file
 * Unit tests for the remaining modelled components: the analytic timing
 * model (stage bottlenecks, skip costs, technique-specific terms), the
 * shader core (program costs, texture routing, procedural determinism),
 * the framebuffer (tile comparisons, PPM output), FrameStats
 * accumulation, and the real Z-Prepass configuration — plus
 * cross-configuration invariance properties (tile size must never
 * change the image).
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "gpu/timing_model.hpp"
#include "support.hpp"

using namespace evrsim;
using namespace evrsim::test;

// -------------------------------------------------------- TimingModel --

namespace {

GpuConfig g_cfg = tinyGpu();

} // namespace

TEST(TimingModel, EmptyFrameCostsNothing)
{
    TimingModel tm(g_cfg);
    FrameStats empty;
    EXPECT_EQ(tm.geometryCycles(empty), 0u);
    EXPECT_EQ(tm.tileCycles(empty), 0u);
}

TEST(TimingModel, GeometryBottleneckIsTheMaxStage)
{
    TimingModel tm(g_cfg);
    FrameStats s;
    s.vertex_shader_instrs = 10'000; // vertex stage = 10000 cycles
    s.prims_submitted = 100;         // assembly = 100
    Cycles vertex_bound = tm.geometryCycles(s);
    EXPECT_EQ(vertex_bound, 10'000u);

    // Growing a non-bottleneck stage below the max changes nothing.
    s.prims_submitted = 5'000;
    EXPECT_EQ(tm.geometryCycles(s), vertex_bound);

    // Growing it beyond the max moves the bottleneck.
    s.prims_submitted = 20'000;
    EXPECT_EQ(tm.geometryCycles(s), 20'000u);
}

TEST(TimingModel, SignatureWorkSerializesWithBinning)
{
    TimingModel tm(g_cfg);
    FrameStats s;
    s.bin_tile_pairs = 1'000;
    Cycles base = tm.geometryCycles(s);
    s.signature_updates = 1'000;
    s.signature_shift_bytes = 128'000;
    Cycles with_sig = tm.geometryCycles(s);
    EXPECT_GT(with_sig, base);
    // 4 cycles per combine + 128 B / 32 B-per-cycle shifting.
    EXPECT_EQ(with_sig - base,
              static_cast<Cycles>(1'000 * 4 + 128'000 / 32));
}

TEST(TimingModel, MemoryLatencyIsPartiallyHidden)
{
    TimingModel tm(g_cfg);
    FrameStats s;
    s.prims_submitted = 100;
    Cycles base = tm.geometryCycles(s);
    s.geom_mem_latency = 1'000;
    Cycles stalled = tm.geometryCycles(s);
    EXPECT_GT(stalled, base);
    EXPECT_LT(stalled - base, 1'000u); // overlap factor < 1
}

TEST(TimingModel, SkippedTileCostsOnlyTheCompare)
{
    TimingModel tm(g_cfg);
    FrameStats t;
    t.tiles_total = 1;
    t.signature_compares = 1;
    t.tiles_skipped_re = 1; // tiles_rendered stays 0
    Cycles skip = tm.tileCycles(t);
    EXPECT_GT(skip, 0u);
    EXPECT_LT(skip, 8u);
}

TEST(TimingModel, ShadingBoundTileScalesWithFragmentProcessors)
{
    FrameStats t;
    t.tiles_total = 1;
    t.tiles_rendered = 1;
    t.fragment_shader_instrs = 100'000;

    GpuConfig wide = g_cfg;
    wide.fragment_processors = 8;
    TimingModel narrow(g_cfg); // 4 FPs
    TimingModel wide_tm(wide);
    EXPECT_GT(narrow.tileCycles(t), wide_tm.tileCycles(t));
}

TEST(TimingModel, FlushAddsOnTopOfBottleneck)
{
    TimingModel tm(g_cfg);
    FrameStats t;
    t.tiles_total = 1;
    t.tiles_rendered = 1;
    t.blend_ops = 100;
    Cycles no_flush = tm.tileCycles(t);
    t.tile_flush_bytes = 1'024;
    EXPECT_GT(tm.tileCycles(t), no_flush);
}

// --------------------------------------------------------- ShaderCore --

namespace {

/** An empty tile log sized for @p mem's texture caches. */
TileMemLog
tileLogFor(const MemorySystem &mem)
{
    return TileMemLog(mem.config());
}

} // namespace

TEST(ShaderCore, ProgramCostsAreOrdered)
{
    // Procedural is the ALU-heavy program; Flat the cheapest.
    EXPECT_LT(ShaderCore::fragmentInstrs(FragmentProgram::Flat),
              ShaderCore::fragmentInstrs(FragmentProgram::Textured));
    EXPECT_LT(ShaderCore::fragmentInstrs(FragmentProgram::Textured),
              ShaderCore::fragmentInstrs(FragmentProgram::Procedural));
    EXPECT_EQ(ShaderCore::fragmentTexFetches(FragmentProgram::Flat), 0u);
    EXPECT_EQ(ShaderCore::fragmentTexFetches(FragmentProgram::Textured), 1u);
    EXPECT_EQ(ShaderCore::fragmentTexFetches(FragmentProgram::Procedural),
              0u);
}

TEST(ShaderCore, FlatPassesInterpolatedColor)
{
    MemorySystem mem;
    ShaderCore core(mem.config());
    TileMemLog log = tileLogFor(mem);
    FrameStats stats;
    RenderState rs;
    rs.program = FragmentProgram::Flat;
    auto out = core.shadeFragment(rs, {0.25f, 0.5f, 0.75f, 1.0f}, {0, 0},
                                  3, 4, stats, log);
    EXPECT_FALSE(out.discarded);
    EXPECT_EQ(out.color, (Vec4{0.25f, 0.5f, 0.75f, 1.0f}));
    EXPECT_EQ(stats.fragment_shader_instrs,
              ShaderCore::fragmentInstrs(FragmentProgram::Flat));
    EXPECT_EQ(stats.texture_fetches, 0u);
    EXPECT_TRUE(log.accesses().empty());
}

TEST(ShaderCore, TexturedSamplesAndCountsFetch)
{
    MemorySystem mem;
    ShaderCore core(mem.config());
    TileMemLog log = tileLogFor(mem);
    Texture tex(TextureKind::Solid, 32, {0.2f, 0.4f, 0.6f, 1.0f},
                {0, 0, 0, 0});
    tex.setBase(mem.addressSpace().allocTexture(tex.byteSize()));
    std::vector<const Texture *> textures{&tex};
    core.bindTextures(&textures);

    FrameStats stats;
    RenderState rs;
    rs.program = FragmentProgram::Textured;
    rs.texture = 0;
    auto out = core.shadeFragment(rs, {1, 1, 1, 0.5f}, {0.3f, 0.7f}, 0, 0,
                                  stats, log);
    EXPECT_NEAR(out.color.x, 0.2f, 1e-6f);
    // Vertex alpha carries through for translucent textured sprites.
    EXPECT_NEAR(out.color.w, 0.5f, 1e-6f);
    EXPECT_EQ(stats.texture_fetches, 1u);
    // The fetch reaches the texture cache when the log replays.
    EXPECT_EQ(mem.stats().texture_caches.accesses(), 0u);
    log.replay(mem);
    EXPECT_GT(mem.stats().texture_caches.accesses(), 0u);
}

TEST(ShaderCore, QuadsMapToDistinctTextureCaches)
{
    MemorySystem mem;
    ShaderCore core(mem.config());
    TileMemLog log = tileLogFor(mem);
    Texture tex(TextureKind::Solid, 32, {1, 1, 1, 1}, {0, 0, 0, 0});
    tex.setBase(mem.addressSpace().allocTexture(tex.byteSize()));
    std::vector<const Texture *> textures{&tex};
    core.bindTextures(&textures);

    RenderState rs;
    rs.program = FragmentProgram::Textured;
    rs.texture = 0;
    FrameStats stats;
    // Fragments of the same 2x2 quad share a unit: same line -> 1 miss.
    core.shadeFragment(rs, {1, 1, 1, 1}, {0.5f, 0.5f}, 0, 0, stats, log);
    core.shadeFragment(rs, {1, 1, 1, 1}, {0.5f, 0.5f}, 1, 1, stats, log);
    log.replay(mem);
    EXPECT_EQ(mem.stats().texture_caches.misses(), 1u);
    // A different quad maps to a different (cold) cache.
    log = tileLogFor(mem);
    core.shadeFragment(rs, {1, 1, 1, 1}, {0.5f, 0.5f}, 2, 0, stats, log);
    log.replay(mem);
    EXPECT_EQ(mem.stats().texture_caches.misses(), 2u);
}

TEST(ShaderCore, ProceduralIsDeterministic)
{
    MemorySystem mem;
    ShaderCore core(mem.config());
    TileMemLog log = tileLogFor(mem);
    FrameStats stats;
    RenderState rs;
    rs.program = FragmentProgram::Procedural;
    auto a = core.shadeFragment(rs, {1, 1, 1, 1}, {0.3f, 0.8f}, 0, 0, stats,
                                log);
    auto b = core.shadeFragment(rs, {1, 1, 1, 1}, {0.3f, 0.8f}, 5, 9, stats,
                                log);
    EXPECT_EQ(a.color, b.color); // depends on uv only, not pixel position
}

TEST(ShaderCore, DiscardThresholdAtHalfAlpha)
{
    MemorySystem mem;
    ShaderCore core(mem.config());
    TileMemLog log = tileLogFor(mem);
    Texture opaque(TextureKind::Solid, 32, {1, 1, 1, 1}, {0, 0, 0, 0});
    opaque.setBase(mem.addressSpace().allocTexture(opaque.byteSize()));
    std::vector<const Texture *> textures{&opaque};
    core.bindTextures(&textures);

    RenderState rs;
    rs.program = FragmentProgram::TexturedDiscard;
    rs.texture = 0;
    FrameStats stats;
    // Texture alpha 1 * vertex alpha 0.4 < 0.5 -> discarded.
    auto killed =
        core.shadeFragment(rs, {1, 1, 1, 0.4f}, {0, 0}, 0, 0, stats, log);
    EXPECT_TRUE(killed.discarded);
    auto kept =
        core.shadeFragment(rs, {1, 1, 1, 0.6f}, {0, 0}, 0, 0, stats, log);
    EXPECT_FALSE(kept.discarded);
    EXPECT_EQ(stats.fragments_discarded_shader, 1u);
}

// -------------------------------------------------------- Framebuffer --

TEST(Framebuffer, ComparisonsAreExact)
{
    Framebuffer a(32, 32), b(32, 32);
    a.clear({1, 2, 3, 255});
    b.clear({1, 2, 3, 255});
    EXPECT_TRUE(a.equals(b));
    b.setPixel(17, 5, {9, 9, 9, 255});
    EXPECT_FALSE(a.equals(b));
    EXPECT_EQ(a.diffCount(b), 1u);
    EXPECT_TRUE(a.rowEquals(0, 5, &b.pixels()[5 * 32], 16));
    EXPECT_FALSE(a.rowEquals(16, 5, &b.pixels()[5 * 32 + 16], 16));
}

TEST(Framebuffer, DestroyedStorageIsReusedAndFullyCleared)
{
    const Rgba8 *storage = nullptr;
    {
        Framebuffer old(48, 40);
        old.clear({7, 8, 9, 10});
        storage = old.pixels().data();
    }
    Framebuffer fresh(48, 40);
    EXPECT_EQ(fresh.pixels().data(), storage);
    for (const Rgba8 &p : fresh.pixels())
        ASSERT_EQ(p, Rgba8{});

    // A moved-from framebuffer gives nothing back; the moved-to one
    // recycles the buffer when it goes.
    const Rgba8 *moved_storage = fresh.pixels().data();
    {
        Framebuffer moved(std::move(fresh));
        EXPECT_EQ(moved.pixels().data(), moved_storage);
    }
    Framebuffer again(48, 40);
    EXPECT_EQ(again.pixels().data(), moved_storage);
}

TEST(Framebuffer, CopyRectIsTileGranular)
{
    Framebuffer src(32, 32), dst(32, 32);
    src.clear({200, 0, 0, 255});
    dst.clear({0, 0, 200, 255});
    dst.copyRect(src, {8, 8, 16, 16});
    EXPECT_EQ(dst.pixel(8, 8), (Rgba8{200, 0, 0, 255}));
    EXPECT_EQ(dst.pixel(7, 8), (Rgba8{0, 0, 200, 255}));
    EXPECT_EQ(dst.pixel(16, 16), (Rgba8{0, 0, 200, 255}));
}

TEST(Framebuffer, CrcTracksContent)
{
    Framebuffer a(16, 16);
    a.clear({5, 5, 5, 255});
    std::uint32_t before = a.contentCrc();
    a.setPixel(3, 3, {6, 5, 5, 255});
    EXPECT_NE(a.contentCrc(), before);
}

TEST(Framebuffer, WritesValidPpm)
{
    Framebuffer fb(4, 2);
    fb.clear({10, 20, 30, 255});
    fb.setPixel(0, 0, {255, 0, 0, 255});

    auto path = std::filesystem::temp_directory_path() / "evrsim_test.ppm";
    ASSERT_TRUE(fb.writePpm(path.string()));

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char header[16] = {};
    ASSERT_EQ(std::fscanf(f, "%15s", header), 1);
    EXPECT_STREQ(header, "P6");
    int w = 0, h = 0, maxv = 0;
    ASSERT_EQ(std::fscanf(f, "%d %d %d", &w, &h, &maxv), 3);
    EXPECT_EQ(w, 4);
    EXPECT_EQ(h, 2);
    EXPECT_EQ(maxv, 255);
    std::fgetc(f); // single whitespace after header
    unsigned char rgb[3];
    ASSERT_EQ(std::fread(rgb, 1, 3, f), 3u);
    EXPECT_EQ(rgb[0], 255);
    EXPECT_EQ(rgb[1], 0);
    std::fclose(f);
    std::filesystem::remove(path);
}

// --------------------------------------------------------- FrameStats --

TEST(FrameStats, AccumulateSumsEveryCounter)
{
    FrameStats a, b;
    a.fragments_shaded = 10;
    a.casuistry[1] = 2;
    a.mem.dram.read_bytes[0] = 100;
    b.fragments_shaded = 5;
    b.casuistry[1] = 3;
    b.mem.dram.read_bytes[0] = 50;
    b.geometry_cycles = 7;
    a.accumulate(b);
    EXPECT_EQ(a.fragments_shaded, 15u);
    EXPECT_EQ(a.casuistry[1], 5u);
    EXPECT_EQ(a.mem.dram.read_bytes[0], 150u);
    EXPECT_EQ(a.geometry_cycles, 7u);
}

TEST(FrameStats, ShadedPerPixelMetric)
{
    FrameStats s;
    s.fragments_shaded = 200;
    EXPECT_DOUBLE_EQ(s.shadedFragmentsPerPixel(100), 2.0);
    EXPECT_DOUBLE_EQ(s.shadedFragmentsPerPixel(0), 0.0);
}

// ---------------------------------------------------------- Z-Prepass --

TEST(ZPrepass, PaysForThePrepassButCutsShading)
{
    // Far-then-near opaque stack: like the oracle, Z-Prepass halves the
    // shading, but unlike the oracle it pays an extra rasterization and
    // depth-test pass.
    auto build = [](Mesh *q, Scene &scene) {
        RenderState woz;
        woz.depth_test = true;
        woz.depth_write = true;
        submitRect(scene, q, 0, 0, 32, 32, 0.8f, woz).tint = {0, 1, 0, 1};
        submitRect(scene, q, 0, 0, 32, 32, 0.2f, woz).tint = {1, 0, 0, 1};
    };

    GpuSimulator base(SimConfig::baseline(tinyGpu()));
    Mesh q1 = meshes::quad({1, 1, 1, 1});
    base.uploadMesh(q1);
    Scene s1;
    setCamera2D(s1, 64, 48);
    build(&q1, s1);
    FrameStats b = base.renderFrame(s1);

    GpuSimulator zp(SimConfig::zPrepass(tinyGpu()));
    Mesh q2 = meshes::quad({1, 1, 1, 1});
    zp.uploadMesh(q2);
    Scene s2;
    setCamera2D(s2, 64, 48);
    build(&q2, s2);
    FrameStats z = zp.renderFrame(s2);

    // Perfect visibility: only the near quad shades.
    EXPECT_EQ(z.fragments_shaded, 1024u);
    EXPECT_EQ(b.fragments_shaded, 2048u);
    // But the prepass re-rasterizes the Z-writing geometry.
    EXPECT_GT(z.fragments_generated, b.fragments_generated);
    EXPECT_GT(z.early_z_tests, b.early_z_tests);
    // Identical output.
    EXPECT_TRUE(zp.framebuffer().equals(base.framebuffer()));
}

TEST(ZPrepass, OracleChargesNothingForTheSameDepths)
{
    auto run = [](const SimConfig &cfg) {
        GpuSimulator sim(cfg);
        Mesh q = meshes::quad({1, 1, 1, 1});
        sim.uploadMesh(q);
        Scene s;
        setCamera2D(s, 64, 48);
        RenderState woz;
        woz.depth_test = true;
        woz.depth_write = true;
        submitRect(s, &q, 0, 0, 48, 32, 0.7f, woz);
        submitRect(s, &q, 8, 4, 24, 24, 0.3f, woz);
        return sim.renderFrame(s);
    };

    FrameStats oracle = run(SimConfig::oracleZ(tinyGpu()));
    FrameStats zp = run(SimConfig::zPrepass(tinyGpu()));
    EXPECT_EQ(oracle.fragments_shaded, zp.fragments_shaded);
    EXPECT_LT(oracle.fragments_generated, zp.fragments_generated);
    EXPECT_LT(oracle.raster_cycles, zp.raster_cycles);
}

// ------------------------------------ Tile-size invariance property --

class TileSizeInvariance : public ::testing::TestWithParam<int>
{
};

TEST_P(TileSizeInvariance, ImageIndependentOfTileSize)
{
    // Tiling is an implementation choice: for any tile size, baseline
    // and EVR must produce the same image (and each other's).
    int tile_size = GetParam();
    GpuConfig ref_cfg = tinyGpu(96, 64);
    GpuConfig cfg = ref_cfg;
    cfg.tile_size = tile_size;

    auto build = [](Mesh *q, Scene &s, int i) {
        RenderState woz;
        woz.depth_test = true;
        woz.depth_write = true;
        submitRect(s, q, -1, -1, 98, 66, 0.9f, woz).tint = {0, 0, 1, 1};
        submitRect(s, q, 10.0f + 3 * i, 12, 30, 22, 0.4f, woz).tint = {
            1, 0, 0, 1};
        RenderState nwoz;
        nwoz.depth_test = false;
        nwoz.depth_write = false;
        submitRect(s, q, 40, 30, 44, 26, 0.1f, nwoz).tint = {0.2f, 0.8f,
                                                             0.2f, 1};
    };

    GpuSimulator ref(SimConfig::baseline(ref_cfg));
    GpuSimulator sized(SimConfig::evr(cfg));
    Mesh q1 = meshes::quad({1, 1, 1, 1});
    Mesh q2 = meshes::quad({1, 1, 1, 1});
    ref.uploadMesh(q1);
    sized.uploadMesh(q2);

    for (int i = 0; i < 4; ++i) {
        Scene s1, s2;
        setCamera2D(s1, 96, 64);
        setCamera2D(s2, 96, 64);
        build(&q1, s1, i);
        build(&q2, s2, i);
        ref.renderFrame(s1);
        sized.renderFrame(s2);
        ASSERT_TRUE(ref.framebuffer().equals(sized.framebuffer()))
            << "tile size " << tile_size << " frame " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TileSizeInvariance,
                         ::testing::Values(8, 16, 32));
