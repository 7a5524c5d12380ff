/**
 * @file
 * Unit tests for the Raster Pipeline driven through the simulator
 * facade: clears, depth-test semantics (early and late), painter's
 * algorithm for NWOZ primitives, alpha blending, shader discard, the
 * Figure 8 oracle mode, per-tile flush accounting and ground-truth
 * visibility statistics — plus the memory logs' MRU-of-set fold,
 * tile-job failure handling and the tile-parallel bit-identity property
 * over every config.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/job_pool.hpp"
#include "common/ordered_stream.hpp"
#include "common/rng.hpp"
#include "driver/run_result.hpp"
#include "gpu/raster_pipeline.hpp"
#include "gpu/tile_mem_log.hpp"
#include "support.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;
using namespace evrsim::test;

namespace {

RenderState
wozState()
{
    RenderState s;
    s.depth_test = true;
    s.depth_write = true;
    return s;
}

RenderState
nwozState(BlendMode blend = BlendMode::Opaque)
{
    RenderState s;
    s.depth_test = false;
    s.depth_write = false;
    s.blend = blend;
    return s;
}

/** Fixture: a 64x48 baseline GPU and a reusable quad. */
class RasterTest : public ::testing::Test
{
  protected:
    RasterTest()
        : sim(SimConfig::baseline(tinyGpu())),
          quad(meshes::quad({1, 1, 1, 1}))
    {
        sim.uploadMesh(quad);
    }

    Scene
    newScene()
    {
        Scene s;
        setCamera2D(s, 64, 48);
        s.clear_color = {10, 20, 30, 255};
        return s;
    }

    /** Count pixels with exactly this color. */
    std::uint64_t
    countPixels(Rgba8 c)
    {
        std::uint64_t n = 0;
        const Framebuffer &fb = sim.framebuffer();
        for (int y = 0; y < fb.height(); ++y)
            for (int x = 0; x < fb.width(); ++x)
                n += fb.pixel(x, y) == c;
        return n;
    }

    GpuSimulator sim;
    Mesh quad;
};

} // namespace

TEST_F(RasterTest, EmptySceneFillsClearColor)
{
    FrameStats s = sim.renderFrame(newScene());
    EXPECT_EQ(countPixels({10, 20, 30, 255}), 64u * 48u);
    EXPECT_EQ(s.fragments_shaded, 0u);
    EXPECT_EQ(s.tiles_rendered, 12u);
    EXPECT_EQ(s.tile_flush_bytes, 64u * 48u * 4u);
}

TEST_F(RasterTest, OpaqueQuadColorsExactPixels)
{
    Scene scene = newScene();
    DrawCommand &cmd =
        submitRect(scene, &quad, 16, 16, 16, 16, 0.5f, wozState());
    cmd.tint = {1.0f, 0.0f, 0.0f, 1.0f};
    FrameStats s = sim.renderFrame(scene);
    EXPECT_EQ(countPixels({255, 0, 0, 255}), 256u);
    EXPECT_EQ(s.fragments_shaded, 256u);
    EXPECT_EQ(s.blend_ops, 256u);
}

TEST_F(RasterTest, DepthTestPicksNearerRegardlessOfOrder)
{
    for (bool near_first : {false, true}) {
        Scene scene = newScene();
        auto submit_near = [&] {
            DrawCommand &c =
                submitRect(scene, &quad, 0, 0, 32, 32, 0.2f, wozState());
            c.tint = {1, 0, 0, 1};
        };
        auto submit_far = [&] {
            DrawCommand &c =
                submitRect(scene, &quad, 0, 0, 32, 32, 0.8f, wozState());
            c.tint = {0, 1, 0, 1};
        };
        if (near_first) {
            submit_near();
            submit_far();
        } else {
            submit_far();
            submit_near();
        }
        FrameStats s = sim.renderFrame(scene);
        EXPECT_EQ(countPixels({255, 0, 0, 255}), 1024u);
        EXPECT_EQ(countPixels({0, 255, 0, 255}), 0u);
        if (near_first) {
            // The far quad is rejected by the Early-Z test: not shaded.
            EXPECT_EQ(s.early_z_kills, 1024u);
            EXPECT_EQ(s.fragments_shaded, 1024u);
        } else {
            // Far drawn first: both shaded (overshading).
            EXPECT_EQ(s.early_z_kills, 0u);
            EXPECT_EQ(s.fragments_shaded, 2048u);
        }
    }
}

TEST_F(RasterTest, EqualDepthFailsTheLessTest)
{
    Scene scene = newScene();
    DrawCommand &a = submitRect(scene, &quad, 0, 0, 16, 16, 0.5f, wozState());
    a.tint = {1, 0, 0, 1};
    DrawCommand &b = submitRect(scene, &quad, 0, 0, 16, 16, 0.5f, wozState());
    b.tint = {0, 1, 0, 1};
    sim.renderFrame(scene);
    // First-drawn wins on ties (LESS comparison).
    EXPECT_EQ(countPixels({255, 0, 0, 255}), 256u);
}

TEST_F(RasterTest, NwozPainterOrderLastWins)
{
    Scene scene = newScene();
    // Later command covers earlier one even though its z is "farther".
    DrawCommand &a =
        submitRect(scene, &quad, 0, 0, 16, 16, 0.1f, nwozState());
    a.tint = {1, 0, 0, 1};
    DrawCommand &b =
        submitRect(scene, &quad, 0, 0, 16, 16, 0.9f, nwozState());
    b.tint = {0, 0, 1, 1};
    FrameStats s = sim.renderFrame(scene);
    EXPECT_EQ(countPixels({0, 0, 255, 255}), 256u);
    // No depth activity for NWOZ-only scenes.
    EXPECT_EQ(s.early_z_tests, 0u);
    EXPECT_EQ(s.late_z_tests, 0u);
    EXPECT_EQ(s.fragments_shaded, 512u); // unavoidable 2D overshade
}

TEST_F(RasterTest, AlphaBlendingMathIsExact)
{
    Scene scene = newScene();
    DrawCommand &bg =
        submitRect(scene, &quad, 0, 0, 16, 16, 0.5f, nwozState());
    bg.tint = {0, 0, 1, 1};
    DrawCommand &fg = submitRect(scene, &quad, 0, 0, 16, 16, 0.4f,
                                 nwozState(BlendMode::Alpha));
    fg.tint = {1, 0, 0, 0.5f};
    sim.renderFrame(scene);
    // 0.5*red + 0.5*blue, alpha = 0.5 + 1*0.5 = 1.
    Rgba8 got = sim.framebuffer().pixel(8, 8);
    EXPECT_EQ(got.r, 128);
    EXPECT_EQ(got.g, 0);
    EXPECT_EQ(got.b, 128);
    EXPECT_EQ(got.a, 255);
}

TEST_F(RasterTest, AlphaOneInBlendModeCountsAsOpaqueWrite)
{
    Scene scene = newScene();
    DrawCommand &fg = submitRect(scene, &quad, 0, 0, 16, 16, 0.4f,
                                 nwozState(BlendMode::Alpha));
    fg.tint = {1, 0, 0, 1.0f};
    sim.renderFrame(scene);
    EXPECT_EQ(countPixels({255, 0, 0, 255}), 256u);
}

TEST_F(RasterTest, TranslucentDoesNotOccludeLaterOpaque)
{
    // Translucent primitives do not write Z: a later opaque WOZ behind
    // them still lands (this is why apps draw translucents last).
    Scene scene = newScene();
    RenderState translucent;
    translucent.depth_test = true;
    translucent.depth_write = false;
    translucent.blend = BlendMode::Alpha;
    DrawCommand &t =
        submitRect(scene, &quad, 0, 0, 16, 16, 0.2f, translucent);
    t.tint = {1, 1, 1, 0.5f};
    DrawCommand &o = submitRect(scene, &quad, 0, 0, 16, 16, 0.8f, wozState());
    o.tint = {0, 1, 0, 1};
    FrameStats s = sim.renderFrame(scene);
    EXPECT_EQ(countPixels({0, 255, 0, 255}), 256u);
    EXPECT_EQ(s.early_z_kills, 0u);
}

TEST_F(RasterTest, DiscardShaderUsesLateZ)
{
    Scene scene = newScene();
    // A checkerboard alpha texture: half the fragments discard.
    Texture alpha_tex(TextureKind::Checker, 16, {1, 1, 1, 1},
                      {1, 1, 1, 0.0f}, 3, 8);
    sim.registerTexture(alpha_tex);
    scene.textures.push_back(&alpha_tex);

    RenderState discard = wozState();
    discard.program = FragmentProgram::TexturedDiscard;
    discard.texture = 0;
    DrawCommand &d = submitRect(scene, &quad, 0, 0, 16, 16, 0.5f, discard);
    d.tint = {1, 0, 0, 1};

    FrameStats s = sim.renderFrame(scene);
    // No early-Z possible; all fragments shaded, half discarded.
    EXPECT_EQ(s.early_z_tests, 0u);
    EXPECT_EQ(s.fragments_shaded, 256u);
    EXPECT_EQ(s.fragments_discarded_shader, 128u);
    EXPECT_EQ(s.late_z_tests, 128u);
    EXPECT_EQ(countPixels({255, 0, 0, 255}), 128u);
    // Discarded pixels keep the clear color.
    EXPECT_EQ(countPixels({10, 20, 30, 255}), 64u * 48u - 128u);
}

TEST_F(RasterTest, DiscardedFragmentsDoNotWriteDepth)
{
    Scene scene = newScene();
    Texture alpha_tex(TextureKind::Checker, 16, {1, 1, 1, 1},
                      {1, 1, 1, 0.0f}, 3, 8);
    sim.registerTexture(alpha_tex);
    scene.textures.push_back(&alpha_tex);

    RenderState discard = wozState();
    discard.program = FragmentProgram::TexturedDiscard;
    discard.texture = 0;
    submitRect(scene, &quad, 0, 0, 16, 16, 0.2f, discard);

    // A farther opaque quad drawn after must appear wherever the
    // discard shader killed its fragments.
    DrawCommand &behind =
        submitRect(scene, &quad, 0, 0, 16, 16, 0.8f, wozState());
    behind.tint = {0, 0, 1, 1};

    sim.renderFrame(scene);
    EXPECT_EQ(countPixels({0, 0, 255, 255}), 128u);
}

TEST_F(RasterTest, OracleZEliminatesOvershading)
{
    // Far-then-near stack: baseline shades twice, the oracle shades the
    // visible fragment only.
    auto build = [](Scene &scene, Mesh *q) {
        DrawCommand &far_cmd =
            submitRect(scene, q, 0, 0, 32, 32, 0.8f, wozState());
        far_cmd.tint = {0, 1, 0, 1};
        DrawCommand &near_cmd =
            submitRect(scene, q, 0, 0, 32, 32, 0.2f, wozState());
        near_cmd.tint = {1, 0, 0, 1};
    };

    Scene base_scene = newScene();
    build(base_scene, &quad);
    FrameStats base = sim.renderFrame(base_scene);
    EXPECT_EQ(base.fragments_shaded, 2048u);

    GpuSimulator oracle(SimConfig::oracleZ(tinyGpu()));
    Mesh quad2 = meshes::quad({1, 1, 1, 1});
    oracle.uploadMesh(quad2);
    Scene scene;
    setCamera2D(scene, 64, 48);
    scene.clear_color = {10, 20, 30, 255};
    build(scene, &quad2);
    FrameStats orc = oracle.renderFrame(scene);
    EXPECT_EQ(orc.fragments_shaded, 1024u);
    EXPECT_EQ(orc.early_z_kills, 1024u);

    // Identical image either way.
    EXPECT_TRUE(oracle.framebuffer().equals(sim.framebuffer()));
}

TEST_F(RasterTest, GroundTruthCountsHiddenPrimitiveOccluded)
{
    Scene scene = newScene();
    // 15x15 quads strictly inside tile 0 (a 16-aligned quad would also
    // be conservatively binned into the boundary-touching neighbours,
    // adding zero-coverage pairs).
    submitRect(scene, &quad, 0, 0, 15, 15, 0.8f, wozState()); // hidden
    submitRect(scene, &quad, 0, 0, 15, 15, 0.2f, wozState()); // covers it
    FrameStats s = sim.renderFrame(scene);
    // Without EVR nothing is predicted occluded: scenario B counts the
    // actually-occluded pairs, scenario A the visible ones.
    int b = static_cast<int>(Casuistry::VisibleOccluded);
    int a = static_cast<int>(Casuistry::VisibleVisible);
    EXPECT_EQ(s.casuistry[b], 2u); // two triangles of the hidden quad
    EXPECT_EQ(s.casuistry[a], 2u);
}

TEST_F(RasterTest, PartialEdgeTilesFlushOnlyTheirPixels)
{
    // 40x24 screen -> 3x2 tiles with an 8px-wide right column; total
    // flushed bytes = pixels * 4 exactly.
    GpuSimulator small(SimConfig::baseline(tinyGpu(40, 24)));
    Mesh q = meshes::quad({1, 1, 1, 1});
    small.uploadMesh(q);
    Scene scene;
    setCamera2D(scene, 40, 24);
    FrameStats s = small.renderFrame(scene);
    EXPECT_EQ(s.tile_flush_bytes, 40u * 24u * 4u);
    EXPECT_EQ(s.tiles_total, 6u);
}

TEST_F(RasterTest, FramebufferTrafficMatchesFlush)
{
    Scene scene = newScene();
    FrameStats s = sim.renderFrame(scene);
    int fb_class = static_cast<int>(TrafficClass::Framebuffer);
    EXPECT_EQ(s.mem.dram.write_bytes[fb_class], s.tile_flush_bytes);
}

TEST_F(RasterTest, TimingProducesNonZeroCycles)
{
    Scene scene = newScene();
    submitRect(scene, &quad, 0, 0, 64, 48, 0.5f, wozState());
    FrameStats s = sim.renderFrame(scene);
    EXPECT_GT(s.geometry_cycles, 0u);
    EXPECT_GT(s.raster_cycles, 0u);
    // Raster dominates for fragment-heavy frames.
    EXPECT_GT(s.raster_cycles, s.geometry_cycles);
}

// ---------------------------------------------------------------------------
// The memory logs' MRU-of-set fold (DESIGN.md section 12).
// ---------------------------------------------------------------------------

namespace {

/** A MemorySystem's counters as canonical JSON, for exact comparison. */
std::string
memStatsJson(const MemorySystem &mem)
{
    FrameStats s;
    s.mem = mem.stats();
    return frameStatsToJson(s).dump(2);
}

/**
 * Records a fetch stream into a TileMemLog and issues the same stream
 * one access at a time against a reference MemorySystem.
 */
struct LoggedStream {
    MemorySystem direct;
    Cycles direct_latency = 0;
    TileMemLog log{direct.config()};

    void
    fetch(unsigned unit, Addr addr)
    {
        log.textureFetch(unit, addr, 4);
        direct_latency += direct.textureFetch(unit, addr, 4).latency;
    }

    void
    param(Addr addr)
    {
        log.paramRead(addr, 8);
        direct_latency += direct.parameterRead(addr, 8).latency;
    }

    /** Replay @p replayed into a fresh hierarchy; it must match the
     *  direct stream's counters and latency sum. */
    void
    expectReplayMatches(const TileMemLog &replayed) const
    {
        MemorySystem mem;
        EXPECT_EQ(replayed.replay(mem), direct_latency);
        EXPECT_EQ(memStatsJson(mem), memStatsJson(direct));
    }
};

} // namespace

// A unit's fetch folds into the entry that last touched its line as
// long as no other line of that texture-cache set was touched by the
// unit in between: across other units' fetches, parameter reads and
// the unit's fetches of other sets, but not across another line of
// the same set (lines 4 KB apart share a set of the 8 KB 2-way cache).
// Both forms replay to the per-fetch stream.
TEST(TileMemLog, CoalescesSameLineFetchesPerUnit)
{
    const Addr base = AddressSpace::kTextureBase;
    const Addr same_set = base + 0x1000;
    LoggedStream st;
    st.fetch(0, base);            // entry 0: unit 0, line 0 (set 0)
    st.fetch(1, base + 0x1000);   // entry 1: unit 1
    st.fetch(0, base + 4);        // other unit in between: folds into 0
    st.param(AddressSpace::kParameterBase);
    st.fetch(0, base + 60);       // parameter read in between: folds
    st.fetch(0, base + 64);       // entry 3: unit 0, next line (set 1)
    st.fetch(0, base + 8);        // line 0 again, set 0 untouched: folds
    st.fetch(0, same_set);        // entry 4: unit 0, set 0's other line
    st.fetch(0, base + 12);       // entry 5: line 0, must not fold
    st.fetch(1, base + 0x1010);   // folds into entry 1
    st.fetch(2, base);            // entry 6: another unit, same line

    const std::vector<TileMemAccess> &log = st.log.accesses();
    ASSERT_EQ(log.size(), 7u);
    EXPECT_EQ(log[0].repeats, 3u);
    EXPECT_EQ(log[1].repeats, 1u);
    EXPECT_EQ(log[2].kind, TileMemAccess::Kind::ParamRead);
    EXPECT_EQ(log[3].repeats, 0u);
    EXPECT_EQ(log[4].addr, same_set);
    EXPECT_EQ(log[5].repeats, 0u);
    EXPECT_EQ(log[5].addr, base + 12);
    EXPECT_EQ(log[6].unit, 2u);
    EXPECT_EQ(st.log.uncoalesced().accesses().size(), 11u);

    st.expectReplayMatches(st.log);
    st.expectReplayMatches(st.log.uncoalesced());
}

// Randomized interleavings of four units over a few hot lines (so
// folds, conflict misses and L2 traffic all occur): the coalesced log
// replays to the same MemorySystemStats and latency sum as the
// per-fetch stream.
TEST(TileMemLog, CoalescedReplayMatchesPerFetchStream)
{
    Rng rng(90001);
    for (int round = 0; round < 20; ++round) {
        LoggedStream st;
        Addr last[4] = {};
        for (int i = 0; i < 4000; ++i) {
            const unsigned unit = static_cast<unsigned>(rng.nextBelow(4));
            const std::uint64_t pick = rng.nextBelow(100);
            Addr addr;
            if (pick < 60 && last[unit] != 0)
                addr = (last[unit] & ~Addr{63}) + 4 * rng.nextBelow(16);
            else if (pick < 95)
                addr = AddressSpace::kTextureBase +
                       4 * rng.nextBelow(64 * 1024);
            else
                addr = 0;
            if (addr == 0) {
                st.param(AddressSpace::kParameterBase +
                         8 * rng.nextBelow(4096));
                continue;
            }
            last[unit] = addr;
            st.fetch(unit, addr);
        }
        EXPECT_LT(st.log.accesses().size(), 3000u);
        st.expectReplayMatches(st.log);
    }
}

// Property: random frames of forced set collisions. A geometry segment
// of 36-byte vertex reads (some straddle a line) and Tile Cache writes
// of 4, 6 and 128 bytes, then tiles whose four units fetch texels, with
// parameter reads and framebuffer writes in between. Every stream draws
// from a few adjacent sets with more lines per set than the cache has
// ways, so folds, conflict misses, dirty write-backs and L2 traffic all
// occur. The folded logs, replayed geometry first, must match the same
// accesses issued one at a time: counters and latency sum.
TEST(MemLogFold, FoldedFrameReplaysLikeDirectStream)
{
    const MemorySystemConfig cfg;
    Rng rng(90001);
    // An address in one of 3 adjacent sets of @p cache, among @p tags
    // lines per set (lines size/ways apart share a set), 4-byte aligned;
    // 60% of the time in the line of @p last instead.
    auto pick = [&](Addr base, const CacheConfig &cache, unsigned tags,
                    Addr &last) {
        const Addr line = cache.line_bytes;
        if (last != 0 && rng.nextBelow(100) < 60)
            last = (last & ~(line - 1)) + 4 * rng.nextBelow(line / 4);
        else
            last = base + rng.nextBelow(tags) * (cache.size_bytes / cache.ways) +
                   rng.nextBelow(3) * line + 4 * rng.nextBelow(line / 4);
        return last;
    };
    std::uint64_t entries = 0, accesses = 0;
    for (int round = 0; round < 20; ++round) {
        MemorySystem direct(cfg);
        Cycles direct_latency = 0;
        GeometryMemLog geometry(cfg);
        Addr last_vertex = 0, last_param = 0;
        for (int i = 0; i < 3000; ++i) {
            if (rng.nextBelow(2) == 0) {
                const Addr a = pick(AddressSpace::kVertexBase + 64,
                                    cfg.vertex_cache, 3, last_vertex);
                geometry.vertexFetch(a, kVertexBytes);
                direct_latency += direct.vertexFetch(a, kVertexBytes).latency;
            } else {
                const unsigned sizes[] = {4, 6, 128};
                const unsigned bytes = sizes[rng.nextBelow(3)];
                const Addr a = pick(AddressSpace::kParameterBase,
                                    cfg.tile_cache, 10, last_param);
                geometry.parameterWrite(a, bytes);
                direct_latency += direct.parameterWrite(a, bytes).latency;
            }
        }
        accesses += geometry.uncoalesced().accesses().size();
        entries += geometry.accesses().size();

        std::vector<TileMemLog> tiles;
        for (int t = 0; t < 4; ++t) {
            TileMemLog &log = tiles.emplace_back(cfg);
            Addr last_texel[4] = {};
            for (int i = 0; i < 2000; ++i) {
                const std::uint64_t kind = rng.nextBelow(100);
                if (kind < 3) {
                    const Addr a = AddressSpace::kParameterBase +
                                   8 * rng.nextBelow(4096);
                    log.paramRead(a, 8);
                    direct_latency += direct.parameterRead(a, 8).latency;
                } else if (kind < 5) {
                    const Addr a = AddressSpace::framebufferAddr(
                        0, static_cast<int>(rng.nextBelow(64)), 608);
                    log.framebufferWrite(a, 64);
                    direct.framebufferWrite(a, 64);
                } else {
                    const auto unit = static_cast<unsigned>(rng.nextBelow(4));
                    const Addr a = pick(AddressSpace::kTextureBase,
                                        cfg.texture_cache, 3,
                                        last_texel[unit]);
                    log.textureFetch(unit, a, 4);
                    direct_latency += direct.textureFetch(unit, a, 4).latency;
                }
            }
            accesses += log.uncoalesced().accesses().size();
            entries += log.accesses().size();
        }

        MemorySystem mem(cfg);
        Cycles latency = geometry.replay(mem);
        for (const TileMemLog &log : tiles)
            latency += log.replay(mem);
        EXPECT_EQ(latency, direct_latency) << round;
        EXPECT_EQ(memStatsJson(mem), memStatsJson(direct)) << round;
        const MemorySystemStats m = direct.stats();
        EXPECT_GT(m.texture_caches.read_misses, 0u);
        EXPECT_GT(m.vertex_cache.read_misses, 0u);
        EXPECT_GT(m.tile_cache.writebacks, 0u);
    }
    EXPECT_LT(entries, accesses * 3 / 4); // the folds are real
}

// ---------------------------------------------------------------------------
// Tile-parallel failure handling.
// ---------------------------------------------------------------------------

namespace {

/** A visibility tracker whose tileStart throws for chosen tiles. */
class ThrowingTracker final : public TileVisibilityTracker
{
  public:
    explicit ThrowingTracker(std::vector<int> tiles)
        : tiles_(std::move(tiles))
    {
    }

    void
    tileStart(int tile, int, int, FrameStats &) override
    {
        if (std::find(tiles_.begin(), tiles_.end(), tile) != tiles_.end())
            throw std::runtime_error("tile " + std::to_string(tile));
    }
    void onOpaqueWrites(int, const std::uint32_t *, int, std::uint16_t,
                        bool, FrameStats &) override {}
    void tileEnd(int, const float *, int, FrameStats &) override {}
    void tileSkipped(int) override {}

  private:
    std::vector<int> tiles_;
};

} // namespace

// A tile that throws on a 4-job tile batch must not leave the replaying
// owner waiting for it (without the failure hand-off this test hangs
// until the ctest timeout): run() rethrows the lowest-index tile's
// error, and the pool and pipeline render the next frame normally.
TEST(TileParallelFailure, LowestThrowingTileIsRethrownAndPoolSurvives)
{
    GpuConfig gpu = tinyGpu(320, 192);
    SimConfig config = SimConfig::baseline(gpu);
    std::unique_ptr<Workload> workload = workloads::factory()("300", 320,
                                                              192);
    ASSERT_TRUE(workload);
    GpuSimulator sim(config);
    workload->setup(sim);
    const Scene scene = workload->frame(0);
    sim.renderFrame(scene); // bins the frame into sim's Parameter Buffer

    MemorySystem mem(config.gpu.mem);
    ShaderCore shader(mem.config());
    TimingModel timing(config.gpu);
    RasterPipeline raster(config.gpu, mem, shader, timing);
    JobPool pool(4);
    raster.setTileExecution(&pool, 4);
    Framebuffer fb(gpu.screen_width, gpu.screen_height);
    const int tiles = gpu.tileCount();

    for (int k : {0, 1, 101, tiles - 8, tiles - 1}) {
        for (int repeat = 0; repeat < 5; ++repeat) {
            ThrowingTracker tracker({std::min(k + 7, tiles - 1), k});
            RasterHooks hooks;
            hooks.tracker = &tracker;
            FrameStats stats;
            try {
                raster.run(scene, sim.parameterBuffer(), GeometryMemLog{},
                           fb, false, hooks, stats);
                ADD_FAILURE() << "tile " << k << " did not throw";
            } catch (const std::runtime_error &e) {
                EXPECT_EQ(std::string(e.what()),
                          "tile " + std::to_string(k));
            }
        }
    }

    ThrowingTracker none({});
    RasterHooks hooks;
    hooks.tracker = &none;
    FrameStats stats;
    raster.run(scene, sim.parameterBuffer(), GeometryMemLog{}, fb, true,
               hooks, stats);
    EXPECT_EQ(stats.tiles_total, static_cast<std::uint64_t>(tiles));
    EXPECT_EQ(stats.tiles_rendered, static_cast<std::uint64_t>(tiles));

    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs(8, [&] { ++ran; });
    pool.runBatch(std::move(jobs));
    EXPECT_EQ(ran.load(), 8);
}

// The same rethrow contract, on the ordered stream both parallel stages
// share, with a window far smaller than the stream (geometry's shape)
// and as large (the tiles'): whichever item throws, in produce or in
// produce_and_consume, the stream rethrows the lowest-index failure
// after consuming exactly the items before it, in order, no slot is
// reused before its item was consumed, and the pool keeps working.
TEST(TileParallelFailure, OrderedStreamRethrowsLowestFailingItem)
{
    JobPool pool(4);
    const int count = 200;
    for (int window : {3, count}) {
        for (int k : {0, 1, 57, count - 1}) {
            const int later = std::min(k + 7, count - 1);
            auto fail = [&](int item) {
                if (item == k || item == later)
                    throw std::runtime_error("item " + std::to_string(item));
            };
            for (int repeat = 0; repeat < 5; ++repeat) {
                std::vector<int> slots(static_cast<std::size_t>(window), -1);
                std::vector<int> consumed;
                OrderedStreamSteps steps;
                steps.produce = [&](int item) {
                    fail(item);
                    slots[static_cast<std::size_t>(item % window)] = item;
                };
                steps.consume = [&](int item) {
                    EXPECT_EQ(slots[static_cast<std::size_t>(item % window)],
                              item);
                    consumed.push_back(item);
                };
                steps.produce_and_consume = [&](int item) {
                    fail(item);
                    consumed.push_back(item);
                };
                try {
                    runOrderedStream(pool, 4, count, window, steps);
                    ADD_FAILURE() << "item " << k << " did not throw";
                } catch (const std::runtime_error &e) {
                    EXPECT_EQ(std::string(e.what()),
                              "item " + std::to_string(k));
                }
                std::vector<int> before(static_cast<std::size_t>(k));
                for (int i = 0; i < k; ++i)
                    before[static_cast<std::size_t>(i)] = i;
                EXPECT_EQ(consumed, before);
            }
        }
    }

    std::atomic<int> ran{0};
    std::vector<std::function<void()>> jobs(8, [&] { ++ran; });
    pool.runBatch(std::move(jobs));
    EXPECT_EQ(ran.load(), 8);
}

// ---------------------------------------------------------------------------
// Tile-parallel bit-identity property (DESIGN.md section 12).
// ---------------------------------------------------------------------------

namespace {

/**
 * CRCs of a frame's binning output: the Parameter Buffer's primitives,
 * every tile's render order and display-list entry addresses, and the
 * tile signatures Rendering Elimination built (rotated to "previous"
 * at frame end).
 */
std::string
binningDigest(const GpuSimulator &sim)
{
    const ParameterBuffer &pb = sim.parameterBuffer();
    Crc32 prims, orders, addrs, sigs;
    for (const ShadedPrimitive &p : pb.prims()) {
        prims.update(p.v, sizeof(p.v));
        prims.updateValue(p.state.texture);
        prims.updateValue(p.cmd_id);
        prims.updateValue(p.frame_index);
        prims.updateValue(p.z_near);
        prims.updateValue(p.attr_crc);
        prims.updateValue(p.attr_bytes);
        prims.updateValue(p.pb_addr);
    }
    for (int tile = 0; tile < pb.tileCount(); ++tile) {
        for (const DisplayListEntry &e : pb.renderOrder(tile)) {
            orders.updateValue(e.prim);
            orders.updateValue(e.layer);
            orders.updateValue(e.predicted_occluded);
        }
        for (Addr a : pb.entryAddrs(tile))
            addrs.updateValue(a);
        if (const RenderingElimination *re = sim.re()) {
            const SignatureBuffer &sb = re->signatureBuffer();
            sigs.updateValue(sb.previous(tile).crc);
            sigs.updateValue(sb.previous(tile).length);
        }
    }
    return "prims " + std::to_string(pb.prims().size()) + ":" +
           std::to_string(prims.value()) + " orders " +
           std::to_string(orders.value()) + " addrs " +
           std::to_string(addrs.value()) + " sigs " +
           std::to_string(sigs.value()) + "\n";
}

/** One identity leg: the RunResult, without host-timing fields, plus
 *  every frame's binningDigest. */
struct IdentityLeg {
    RunResult result;
    std::string binning;
};

/**
 * Simulate one (workload, config) run. With @p tile_jobs > 1 tiles and
 * geometry chunks run on @p pool (null: a pool the simulator owns); 1
 * is the serial leg.
 */
IdentityLeg
runIdentityLeg(const std::string &alias, const SimConfig &config,
               JobPool *pool, int tile_jobs)
{
    IdentityLeg leg;
    std::unique_ptr<Workload> workload =
        workloads::factory()(alias, 608, 384);
    if (!workload) {
        ADD_FAILURE() << "unknown workload " << alias;
        return leg;
    }
    GpuSimulator sim(config);
    sim.setTileExecution(pool, tile_jobs);
    workload->setup(sim);
    // Frame 1 predicts and skips from frame 0's FVP and signatures.
    for (int f = 0; f < 2; ++f) {
        sim.renderFrame(workload->frame(f));
        leg.binning += binningDigest(sim);
    }

    RunResult &r = leg.result;
    r.workload = alias;
    r.config = config.name;
    r.frames = 2;
    r.width = 608;
    r.height = 384;
    r.totals = sim.totals();
    r.energy = sim.energyOf(sim.totals());
    r.image_crc = sim.framebuffer().contentCrc();
    return leg;
}

/** What the identity legs compare: the RunResult JSON and the
 *  per-frame binning digests. */
std::string
identityJson(const IdentityLeg &leg)
{
    return leg.result.toJson(false).dump(2) + "\n" + leg.binning;
}

/** Every SimConfig the simulator offers. */
std::vector<SimConfig>
allConfigs(const GpuConfig &gpu)
{
    return {SimConfig::baseline(gpu),       SimConfig::renderingElimination(gpu),
            SimConfig::evr(gpu),            SimConfig::evrFilterOnly(gpu),
            SimConfig::evrReorderOnly(gpu), SimConfig::oracleZ(gpu),
            SimConfig::zPrepass(gpu)};
}

/** The six 3D workloads plus two 2D games (one with popups). */
std::vector<std::string>
identityAliases()
{
    std::vector<std::string> aliases = workloads::aliases3D();
    aliases.push_back("hay");
    aliases.push_back("wmw");
    return aliases;
}

} // namespace

// Every config of the six 3D workloads and two 2D games must produce a
// RunResult JSON — pixels, every stat counter, energy, image CRC — and
// per-frame binning output (Parameter Buffer primitives, render orders,
// entry addresses, tile signatures) byte-identical to the serial path
// when tiles and geometry chunks run with EVRSIM_TILE_JOBS=4
// on a pool of its own, and when each config's simulation is a job of
// an outer batch on a 2-thread pool that its tile batch then shares
// (the EVRSIM_JOBS shape: tile jobs queue behind whole simulations, so
// owners render many tiles themselves while others are stolen). This
// is the determinism contract of the parallel design: tile and chunk
// compute is pure, tile memory accesses replay in tile order, and
// chunks commit in submission order.
// Every config must also render baseline's image: the techniques only
// remove work whose result is never seen (on "300", frames 0-1 tie two
// Z-writers at a pixel's final depth, which the preloaded-depth configs
// must resolve first-wins like baseline).
// (tests/golden_stats_test.cpp pins the serial leg to checked-in
// results.)
TEST(TileParallelIdentity, AllConfigsMatchSerialByteForByte)
{
    GpuConfig gpu;
    gpu.screen_width = 608;
    gpu.screen_height = 384;
    const std::vector<SimConfig> configs = allConfigs(gpu);
    JobPool shared(2);
    for (const std::string &alias : identityAliases()) {
        std::vector<std::string> nested(configs.size());
        std::vector<std::function<void()>> sims;
        for (std::size_t i = 0; i < configs.size(); ++i)
            sims.emplace_back([&, i] {
                nested[i] = identityJson(
                    runIdentityLeg(alias, configs[i], &shared, 4));
            });
        shared.runBatch(std::move(sims));
        std::uint32_t baseline_crc = 0;
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const IdentityLeg serial =
                runIdentityLeg(alias, configs[i], nullptr, 1);
            const std::string ref = identityJson(serial);
            EXPECT_EQ(ref, identityJson(runIdentityLeg(alias, configs[i],
                                                       nullptr, 4)))
                << alias << "/" << configs[i].name << " (own pool)";
            EXPECT_EQ(ref, nested[i])
                << alias << "/" << configs[i].name << " (shared pool)";
            if (i == 0) // baseline
                baseline_crc = serial.result.image_crc;
            EXPECT_EQ(serial.result.image_crc, baseline_crc)
                << alias << "/" << configs[i].name << " image vs baseline";
        }
    }
}
