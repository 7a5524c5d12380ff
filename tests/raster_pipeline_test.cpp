/**
 * @file
 * Unit tests for the Raster Pipeline driven through the simulator
 * facade: clears, depth-test semantics (early and late), painter's
 * algorithm for NWOZ primitives, alpha blending, shader discard, the
 * Figure 8 oracle mode, per-tile flush accounting and ground-truth
 * visibility statistics — plus the tile-parallel/SIMD bit-identity
 * property over the full workload registry.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "driver/run_result.hpp"
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
// Tile-parallel bit-identity property (DESIGN.md section 12).
// ---------------------------------------------------------------------------

namespace {

/**
 * Simulate one (workload, config) run and return its RunResult JSON
 * without host-timing fields. @p reference selects the serial leg;
 * otherwise tiles render on a 4-worker pool.
 */
std::string
runIdentityLeg(const std::string &alias, const SimConfig &config,
               bool reference)
{
    std::unique_ptr<Workload> workload =
        workloads::factory()(alias, 608, 384);
    if (!workload) {
        ADD_FAILURE() << "unknown workload " << alias;
        return {};
    }
    GpuSimulator sim(config);
    if (!reference)
        sim.setTileExecution(nullptr, 4);
    workload->setup(sim);
    sim.renderFrame(workload->frame(0)); // warm-up (FVP / signatures)
    sim.resetTotals();
    for (int f = 1; f <= 2; ++f)
        sim.renderFrame(workload->frame(f));

    RunResult r;
    r.workload = alias;
    r.config = config.name;
    r.frames = 2;
    r.width = 608;
    r.height = 384;
    r.totals = sim.totals();
    r.energy = sim.energyOf(sim.totals());
    r.image_crc = sim.framebuffer().contentCrc();
    return r.toJson(false).dump(2);
}

} // namespace

// Every Table III workload, under both the baseline and the EVR
// configuration, rendered with EVRSIM_TILE_JOBS=4 must produce a
// RunResult JSON — pixels, every stat counter, energy, image CRC —
// byte-identical to serial tiles. This is the determinism contract of
// the tile-parallel design: tile compute is pure and memory accesses
// replay serially in tile order. (tests/golden_stats_test.cpp pins the
// serial leg to checked-in results.)
TEST(TileParallelIdentity, AllWorkloadsMatchScalarSerialByteForByte)
{
    GpuConfig gpu;
    gpu.screen_width = 608;
    gpu.screen_height = 384;
    for (const std::string &alias : workloads::allAliases()) {
        for (const SimConfig &config :
             {SimConfig::baseline(gpu), SimConfig::evr(gpu)}) {
            std::string ref = runIdentityLeg(alias, config, true);
            std::string fast = runIdentityLeg(alias, config, false);
            EXPECT_EQ(ref, fast) << alias << "/" << config.name;
        }
    }
}
