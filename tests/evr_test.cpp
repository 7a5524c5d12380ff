/**
 * @file
 * Tests for Early Visibility Resolution: the Layer Generator Table
 * rules, the FVP Table prediction rules (section III.C), the Layer
 * Buffer + ZR FVP-type resolution (Figure 3's two scenarios), Algorithm
 * 1 reordering (Figure 4's example), and the end-to-end behaviours the
 * paper claims — overshading reduction, RE improvement under hidden
 * motion, and scenario C/D safety from Table I.
 */
#include <gtest/gtest.h>

#include "evr/evr.hpp"
#include "support.hpp"

using namespace evrsim;
using namespace evrsim::test;

// ------------------------------------------------ LayerGeneratorTable --

TEST(LayerGeneratorTable, FirstCommandOpensLayerOne)
{
    LayerGeneratorTable lgt(4);
    lgt.frameStart();
    EXPECT_EQ(lgt.assign(0, 0, false), 1u);
    LayerGeneratorTable lgt2(4);
    lgt2.frameStart();
    EXPECT_EQ(lgt2.assign(0, 0, true), 1u);
}

TEST(LayerGeneratorTable, SameCommandSameLayer)
{
    LayerGeneratorTable lgt(1);
    lgt.frameStart();
    EXPECT_EQ(lgt.assign(0, 5, false), 1u);
    EXPECT_EQ(lgt.assign(0, 5, false), 1u);
    EXPECT_EQ(lgt.assign(0, 5, false), 1u);
}

TEST(LayerGeneratorTable, NwozCommandsAlwaysIncrement)
{
    LayerGeneratorTable lgt(1);
    lgt.frameStart();
    EXPECT_EQ(lgt.assign(0, 0, false), 1u);
    EXPECT_EQ(lgt.assign(0, 1, false), 2u);
    EXPECT_EQ(lgt.assign(0, 2, false), 3u);
}

TEST(LayerGeneratorTable, ConsecutiveWozBatchesShareLayer)
{
    // Visibility among WOZ batches is resolved by depth, so a WOZ batch
    // following another WOZ batch reuses its layer.
    LayerGeneratorTable lgt(1);
    lgt.frameStart();
    EXPECT_EQ(lgt.assign(0, 0, true), 1u);
    EXPECT_EQ(lgt.assign(0, 1, true), 1u);
    EXPECT_EQ(lgt.assign(0, 2, true), 1u);
}

TEST(LayerGeneratorTable, WozAfterNwozIncrements)
{
    LayerGeneratorTable lgt(1);
    lgt.frameStart();
    EXPECT_EQ(lgt.assign(0, 0, false), 1u); // NWOZ background
    EXPECT_EQ(lgt.assign(0, 1, true), 2u);  // WOZ scene
    EXPECT_EQ(lgt.assign(0, 2, true), 2u);  // more WOZ: same layer
    EXPECT_EQ(lgt.assign(0, 3, false), 3u); // NWOZ HUD
    EXPECT_EQ(lgt.assign(0, 4, true), 4u);  // WOZ after the HUD
}

TEST(LayerGeneratorTable, MixedTypesWithinInterleavedCommands)
{
    // A WOZ command interleaved between two uses of an NWOZ command id
    // still tracks the *last* primitive type per tile.
    LayerGeneratorTable lgt(1);
    lgt.frameStart();
    EXPECT_EQ(lgt.assign(0, 0, true), 1u);
    EXPECT_EQ(lgt.assign(0, 0, false), 1u); // same command: same layer
    // Next WOZ command sees last_type = NWOZ -> increments.
    EXPECT_EQ(lgt.assign(0, 1, true), 2u);
}

TEST(LayerGeneratorTable, TilesAreIndependent)
{
    LayerGeneratorTable lgt(2);
    lgt.frameStart();
    EXPECT_EQ(lgt.assign(0, 0, false), 1u);
    EXPECT_EQ(lgt.assign(0, 1, false), 2u);
    // Tile 1 only sees command 1: its counter is at 1.
    EXPECT_EQ(lgt.assign(1, 1, false), 1u);
}

TEST(LayerGeneratorTable, FrameStartResetsCounters)
{
    LayerGeneratorTable lgt(1);
    lgt.frameStart();
    lgt.assign(0, 0, false);
    lgt.assign(0, 1, false);
    lgt.frameStart();
    EXPECT_EQ(lgt.assign(0, 0, false), 1u);
}

// ------------------------------------------------------------ FvpTable --

TEST(FvpTable, InvalidEntryPredictsVisible)
{
    FvpTable fvp(2);
    EXPECT_FALSE(fvp.predictOccluded(0, true, 0.99f, 1));
    EXPECT_FALSE(fvp.predictOccluded(0, false, 0.99f, 1));
}

TEST(FvpTable, NwozRuleComparesLayers)
{
    FvpTable fvp(1);
    fvp.storeNwoz(0, 3);
    // Strictly lower layer: under an opaque cover -> occluded.
    EXPECT_TRUE(fvp.predictOccluded(0, false, 0.5f, 2));
    EXPECT_TRUE(fvp.predictOccluded(0, true, 0.5f, 1));
    // Equal or higher: visible.
    EXPECT_FALSE(fvp.predictOccluded(0, false, 0.5f, 3));
    EXPECT_FALSE(fvp.predictOccluded(0, false, 0.5f, 4));
}

TEST(FvpTable, WozRuleComparesDepths)
{
    FvpTable fvp(1);
    fvp.storeWoz(0, 0.6f);
    // Farther than Z_far and depth-comparable -> occluded.
    EXPECT_TRUE(fvp.predictOccluded(0, true, 0.7f, 5));
    // Nearer or equal -> visible.
    EXPECT_FALSE(fvp.predictOccluded(0, true, 0.6f, 5));
    EXPECT_FALSE(fvp.predictOccluded(0, true, 0.2f, 5));
    // NWOZ primitives cannot be compared against a depth FVP.
    EXPECT_FALSE(fvp.predictOccluded(0, false, 0.9f, 5));
}

TEST(FvpTable, ResetInvalidatesEverything)
{
    FvpTable fvp(2);
    fvp.storeNwoz(0, 5);
    fvp.storeWoz(1, 0.5f);
    fvp.reset();
    EXPECT_FALSE(fvp.valid(0));
    EXPECT_FALSE(fvp.predictOccluded(0, false, 0.0f, 1));
    EXPECT_FALSE(fvp.predictOccluded(1, true, 1.0f, 1));
}

TEST(FvpTable, StoreOverwritesTypeAndValue)
{
    FvpTable fvp(1);
    fvp.storeNwoz(0, 4);
    EXPECT_FALSE(fvp.isWozType(0));
    fvp.storeWoz(0, 0.25f);
    EXPECT_TRUE(fvp.isWozType(0));
    EXPECT_FLOAT_EQ(fvp.zFar(0), 0.25f);
}

// --------------------------------------------------------- LayerBuffer --

TEST(LayerBuffer, StartsAtZeroWithNoZr)
{
    LayerBuffer lb(16);
    lb.tileStart(4, 4);
    EXPECT_EQ(lb.computeLFar(), 0u);
    EXPECT_EQ(lb.zr(), LayerBuffer::kNoZr);
}

namespace {

/** One opaque write at tile-local (x, y). */
void
writeOpaque(LayerBuffer &lb, int x, int y, std::uint16_t layer, bool is_woz)
{
    const auto pixel = static_cast<std::uint32_t>(y * lb.width() + x);
    lb.opaqueWrites(&pixel, 1, layer, is_woz);
}

} // namespace

TEST(LayerBuffer, OpaqueWritesTrackVisibleLayer)
{
    LayerBuffer lb(16);
    lb.tileStart(2, 2);
    writeOpaque(lb, 0, 0, 1, false);
    writeOpaque(lb, 1, 0, 1, false);
    writeOpaque(lb, 0, 1, 1, false);
    writeOpaque(lb, 1, 1, 1, false);
    writeOpaque(lb, 0, 0, 3, false); // overwritten by a later layer
    EXPECT_EQ(lb.layerAt(0, 0), 3u);
    EXPECT_EQ(lb.computeLFar(), 1u);
}

TEST(LayerBuffer, UncoveredPixelPinsLFarToZero)
{
    LayerBuffer lb(16);
    lb.tileStart(2, 2);
    writeOpaque(lb, 0, 0, 5, false);
    writeOpaque(lb, 1, 0, 5, false);
    writeOpaque(lb, 0, 1, 5, false);
    // (1,1) never written: conservative L_far = 0.
    EXPECT_EQ(lb.computeLFar(), 0u);
}

TEST(LayerBuffer, ZrLatchesOnlyWozWrites)
{
    LayerBuffer lb(16);
    lb.tileStart(2, 1);
    writeOpaque(lb, 0, 0, 2, false);
    EXPECT_EQ(lb.zr(), LayerBuffer::kNoZr);
    writeOpaque(lb, 1, 0, 3, true);
    EXPECT_EQ(lb.zr(), 3u);
    writeOpaque(lb, 0, 0, 4, false);
    EXPECT_EQ(lb.zr(), 3u); // NWOZ writes do not touch ZR
}

TEST(LayerBuffer, BatchedWritesLatchZrOnlyWhenNonEmpty)
{
    LayerBuffer lb(16);
    lb.tileStart(4, 2);
    const std::uint32_t pixels[3] = {0, 5, 7};
    lb.opaqueWrites(pixels, 0, 6, true);
    EXPECT_EQ(lb.zr(), LayerBuffer::kNoZr);
    lb.opaqueWrites(pixels, 3, 6, true);
    EXPECT_EQ(lb.zr(), 6u);
    EXPECT_EQ(lb.layerAt(0, 0), 6u);
    EXPECT_EQ(lb.layerAt(1, 1), 6u);
    EXPECT_EQ(lb.layerAt(3, 1), 6u);
    EXPECT_EQ(lb.layerAt(1, 0), 0u);
}

// ------------------------------------- Figure 3: FVP-type resolution --

namespace {

/** Drive the raster-side tracker directly over a tiny "tile". */
class FvpResolution : public ::testing::Test
{
  protected:
    FvpResolution() : evr(1, 4) {}

    /** One opaque write at pixel @p x of the one-row tile 0. */
    void
    writeOpaque(int x, std::uint16_t layer, bool is_woz)
    {
        const auto pixel = static_cast<std::uint32_t>(x);
        evr.onOpaqueWrites(0, &pixel, 1, layer, is_woz, stats);
    }

    EarlyVisibilityResolution evr;
    FrameStats stats;
};

} // namespace

TEST_F(FvpResolution, Figure3aNwozFvp)
{
    // 4-pixel tile. Layer 1 fully covered by layer 2; layer 2 covered
    // by layers 3 (pixels 0-2) and 4 (pixel 3). All NWOZ. The farthest
    // visible layer is 3 and it is NWOZ, so FVP = L_far = 3.
    evr.tileStart(0, 4, 1, stats);
    for (int x = 0; x < 4; ++x)
        writeOpaque(x, 1, false);
    for (int x = 0; x < 4; ++x)
        writeOpaque(x, 2, false);
    for (int x = 0; x < 3; ++x)
        writeOpaque(x, 3, false);
    writeOpaque(3, 4, false);

    const float depth[4] = {1, 1, 1, 1}; // Z Buffer untouched by NWOZ
    evr.tileEnd(0, depth, 4, stats);

    EXPECT_TRUE(evr.fvpTable().valid(0));
    EXPECT_FALSE(evr.fvpTable().isWozType(0));
    EXPECT_EQ(evr.fvpTable().lFar(0), 3u);
}

TEST_F(FvpResolution, Figure3bWozFvp)
{
    // Layer 1 is a WOZ batch whose visible depths end up {0, 0.5}; a
    // later NWOZ layer 2 covers pixel 0 only. L_far = 1 belongs to the
    // WOZ batch (ZR == L_far), so the FVP is Z_far = 0.5.
    evr.tileStart(0, 2, 1, stats);
    writeOpaque(0, 1, true); // z = 1.0 first...
    writeOpaque(0, 1, true); // ...then z = 0 wins
    writeOpaque(1, 1, true); // z = 0.5
    writeOpaque(0, 2, false); // NWOZ cover on pixel 0

    const float depth[2] = {0.0f, 0.5f};
    evr.tileEnd(0, depth, 2, stats);

    EXPECT_TRUE(evr.fvpTable().isWozType(0));
    EXPECT_FLOAT_EQ(evr.fvpTable().zFar(0), 0.5f);
}

TEST_F(FvpResolution, NwozOnTopMakesFvpNwozEvenWithWozBelow)
{
    // WOZ batch covered everywhere by a later NWOZ layer: L_far is the
    // NWOZ layer, ZR != L_far, so the FVP must be the layer.
    evr.tileStart(0, 2, 1, stats);
    writeOpaque(0, 1, true);
    writeOpaque(1, 1, true);
    writeOpaque(0, 2, false);
    writeOpaque(1, 2, false);

    const float depth[2] = {0.3f, 0.4f};
    evr.tileEnd(0, depth, 2, stats);
    EXPECT_FALSE(evr.fvpTable().isWozType(0));
    EXPECT_EQ(evr.fvpTable().lFar(0), 2u);
}

TEST_F(FvpResolution, SkippedTileKeepsPreviousEntry)
{
    evr.mutableFvpTable().storeNwoz(0, 7);
    evr.tileSkipped(0);
    EXPECT_TRUE(evr.fvpTable().valid(0));
    EXPECT_EQ(evr.fvpTable().lFar(0), 7u);
}

// ------------------------------------ Algorithm 1 (Figure 4) ordering --

namespace {

/** Feed primitives through onBin against a controlled FVP table. */
class Algorithm1 : public ::testing::Test
{
  protected:
    Algorithm1() : evr(1, 16)
    {
        evr.frameStart();
    }

    ShadedPrimitive
    prim(std::uint32_t cmd, bool woz, float z_near)
    {
        ShadedPrimitive p;
        p.cmd_id = cmd;
        p.state.depth_write = woz;
        p.state.depth_test = woz;
        p.state.blend = BlendMode::Opaque;
        p.z_near = z_near;
        p.v[0].depth = p.v[1].depth = p.v[2].depth = z_near;
        return p;
    }

    EarlyVisibilityResolution evr;
    FrameStats stats;
};

} // namespace

TEST_F(Algorithm1, Figure4Reordering)
{
    // FVP of the previous frame: a WOZ depth of 0.5.
    evr.mutableFvpTable().storeWoz(0, 0.5f);

    // Batch 1: NWOZ (2 prims) -> first list.
    BinDecision d1 = evr.onBin(prim(0, false, 0.1f), 0, stats);
    BinDecision d2 = evr.onBin(prim(0, false, 0.1f), 0, stats);
    EXPECT_FALSE(d1.to_second_list);
    EXPECT_FALSE(d2.to_second_list);

    // Batch 2: WOZ with one predicted-visible (z 0.3) and one
    // predicted-occluded (z 0.7) primitive.
    BinDecision d3 = evr.onBin(prim(1, true, 0.3f), 0, stats);
    BinDecision d4 = evr.onBin(prim(1, true, 0.7f), 0, stats);
    EXPECT_FALSE(d3.predicted_occluded);
    EXPECT_FALSE(d3.to_second_list);
    EXPECT_TRUE(d4.predicted_occluded);
    EXPECT_TRUE(d4.to_second_list);

    // Batch 3: NWOZ -> must splice the second list back first.
    BinDecision d5 = evr.onBin(prim(2, false, 0.1f), 0, stats);
    EXPECT_TRUE(d5.move_second_to_first);
    EXPECT_FALSE(d5.to_second_list);

    // Batch 4: WOZ again; occluded prims go to the (new) second list.
    BinDecision d6 = evr.onBin(prim(3, true, 0.9f), 0, stats);
    EXPECT_TRUE(d6.to_second_list);
}

TEST_F(Algorithm1, ReorderingDisabledKeepsEverythingInOrder)
{
    EvrConfig cfg;
    cfg.reorder = false;
    EarlyVisibilityResolution no_reorder(1, 16, cfg);
    no_reorder.frameStart();
    no_reorder.mutableFvpTable().storeWoz(0, 0.5f);

    BinDecision d = no_reorder.onBin(prim(0, true, 0.9f), 0, stats);
    // Still predicted (for the RE filter) but never rescheduled.
    EXPECT_TRUE(d.predicted_occluded);
    EXPECT_FALSE(d.to_second_list);
    EXPECT_FALSE(d.move_second_to_first);
}

TEST_F(Algorithm1, TranslucentWozIsNeverReordered)
{
    evr.mutableFvpTable().storeWoz(0, 0.5f);
    ShadedPrimitive p = prim(0, true, 0.9f);
    p.state.blend = BlendMode::Alpha; // blending is order-dependent
    BinDecision d = evr.onBin(p, 0, stats);
    EXPECT_FALSE(d.to_second_list);
}

TEST_F(Algorithm1, DepthWriteWithoutTestIsNotDepthPredicted)
{
    evr.mutableFvpTable().storeWoz(0, 0.5f);
    ShadedPrimitive p = prim(0, true, 0.9f);
    p.state.depth_test = false; // draws unconditionally
    BinDecision d = evr.onBin(p, 0, stats);
    EXPECT_FALSE(d.predicted_occluded);
}

TEST_F(Algorithm1, LayerRulePredictsAnyPrimitiveType)
{
    evr.mutableFvpTable().storeNwoz(0, 3);
    // Layer 1 (first command) < L_far = 3: occluded, for both types.
    BinDecision woz = evr.onBin(prim(0, true, 0.2f), 0, stats);
    EXPECT_TRUE(woz.predicted_occluded);

    EarlyVisibilityResolution evr2(1, 16);
    evr2.frameStart();
    evr2.mutableFvpTable().storeNwoz(0, 3);
    BinDecision nwoz = evr2.onBin(prim(0, false, 0.2f), 0, stats);
    EXPECT_TRUE(nwoz.predicted_occluded);
}

// -------------------------------------------- End-to-end behaviours --

namespace {

RenderState
woz()
{
    RenderState s;
    s.depth_test = true;
    s.depth_write = true;
    return s;
}

RenderState
nwoz()
{
    RenderState s;
    s.depth_test = false;
    s.depth_write = false;
    return s;
}

/** Run the same frame function through two configs; return both sims. */
template <typename FrameFn>
void
runFrames(GpuSimulator &sim, Mesh &quad, FrameFn &&fn, int frames)
{
    (void)quad;
    for (int i = 0; i < frames; ++i)
        sim.renderFrame(fn(i));
}

} // namespace

TEST(EvrEndToEnd, ReorderEliminatesOvershadingFromSecondFrame)
{
    // Far-then-near opaque stack; static across frames.
    GpuSimulator sim(SimConfig::evrReorderOnly(tinyGpu()));
    Mesh quad = meshes::quad({1, 1, 1, 1});
    sim.uploadMesh(quad);

    auto frame = [&] {
        Scene s;
        setCamera2D(s, 64, 48);
        submitRect(s, &quad, 0, 0, 63, 47, 0.8f, woz()).tint = {0, 1, 0, 1};
        submitRect(s, &quad, 0, 0, 63, 47, 0.2f, woz()).tint = {1, 0, 0, 1};
        return s;
    };

    FrameStats f0 = sim.renderFrame(frame());
    // Frame 0: no FVP information yet -> behaves like baseline.
    EXPECT_EQ(f0.early_z_kills, 0u);
    std::uint64_t f0_shaded = f0.fragments_shaded;

    FrameStats f1 = sim.renderFrame(frame());
    // Frame 1: the far quad is predicted occluded, rendered last, and
    // killed by the Early-Z test.
    EXPECT_GT(f1.early_z_kills, 0u);
    EXPECT_LT(f1.fragments_shaded, f0_shaded);
    EXPECT_GT(f1.prims_predicted_occluded, 0u);
    EXPECT_EQ(f1.pred_occluded_wrong, 0u);
}

TEST(EvrEndToEnd, HiddenMotionUnderCoverSkipsWithEvrButNotRe)
{
    // The paper's key RE-improvement scenario: a sprite animates under
    // a static opaque cover. Plain RE sees a changing signature every
    // frame; EVR excludes the hidden sprite and skips the tile.
    auto frame_fn = [](Mesh *quad, int i) {
        Scene s;
        setCamera2D(s, 64, 48);
        // Static NWOZ background.
        submitRect(s, quad, 0, 0, 64, 48, 0.9f, nwoz()).tint = {0, 0, 1, 1};
        // Animated sprite (changes tint each frame).
        submitRect(s, quad, 4, 4, 8, 8, 0.5f, nwoz()).tint = {
            0.2f + 0.05f * (i % 10), 0, 0, 1};
        // Full-screen opaque NWOZ cover (a menu).
        submitRect(s, quad, 0, 0, 64, 48, 0.1f, nwoz()).tint = {
            0.3f, 0.3f, 0.3f, 1};
        return s;
    };

    GpuSimulator re_sim(SimConfig::renderingElimination(tinyGpu()));
    Mesh q1 = meshes::quad({1, 1, 1, 1});
    re_sim.uploadMesh(q1);

    GpuSimulator evr_sim(SimConfig::evr(tinyGpu()));
    Mesh q2 = meshes::quad({1, 1, 1, 1});
    evr_sim.uploadMesh(q2);

    FrameStats re_last, evr_last;
    for (int i = 0; i < 4; ++i) {
        re_last = re_sim.renderFrame(frame_fn(&q1, i));
        evr_last = evr_sim.renderFrame(frame_fn(&q2, i));
    }

    // RE cannot skip the sprite's tile; EVR skips all 12 tiles.
    EXPECT_LT(re_last.tiles_skipped_re, 12u);
    EXPECT_EQ(evr_last.tiles_skipped_re, 12u);
    // And the displayed image is identical.
    EXPECT_TRUE(evr_sim.framebuffer().equals(re_sim.framebuffer()));
}

TEST(EvrEndToEnd, HiddenWozMotionBehindNearWallSkips)
{
    // WOZ variant: a near wall (z=0.2) covers a moving far object
    // (z=0.8). The FVP is a Z value; the far object's z_near exceeds it.
    auto frame_fn = [](Mesh *quad, int i) {
        Scene s;
        setCamera2D(s, 64, 48);
        submitRect(s, quad, static_cast<float>(8 + (i % 5)), 8, 10, 10,
                   0.8f, woz())
            .tint = {1, 0, 0, 1};
        submitRect(s, quad, 0, 0, 64, 48, 0.2f, woz()).tint = {0, 1, 0, 1};
        return s;
    };

    GpuSimulator evr_sim(SimConfig::evr(tinyGpu()));
    Mesh q = meshes::quad({1, 1, 1, 1});
    evr_sim.uploadMesh(q);

    GpuSimulator re_sim(SimConfig::renderingElimination(tinyGpu()));
    Mesh q2 = meshes::quad({1, 1, 1, 1});
    re_sim.uploadMesh(q2);

    FrameStats evr_last, re_last;
    for (int i = 0; i < 4; ++i) {
        evr_last = evr_sim.renderFrame(frame_fn(&q, i));
        re_last = re_sim.renderFrame(frame_fn(&q2, i));
    }
    EXPECT_EQ(evr_last.tiles_skipped_re, 12u);
    EXPECT_LT(re_last.tiles_skipped_re, 12u);
    EXPECT_TRUE(evr_sim.framebuffer().equals(re_sim.framebuffer()));
}

TEST(EvrEndToEnd, ScenarioDOccluderRemovalRerendersCorrectly)
{
    // Table I scenario D: a primitive occluded in frame i becomes
    // visible in frame i+1 because its occluder disappears. The tile
    // must re-render (the occluder was part of the old signature) and
    // the image must match a baseline render.
    auto frame_fn = [](Mesh *quad, int i) {
        Scene s;
        setCamera2D(s, 64, 48);
        submitRect(s, quad, 0, 0, 64, 48, 0.9f, nwoz()).tint = {0, 0, 1, 1};
        submitRect(s, quad, 4, 4, 8, 8, 0.5f, nwoz()).tint = {1, 1, 0, 1};
        if (i < 3) { // cover disappears at frame 3
            submitRect(s, quad, 0, 0, 64, 48, 0.1f, nwoz()).tint = {
                0.3f, 0.3f, 0.3f, 1};
        }
        return s;
    };

    GpuSimulator evr_sim(SimConfig::evr(tinyGpu()));
    Mesh q = meshes::quad({1, 1, 1, 1});
    evr_sim.uploadMesh(q);

    GpuSimulator base_sim(SimConfig::baseline(tinyGpu()));
    Mesh q2 = meshes::quad({1, 1, 1, 1});
    base_sim.uploadMesh(q2);

    for (int i = 0; i < 5; ++i) {
        evr_sim.renderFrame(frame_fn(&q, i));
        base_sim.renderFrame(frame_fn(&q2, i));
        ASSERT_TRUE(evr_sim.framebuffer().equals(base_sim.framebuffer()))
            << "divergence at frame " << i;
    }
}

TEST(EvrEndToEnd, CasuistryScenarioCIsCounted)
{
    // The hidden animated sprite produces OccludedOccluded pairs once
    // the FVP is warm — but only on *rendered* tiles, so disable RE
    // (EVR-reorder-only) to keep the tile rendering.
    GpuSimulator sim(SimConfig::evrReorderOnly(tinyGpu()));
    Mesh q = meshes::quad({1, 1, 1, 1});
    sim.uploadMesh(q);

    auto frame_fn = [&](int i) {
        Scene s;
        setCamera2D(s, 64, 48);
        submitRect(s, &q, 0, 0, 64, 48, 0.9f, nwoz()).tint = {0, 0, 1, 1};
        submitRect(s, &q, 4, 4, 8, 8, 0.5f, nwoz()).tint = {
            0.2f + 0.05f * (i % 10), 0, 0, 1};
        submitRect(s, &q, 0, 0, 64, 48, 0.1f, nwoz()).tint = {0.3f, 0.3f,
                                                              0.3f, 1};
        return s;
    };

    sim.renderFrame(frame_fn(0));
    FrameStats s1 = sim.renderFrame(frame_fn(1));
    int c = static_cast<int>(Casuistry::OccludedOccluded);
    EXPECT_GT(s1.casuistry[c], 0u);
    EXPECT_EQ(s1.pred_occluded_wrong, 0u);
}

TEST(EvrEndToEnd, EvrStructureAccessesAreCounted)
{
    GpuSimulator sim(SimConfig::evr(tinyGpu()));
    Mesh q = meshes::quad({1, 1, 1, 1});
    sim.uploadMesh(q);
    Scene s;
    setCamera2D(s, 64, 48);
    submitRect(s, &q, 0, 0, 64, 48, 0.5f, woz());
    FrameStats f = sim.renderFrame(s);
    EXPECT_GT(f.lgt_accesses, 0u);
    EXPECT_GT(f.fvp_table_accesses, 0u);
    EXPECT_GT(f.layer_buffer_accesses, 0u);
    EXPECT_GT(f.layer_param_bytes, 0u);
    // One LGT access per (prim, tile) pair.
    EXPECT_EQ(f.lgt_accesses, f.bin_tile_pairs);
}
