/**
 * @file
 * Unit tests for the Geometry Pipeline: vertex fetch/shade accounting,
 * near-plane clipping, backface culling, viewport rejection, binning
 * into display lists, Parameter Buffer layout and signature CRC inputs,
 * and the frame's geometry memory log.
 */
#include <gtest/gtest.h>

#include "common/job_pool.hpp"
#include "driver/run_result.hpp"
#include "gpu/geometry_pipeline.hpp"
#include "support.hpp"

using namespace evrsim;
using namespace evrsim::test;

namespace {

/** Run the geometry pipeline over a scene and replay its memory log
 *  into @p mem, as a frame does; returns the stats. */
FrameStats
runGeometry(const GpuConfig &gpu, MemorySystem &mem, const Scene &scene,
            ParameterBuffer &pb, const GeometryHooks &hooks = {})
{
    FrameStats stats;
    pb.beginFrame(gpu.tileCount(), mem.addressSpace());
    GeometryPipeline geom(gpu);
    geom.run(scene, pb, hooks, stats);
    stats.geom_mem_latency += geom.memLog().replay(mem);
    return stats;
}

/** A MemorySystem's counters as canonical JSON, for exact comparison. */
std::string
memStatsJson(const MemorySystem &mem)
{
    FrameStats s;
    s.mem = mem.stats();
    return frameStatsToJson(s).dump(2);
}

/** Fixture owning a small GPU and a quad mesh ready to draw. */
class GeometryTest : public ::testing::Test
{
  protected:
    GeometryTest() : gpu(tinyGpu()), mem(gpu.mem)
    {
        quad = meshes::quad({1, 1, 1, 1});
        quad.buffer_base = mem.addressSpace().allocVertex(
            quad.vertices.size() * kVertexBytes);
        scene2d();
    }

    void
    scene2d()
    {
        scene = Scene{};
        setCamera2D(scene, gpu.screen_width, gpu.screen_height);
    }

    void
    scene3d()
    {
        scene = Scene{};
        setCamera3D(scene, {0, 0, 5}, {0, 0, 0}, 60.0f,
                    static_cast<float>(gpu.screen_width) /
                        gpu.screen_height);
    }

    GpuConfig gpu;
    MemorySystem mem;
    Mesh quad;
    Scene scene;
    ParameterBuffer pb;
};

} // namespace

TEST_F(GeometryTest, QuadProducesTwoBinnedPrims)
{
    submitRect(scene, &quad, 4, 4, 8, 8, 0.5f, RenderState{});
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_EQ(s.prims_submitted, 2u);
    EXPECT_EQ(s.prims_binned, 2u);
    EXPECT_EQ(s.draw_commands, 1u);
    EXPECT_EQ(pb.prims().size(), 2u);
    // The 8x8 quad at (4,4) falls entirely inside tile (0,0).
    EXPECT_EQ(s.bin_tile_pairs, 2u);
    EXPECT_EQ(pb.firstList(0).size(), 2u);
}

TEST_F(GeometryTest, QuadSpanningTilesBinnedToEach)
{
    // 64x48 screen with 16px tiles = 4x3 tiles. A quad covering the top
    // two tile rows spans 8 tiles; each tile holds at least one of the
    // quad's two triangles (both only where the diagonal crosses it —
    // the binner is exact, not bbox-based).
    submitRect(scene, &quad, 0, 0, 64, 32, 0.5f, RenderState{});
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_GE(s.bin_tile_pairs, 8u);
    EXPECT_LE(s.bin_tile_pairs, 16u);
    for (int tile = 0; tile < 8; ++tile)
        EXPECT_GE(pb.firstList(tile).size(), 1u) << "tile " << tile;
    for (int tile = 8; tile < 12; ++tile)
        EXPECT_TRUE(pb.firstList(tile).empty()) << "tile " << tile;
}

TEST_F(GeometryTest, DiagonalTriangleNotBinnedToUntouchedCorner)
{
    // A triangle covering the upper-left half of the screen must not be
    // binned into the bottom-right corner tile even though its bounding
    // box covers the whole screen.
    Mesh tri;
    tri.vertices = {
        {{0, 0, 0.5f}, {1, 1, 1, 1}, {0, 0}},
        {{64, 0, 0.5f}, {1, 1, 1, 1}, {1, 0}},
        {{0, 48, 0.5f}, {1, 1, 1, 1}, {0, 1}},
    };
    tri.indices = {0, 1, 2};
    tri.buffer_base = mem.addressSpace().allocVertex(3 * kVertexBytes);

    scene.submit(&tri, Mat4::identity(), RenderState{});
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_EQ(s.prims_binned, 1u);
    // Bottom-right tile (3, 2) = index 11 must be empty.
    EXPECT_TRUE(pb.firstList(11).empty());
    // Top-left tile must have it.
    EXPECT_EQ(pb.firstList(0).size(), 1u);
}

TEST_F(GeometryTest, OffscreenPrimitiveRejected)
{
    submitRect(scene, &quad, 200, 200, 8, 8, 0.5f, RenderState{});
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_EQ(s.prims_binned, 0u);
    EXPECT_EQ(s.prims_clipped_away, 2u);
}

TEST_F(GeometryTest, VertexFetchUsesPostTransformCache)
{
    // A quad has 4 unique vertices referenced by 6 indices: the
    // post-transform cache must limit shading to 4.
    submitRect(scene, &quad, 4, 4, 8, 8, 0.5f, RenderState{});
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_EQ(s.vertices_shaded, 4u);
    EXPECT_EQ(s.vertices_fetched, 4u);
}

// A mesh of many triangles is cut into several chunks, most starting in
// the middle of a command: each chunk rebuilds the post-transform cache
// tags from the indices before it. The fetch count must equal a direct
// replay of the whole index stream through the 32-entry direct-mapped
// cache (flushed per command), and running the chunks on a pool must
// bin exactly what the inline run bins.
TEST_F(GeometryTest, PostTransformCacheIsExactAcrossChunks)
{
    scene3d();
    Mesh terrain = meshes::grid(24, 20, {1, 1, 1, 1}, 0.1f, 7);
    terrain.buffer_base = mem.addressSpace().allocVertex(
        terrain.vertices.size() * kVertexBytes);
    for (int i = 0; i < 2; ++i)
        scene.submit(&terrain, Mat4::scale({4.0f, 3.0f, 1.0f}),
                     RenderState{});

    std::uint64_t expected = 0;
    for (int i = 0; i < 2; ++i) {
        std::uint32_t tag[32];
        bool valid[32] = {};
        for (std::uint32_t idx : terrain.indices) {
            if (!valid[idx % 32] || tag[idx % 32] != idx) {
                ++expected;
                valid[idx % 32] = true;
                tag[idx % 32] = idx;
            }
        }
    }
    FrameStats serial = runGeometry(gpu, mem, scene, pb);
    EXPECT_EQ(serial.vertices_fetched, expected);
    EXPECT_EQ(serial.prims_submitted, 2 * terrain.triangleCount());
    EXPECT_GT(serial.prims_binned, serial.prims_submitted / 2);

    MemorySystem mem2(gpu.mem);
    ParameterBuffer pb2;
    pb2.beginFrame(gpu.tileCount(), mem2.addressSpace());
    JobPool pool(4);
    GeometryPipeline geom(gpu);
    geom.setExecution(&pool, 4);
    FrameStats pooled;
    geom.run(scene, pb2, {}, pooled);
    pooled.geom_mem_latency += geom.memLog().replay(mem2);
    EXPECT_EQ(pooled.vertices_fetched, serial.vertices_fetched);
    EXPECT_EQ(pooled.prims_binned, serial.prims_binned);
    EXPECT_EQ(pooled.bin_tile_pairs, serial.bin_tile_pairs);
    EXPECT_EQ(pooled.geom_mem_latency, serial.geom_mem_latency);
    ASSERT_EQ(pb2.prims().size(), pb.prims().size());
    for (std::size_t i = 0; i < pb.prims().size(); ++i)
        EXPECT_EQ(pb2.prims()[i].attr_crc, pb.prims()[i].attr_crc) << i;
    for (int tile = 0; tile < gpu.tileCount(); ++tile)
        EXPECT_EQ(pb2.entryAddrs(tile), pb.entryAddrs(tile)) << tile;
}

TEST_F(GeometryTest, BackfaceCullingDropsAwayFacingTriangles)
{
    scene3d();
    RenderState cull;
    cull.cull_backface = true;
    Mesh box = meshes::box({1, 1, 1, 1});
    box.buffer_base =
        mem.addressSpace().allocVertex(box.vertices.size() * kVertexBytes);
    scene.submit(&box, Mat4::identity(), cull);
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_EQ(s.prims_submitted, 12u);
    // The camera at (0,0,5) looking at the origin sees at most 3 faces
    // of a cube, so at least 3 faces (6 triangles) must be culled.
    EXPECT_GE(s.prims_backface_culled, 6u);
    EXPECT_GT(s.prims_binned, 0u);
}

TEST_F(GeometryTest, CullingDisabledKeepsAllFaces)
{
    scene3d();
    Mesh box = meshes::box({1, 1, 1, 1});
    box.buffer_base =
        mem.addressSpace().allocVertex(box.vertices.size() * kVertexBytes);
    RenderState no_cull;
    no_cull.cull_backface = false;
    scene.submit(&box, Mat4::identity(), no_cull);
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_EQ(s.prims_backface_culled, 0u);
}

TEST_F(GeometryTest, NearPlaneClipSplitsCrossingTriangles)
{
    scene3d();
    // A long quad passing through the camera: part in front of the near
    // plane, part behind it.
    RenderState rs;
    scene.submit(&quad,
                 Mat4::rotateX(1.5708f) * Mat4::scale({4.0f, 40.0f, 1.0f}),
                 rs);
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_GT(s.prims_clip_split, 0u);
    EXPECT_GT(s.prims_binned, 0u);
}

TEST_F(GeometryTest, FullyBehindCameraRejected)
{
    scene3d();
    scene.submit(&quad, Mat4::translate({0, 0, 20.0f}), RenderState{});
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_EQ(s.prims_binned, 0u);
    EXPECT_EQ(s.prims_clipped_away, 2u);
}

TEST_F(GeometryTest, ZNearIsMinimumVertexDepth)
{
    scene3d();
    scene.submit(&quad,
                 Mat4::rotateX(0.8f) * Mat4::scale({2, 2, 1}),
                 RenderState{});
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    ASSERT_GT(s.prims_binned, 0u);
    for (const ShadedPrimitive &p : pb.prims()) {
        float min_d = std::min({p.v[0].depth, p.v[1].depth, p.v[2].depth});
        EXPECT_FLOAT_EQ(p.z_near, min_d);
    }
}

TEST_F(GeometryTest, TintChangesSignatureCrc)
{
    submitRect(scene, &quad, 4, 4, 8, 8, 0.5f, RenderState{});
    runGeometry(gpu, mem, scene, pb);
    std::uint32_t crc_before = pb.prim(0).attr_crc;

    scene.commands[0].tint = {0.5f, 1.0f, 1.0f, 1.0f};
    runGeometry(gpu, mem, scene, pb);
    EXPECT_NE(pb.prim(0).attr_crc, crc_before);
}

TEST_F(GeometryTest, IdenticalFramesProduceIdenticalCrcs)
{
    submitRect(scene, &quad, 4, 4, 24, 24, 0.5f, RenderState{});
    runGeometry(gpu, mem, scene, pb);
    std::vector<std::uint32_t> crcs;
    for (const auto &p : pb.prims())
        crcs.push_back(p.attr_crc);

    runGeometry(gpu, mem, scene, pb);
    ASSERT_EQ(pb.prims().size(), crcs.size());
    for (std::size_t i = 0; i < crcs.size(); ++i)
        EXPECT_EQ(pb.prim(i).attr_crc, crcs[i]);
}

// The commit only logs its Parameter Buffer writes: they reach the
// Tile Cache when the frame's geometry log replays.
TEST_F(GeometryTest, ParameterBufferTrafficAccounted)
{
    submitRect(scene, &quad, 0, 0, 64, 48, 0.5f, RenderState{});
    FrameStats s;
    pb.beginFrame(gpu.tileCount(), mem.addressSpace());
    GeometryPipeline geom(gpu);
    geom.run(scene, pb, {}, s);
    EXPECT_EQ(s.param_attr_bytes, 2u * ShadedPrimitive::kAttrBytes);
    EXPECT_EQ(s.param_list_bytes,
              s.bin_tile_pairs * DisplayListEntry::kBaseBytes);
    EXPECT_EQ(s.layer_param_bytes, 0u); // no EVR
    EXPECT_EQ(s.geom_mem_latency, 0u);
    EXPECT_EQ(mem.stats().tile_cache.writes, 0u);
    EXPECT_GT(geom.memLog().replay(mem), 0u);
    EXPECT_GT(mem.stats().tile_cache.writes, 0u);
}

// A multi-chunk 3D frame with EVR's 6-byte list entries (some straddle
// a line) on caches small enough to evict: the folded geometry log
// must fold, and replay to the same counters, write-backs and latency
// as the same log with every access an entry of its own.
TEST_F(GeometryTest, FoldedGeometryLogReplaysLikeUnfolded)
{
    gpu.mem.vertex_cache.size_bytes = 1024;
    gpu.mem.tile_cache.size_bytes = 4096;
    gpu.mem.l2_cache.size_bytes = 16 * 1024;
    scene3d();
    Mesh terrain = meshes::grid(24, 20, {1, 1, 1, 1}, 0.1f, 7);
    terrain.buffer_base = mem.addressSpace().allocVertex(
        terrain.vertices.size() * kVertexBytes);
    for (int i = 0; i < 2; ++i)
        scene.submit(&terrain, Mat4::scale({4.0f, 3.0f, 1.0f}),
                     RenderState{});

    GeometryHooks hooks;
    hooks.store_layers = true;
    FrameStats s;
    pb.beginFrame(gpu.tileCount(), mem.addressSpace());
    GeometryPipeline geom(gpu);
    geom.run(scene, pb, hooks, s);
    ASSERT_GT(s.prims_submitted, 1000u); // several 128-triangle chunks
    const GeometryMemLog &folded = geom.memLog();
    const GeometryMemLog unfolded = folded.uncoalesced();
    EXPECT_LT(folded.accesses().size(), unfolded.accesses().size());

    MemorySystem a(gpu.mem), b(gpu.mem);
    const Cycles folded_latency = folded.replay(a);
    EXPECT_EQ(folded_latency, unfolded.replay(b));
    EXPECT_EQ(memStatsJson(a), memStatsJson(b));
    EXPECT_GT(a.stats().tile_cache.writebacks, 0u);
    EXPECT_EQ(a.stats().tile_cache.writebacks,
              b.stats().tile_cache.writebacks);
    // A 36-byte vertex touches one or two lines.
    EXPECT_GE(a.stats().vertex_cache.reads, s.vertices_fetched);
    EXPECT_LE(a.stats().vertex_cache.reads, 2 * s.vertices_fetched);
}

TEST_F(GeometryTest, StoreLayersAddsParameterBytes)
{
    submitRect(scene, &quad, 0, 0, 64, 48, 0.5f, RenderState{});
    GeometryHooks hooks;
    hooks.store_layers = true;
    FrameStats s = runGeometry(gpu, mem, scene, pb, hooks);
    EXPECT_EQ(s.layer_param_bytes,
              s.bin_tile_pairs * DisplayListEntry::kLayerBytes);
}

TEST_F(GeometryTest, UnuploadedMeshIsRejectedNotFatal)
{
    // An unuploaded mesh used to abort the process; it is now a counted
    // rejection so a single bad command cannot take down a whole sweep.
    Mesh fresh = meshes::quad({1, 1, 1, 1});
    scene.submit(&fresh, Mat4::identity(), RenderState{});
    submitRect(scene, &quad, 0, 0, 64, 48, 0.5f, RenderState{});
    FrameStats s = runGeometry(gpu, mem, scene, pb);
    EXPECT_EQ(s.commands_rejected, 1u);
    EXPECT_EQ(s.draw_commands, 2u);
    EXPECT_EQ(s.prims_submitted, 2u); // the uploaded quad still renders
}

// ---------------------------------------------------- ParameterBuffer --

TEST(ParameterBuffer, TwoListOrdering)
{
    AddressSpace as;
    ParameterBuffer pb;
    pb.beginFrame(4, as);

    ShadedPrimitive p;
    std::uint32_t a = pb.addPrimitive(p);
    std::uint32_t b = pb.addPrimitive(p);
    std::uint32_t c = pb.addPrimitive(p);

    pb.append(0, {a, 0, false}, false, 4);
    pb.append(0, {b, 0, true}, true, 4);
    pb.append(0, {c, 0, false}, false, 4);

    auto order = pb.renderOrder(0);
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0].prim, a);
    EXPECT_EQ(order[1].prim, c);
    EXPECT_EQ(order[2].prim, b); // second list drains last
}

TEST(ParameterBuffer, MoveSecondToFirstPreservesRelativeOrder)
{
    AddressSpace as;
    ParameterBuffer pb;
    pb.beginFrame(1, as);
    ShadedPrimitive p;
    std::uint32_t ids[4];
    for (auto &id : ids)
        id = pb.addPrimitive(p);

    pb.append(0, {ids[0], 0, false}, false, 4);
    pb.append(0, {ids[1], 0, false}, true, 4);
    pb.append(0, {ids[2], 0, false}, true, 4);
    EXPECT_TRUE(pb.moveSecondToFirst(0));
    pb.append(0, {ids[3], 0, false}, false, 4);

    auto order = pb.renderOrder(0);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0].prim, ids[0]);
    EXPECT_EQ(order[1].prim, ids[1]);
    EXPECT_EQ(order[2].prim, ids[2]);
    EXPECT_EQ(order[3].prim, ids[3]);
    EXPECT_FALSE(pb.moveSecondToFirst(0)); // now empty
}

TEST(ParameterBuffer, EntryAddressesAreChunked)
{
    AddressSpace as;
    ParameterBuffer pb;
    pb.beginFrame(2, as);
    ShadedPrimitive p;
    std::uint32_t id = pb.addPrimitive(p);

    // Consecutive entries of one tile pack into the same 256 B chunk.
    Addr a0 = pb.append(0, {id, 0, false}, false, 4);
    Addr a1 = pb.append(0, {id, 0, false}, false, 4);
    EXPECT_EQ(a1, a0 + 4);

    // A different tile allocates its own chunk elsewhere.
    Addr b0 = pb.append(1, {id, 0, false}, false, 4);
    EXPECT_NE(b0, a0 + 8);
}

TEST(ParameterBuffer, BeginFrameResets)
{
    AddressSpace as;
    ParameterBuffer pb;
    pb.beginFrame(1, as);
    ShadedPrimitive p;
    pb.append(0, {pb.addPrimitive(p), 0, false}, false, 4);
    EXPECT_EQ(pb.firstList(0).size(), 1u);

    pb.beginFrame(1, as);
    EXPECT_TRUE(pb.firstList(0).empty());
    EXPECT_TRUE(pb.prims().empty());
}
