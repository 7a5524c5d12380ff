/**
 * @file
 * The Raster Pipeline: sequential per-tile rendering over on-chip
 * buffers, with Early/Late Depth Test, fragment shading, blending and
 * Color Buffer flush — plus the hooks where Rendering Elimination skips
 * tiles and EVR tracks per-tile visibility.
 */
#ifndef EVRSIM_GPU_RASTER_PIPELINE_HPP
#define EVRSIM_GPU_RASTER_PIPELINE_HPP

#include <memory>
#include <mutex>
#include <vector>

#include "common/job_pool.hpp"
#include "gpu/framebuffer.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/parameter_buffer.hpp"
#include "gpu/pipeline_hooks.hpp"
#include "gpu/rasterizer.hpp"
#include "gpu/shader.hpp"
#include "gpu/tile_mem_log.hpp"
#include "gpu/timing_model.hpp"
#include "scene/scene.hpp"

namespace evrsim {

class InvariantAuditor;

/** Optional attachments for one frame's raster pass. */
struct RasterHooks {
    SignatureUpdater *signature = nullptr;   ///< RE tile-skip decisions
    TileVisibilityTracker *tracker = nullptr; ///< EVR Layer Buffer / FVP
    InvariantAuditor *auditor = nullptr;      ///< EVRSIM_VALIDATE checks
    /**
     * Oracle mode of Figure 8: before rendering a tile, its final depth
     * values are computed and preloaded into the Z Buffer, so the Early
     * Depth Test has perfect visibility information (an idealized
     * Z-prepass with no cost attributed to the prepass itself).
     */
    bool oracle_z = false;

    /**
     * Real Z-Prepass (the software/hardware alternative the paper
     * contrasts EVR with): the same depth preload as oracle_z, but the
     * prepass's rasterization, depth tests and discard-shader
     * evaluations are charged to the tile — "the overhead of the
     * additional render pass is very high and often offsets its
     * potential benefits".
     */
    bool z_prepass = false;
};

/**
 * Renders all tiles of a frame.
 */
class RasterPipeline
{
  public:
    RasterPipeline(const GpuConfig &config, MemorySystem &mem,
                   ShaderCore &shader, const TimingModel &timing);

    /**
     * Render the frame described by @p pb into @p fb. The frame's
     * memory stream is @p geometry, then every tile's log in tile order:
     * @p geometry replays just before tile 0's log.
     *
     * @param geometry       the frame's geometry segment, not yet issued
     *                       (GeometryPipeline::memLog)
     * @param has_prev_frame @p fb holds the previous frame: each tile's
     *                       new pixels are compared with it for the
     *                       ground-truth "equal tiles" oracle statistic
     * @return the replayed latency of @p geometry (the geometry pass's
     *         memory stalls; @p stats gets only the raster pass's)
     */
    Cycles run(const Scene &scene, const ParameterBuffer &pb,
               const GeometryMemLog &geometry, Framebuffer &fb,
               bool has_prev_frame, const RasterHooks &hooks,
               FrameStats &stats);

    /**
     * Enable tile-parallel rendering (EVRSIM_TILE_JOBS): tiles are
     * claimed in order and rendered concurrently on @p pool via
     * JobPool::runBatch, each into a TileMemLog of its own, while the
     * batch owner replays the geometry segment and then every finished
     * prefix of tiles against the MemorySystem in tile order. Serial
     * tiles record and replay the same logs one tile at a time, so
     * stats, cache behavior and pixels are byte-identical either way
     * (see DESIGN.md section 12).
     *
     * @param pool      shared pool to run tile jobs on (null or
     *                  tile_jobs <= 1 restores the serial path)
     * @param tile_jobs threads the tile batch is sized for, the
     *                  replaying owner included
     */
    void
    setTileExecution(JobPool *pool, int tile_jobs)
    {
        tile_pool_ = tile_jobs > 1 ? pool : nullptr;
        tile_jobs_ = tile_jobs;
    }

  private:
    /**
     * Render (or skip) one tile, accumulating into @p tile_stats. Pure
     * with respect to mem_: the tile's memory accesses are recorded in
     * @p log in issue order, and their latency is charged when the log
     * is replayed.
     */
    void renderTile(int tile, const Scene &scene, const ParameterBuffer &pb,
                    Framebuffer &fb, bool has_prev_frame,
                    const RasterHooks &hooks, FrameStats &tile_stats,
                    TileMemLog &log);

    /**
     * Depth prepass: compute the tile's final depth values by running
     * every Z-writing primitive depth-only (including shader-discard
     * effects). @p zwin receives, per pixel, the display-list position
     * that set its final depth, so the main pass keeps first-wins ties.
     *
     * @param charge if non-null, the prepass's rasterization, depth
     *               tests and discard-shader work are charged there
     *               (the real Z-Prepass); null runs it as the free
     *               Figure 8 oracle.
     */
    void depthPrepass(const RectI &rect, const Scene &scene,
                      const ParameterBuffer &pb,
                      const std::vector<DisplayListEntry> &order,
                      float clear_depth, std::vector<float> &depth,
                      std::vector<std::uint32_t> &zwin, FrameStats *charge,
                      TileMemLog &log, RasterScratch &scratch) const;

    /**
     * Render (or skip) @p tile into the calling thread's reusable log
     * and replay it at once (every earlier tile must already have been
     * replayed), then charge its timing and merge its stats into
     * @p frame. Serves every serial tile and the streaming owner's
     * unclaimed ones.
     */
    void renderAndReplayTile(int tile, const Scene &scene,
                             const ParameterBuffer &pb, Framebuffer &fb,
                             bool has_prev_frame, const RasterHooks &hooks,
                             FrameStats &frame);

    /**
     * The tile-parallel frame: the streaming claim loop that renders
     * tiles on tile_pool_ and replays @p geometry and then the tiles'
     * logs in tile order as they finish, merging stats into @p frame.
     * Rethrows the lowest-index tile's exception once every tile job
     * has stopped.
     *
     * @return the replayed latency of @p geometry
     */
    Cycles runStreaming(const Scene &scene, const ParameterBuffer &pb,
                        const GeometryMemLog &geometry, Framebuffer &fb,
                        bool has_prev_frame, const RasterHooks &hooks,
                        FrameStats &frame);

    /** Tile pixel rectangle, clipped to the screen for edge tiles. */
    RectI tileRect(int tile) const;

    const GpuConfig &config_;
    MemorySystem &mem_;
    ShaderCore &shader_;
    const TimingModel &timing_;
    JobPool *tile_pool_ = nullptr;
    int tile_jobs_ = 1;

    /** A pooled tile's stats and log, from its render to its replay. */
    struct TileSlot {
        FrameStats stats;
        std::unique_ptr<TileMemLog> log;
    };
    /** runStreaming's per-tile slots, kept across frames. */
    std::vector<TileSlot> slots_;
    /** Logs of replayed pooled tiles, for the next tiles to render
     *  into: never more than the most tiles ever in flight at once. */
    std::vector<std::unique_ptr<TileMemLog>> spare_logs_;
    std::mutex spare_logs_mu_;
};

} // namespace evrsim

#endif // EVRSIM_GPU_RASTER_PIPELINE_HPP
