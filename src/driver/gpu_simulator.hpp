/**
 * @file
 * GpuSimulator: the library's main entry point.
 *
 * Owns the whole modelled system — memory hierarchy, geometry and raster
 * pipelines, timing and energy models, and the optional RE / EVR
 * mechanisms — and exposes a frame-oriented API:
 *
 *   GpuSimulator sim(SimConfig::evr(gpu_config));
 *   sim.uploadMesh(mesh);
 *   sim.registerTexture(texture);
 *   FrameStats s = sim.renderFrame(scene);
 *
 * Rendering is functional (the final framebuffer is exact) and every
 * architectural event is counted, so configurations can be compared both
 * for correctness (bit-identical output) and for performance/energy.
 */
#ifndef EVRSIM_DRIVER_GPU_SIMULATOR_HPP
#define EVRSIM_DRIVER_GPU_SIMULATOR_HPP

#include <memory>

#include "common/status.hpp"
#include "driver/sim_config.hpp"
#include "energy/energy_model.hpp"
#include "evr/evr.hpp"
#include "gpu/framebuffer.hpp"
#include "gpu/geometry_pipeline.hpp"
#include "gpu/invariant_auditor.hpp"
#include "gpu/raster_pipeline.hpp"
#include "re/rendering_elimination.hpp"
#include "scene/scene.hpp"

namespace evrsim {

/** Top-level simulator facade. */
class GpuSimulator
{
  public:
    explicit GpuSimulator(const SimConfig &config,
                          const EnergyParams &energy_params = {},
                          const TimingParams &timing_params = {});

    /**
     * Place a mesh's vertex buffer in simulated memory (charged as
     * one-time upload traffic). Must be called before the mesh is drawn.
     */
    void uploadMesh(Mesh &mesh);

    /** Place a texture in simulated memory. */
    void registerTexture(Texture &texture);

    /**
     * Render one frame: full geometry + raster pass under the configured
     * techniques. Returns the frame's statistics (timing filled in,
     * memory snapshot attached).
     *
     * With validation off this never fails. In permissive mode a
     * malformed scene is sanitized and invariant violations degrade the
     * offending tiles, so it still never fails; in strict mode both
     * conditions become an error Status instead.
     */
    Result<FrameStats> tryRenderFrame(const Scene &scene);

    /**
     * Legacy never-fails wrapper around tryRenderFrame(); a strict-mode
     * failure exits the process via fatal().
     */
    FrameStats renderFrame(const Scene &scene);

    /**
     * Enable parallelism inside the simulation (EVRSIM_TILE_JOBS):
     * tiles are rendered concurrently and their memory-access logs
     * replayed in tile order, and the geometry pass's per-primitive
     * stage runs in chunks committed in submission order, keeping every
     * result byte-identical to the serial path (see
     * RasterPipeline::setTileExecution and
     * GeometryPipeline::setExecution).
     *
     * @param pool      pool to run tile jobs on; pass null to let the
     *                  simulator own a pool of @p tile_jobs workers
     * @param tile_jobs parallelism (<= 1 restores the serial path)
     */
    void setTileExecution(JobPool *pool, int tile_jobs);

    /** Energy of a frame's (or accumulated) stats under this config. */
    EnergyBreakdown energyOf(const FrameStats &stats) const;

    /** Stats accumulated over every frame rendered so far. */
    const FrameStats &totals() const { return totals_; }

    /** Zero the accumulated totals (e.g. after warm-up frames). */
    void resetTotals() { totals_ = FrameStats{}; }

    /** Current display contents. */
    const Framebuffer &framebuffer() const { return fb_; }

    const SimConfig &config() const { return config_; }
    MemorySystem &memorySystem() { return mem_; }

    /** Mechanism inspection (tests, diagnostics); may be null. */
    const RenderingElimination *re() const { return re_.get(); }
    const EarlyVisibilityResolution *evr() const { return evr_.get(); }

    /** Mutable mechanism access for tests/fuzzers that corrupt state. */
    RenderingElimination *mutableRe() { return re_.get(); }
    EarlyVisibilityResolution *mutableEvr() { return evr_.get(); }

    /** The invariant auditor; null unless validation is enabled. */
    const InvariantAuditor *auditor() const { return auditor_.get(); }

    /** The last rendered frame's Parameter Buffer (diagnostics). */
    const ParameterBuffer &parameterBuffer() const { return pb_; }

    int framesRendered() const { return frames_rendered_; }

  private:
    /** The frame render proper; @p stats arrives pre-seeded with any
     *  ingestion-validation counters. */
    FrameStats renderFrameImpl(const Scene &scene, FrameStats stats);

    SimConfig config_;
    MemorySystem mem_;
    ShaderCore shader_;
    TimingModel timing_;
    EnergyModel energy_;
    GeometryPipeline geometry_;
    RasterPipeline raster_;
    ParameterBuffer pb_;
    std::unique_ptr<RenderingElimination> re_;
    std::unique_ptr<EarlyVisibilityResolution> evr_;
    std::unique_ptr<InvariantAuditor> auditor_;
    std::unique_ptr<JobPool> owned_tile_pool_;
    Framebuffer fb_;
    FrameStats totals_;
    int frames_rendered_ = 0;
};

/** Map a frame's counters to energy-model events (McPAT-style driving). */
EnergyEvents toEnergyEvents(const FrameStats &stats, const SimConfig &config);

} // namespace evrsim

#endif // EVRSIM_DRIVER_GPU_SIMULATOR_HPP
