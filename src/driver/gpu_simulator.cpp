/**
 * @file
 * GpuSimulator implementation.
 */
#include "driver/gpu_simulator.hpp"

#include "common/log.hpp"
#include "common/trace.hpp"
#include "scene/scene_validate.hpp"

namespace evrsim {

GpuSimulator::GpuSimulator(const SimConfig &config,
                           const EnergyParams &energy_params,
                           const TimingParams &timing_params)
    : config_(config),
      mem_(config.gpu.mem),
      shader_(mem_.config()),
      timing_(config_.gpu, timing_params),
      energy_(energy_params),
      geometry_(config_.gpu),
      raster_(config_.gpu, mem_, shader_, timing_),
      fb_(config.gpu.screen_width, config.gpu.screen_height)
{
    config_.validate();
    if (config_.re)
        re_ = std::make_unique<RenderingElimination>(config_.gpu.tileCount());
    if (config_.evr_predict) {
        EvrConfig evr_cfg;
        evr_cfg.reorder = config_.evr_reorder;
        evr_ = std::make_unique<EarlyVisibilityResolution>(
            config_.gpu.tileCount(), config_.gpu.tile_size, evr_cfg);
    }
    if (config_.validation.enabled()) {
        auditor_ = std::make_unique<InvariantAuditor>(config_.validation,
                                                      config_.gpu);
        auditor_->attach(re_.get(), evr_.get());
        // Depth-preloading configurations resolve equal-depth fragments
        // differently from a submission-order render, so pixel identity
        // against the reference is not an invariant for them.
        auditor_->setIdentityEnabled(!config_.oracle_z &&
                                     !config_.z_prepass);
    }
}

void
GpuSimulator::setTileExecution(JobPool *pool, int tile_jobs)
{
    if (tile_jobs <= 1) {
        raster_.setTileExecution(nullptr, 1);
        geometry_.setExecution(nullptr, 1);
        owned_tile_pool_.reset();
        return;
    }
    if (pool == nullptr || pool->threadCount() < 2) {
        // No shareable pool (or an inline one): own a worker pool sized
        // to the requested tile parallelism.
        owned_tile_pool_ = std::make_unique<JobPool>(tile_jobs);
        pool = owned_tile_pool_.get();
    }
    raster_.setTileExecution(pool, tile_jobs);
    geometry_.setExecution(pool, tile_jobs);
}

void
GpuSimulator::uploadMesh(Mesh &mesh)
{
    if (mesh.buffer_base != 0)
        return; // already resident
    std::uint64_t bytes = mesh.vertices.size() * kVertexBytes;
    EVRSIM_ASSERT(bytes > 0);
    mesh.buffer_base = mem_.addressSpace().allocVertex(bytes);
    // One-time DMA of the vertex data into GPU-visible memory.
    mem_.otherAccess(mesh.buffer_base, static_cast<unsigned>(bytes), true);
}

void
GpuSimulator::registerTexture(Texture &texture)
{
    if (texture.base() != 0)
        return;
    texture.setBase(mem_.addressSpace().allocTexture(texture.byteSize()));
    mem_.otherAccess(texture.base(),
                     static_cast<unsigned>(texture.byteSize()), true);
}

FrameStats
GpuSimulator::renderFrameImpl(const Scene &scene, FrameStats stats)
{
    // Frame + stage spans (simulation altitude): tracing reads state,
    // never writes it, so an enabled tracer cannot perturb results.
    // The geometry span covers binning too: this is a tile-based
    // renderer whose geometry pipeline bins each chunk of primitives as
    // it commits it (interleaved with the shading of later chunks), so
    // there is no separate binning phase to delimit. Its memory
    // accesses are logged and replayed inside the raster span, at the
    // head of the frame's access stream.
    TraceSpan frame_span(TraceCat::Frame, "frame");
    frame_span.setValue(frames_rendered_);

    mem_.clearStats();

    pb_.beginFrame(config_.gpu.tileCount(), mem_.addressSpace());
    if (auditor_)
        auditor_->frameStart(
            static_cast<std::uint64_t>(frames_rendered_));

    {
        TraceSpan stage(TraceCat::Stage, "geometry");
        GeometryHooks gh;
        gh.scheduler = evr_.get();
        gh.signature = re_.get();
        gh.store_layers = config_.evr_predict;
        gh.filter_signature = config_.evr_filter_signature;
        geometry_.run(scene, pb_, gh, stats);
    }

    if (auditor_) {
        TraceSpan stage(TraceCat::Stage, "binning-audit");
        auditor_->checkBinning(pb_, stats);
    }

    {
        TraceSpan stage(TraceCat::Stage, "raster");
        RasterHooks rh;
        rh.signature = re_.get();
        rh.tracker = evr_.get();
        rh.auditor = auditor_.get();
        rh.oracle_z = config_.oracle_z;
        rh.z_prepass = config_.z_prepass;
        // From the second frame on, the raster pipeline compares each
        // rendered tile with the previous frame's pixels still in fb_
        // for the ground-truth "equal tiles" statistic (Figure 9's
        // oracle).
        FrameStats raster;
        stats.geom_mem_latency +=
            raster_.run(scene, pb_, geometry_.memLog(), fb_,
                        frames_rendered_ > 0, rh, raster);
        // Before the raster counters merge: geometry timing reads only
        // the geometry pass's (the EVR tracker also counts FVP table
        // accesses while tiles render).
        stats.geometry_cycles = timing_.geometryCycles(stats);
        stats.accumulate(raster);
    }

    if (re_) {
        TraceSpan stage(TraceCat::Stage, "re-frame-end");
        re_->frameEnd();
    }

    stats.mem = mem_.stats();
    totals_.accumulate(stats);
    ++frames_rendered_;
    return stats;
}

Result<FrameStats>
GpuSimulator::tryRenderFrame(const Scene &scene)
{
    if (!config_.validation.enabled())
        return renderFrameImpl(scene, FrameStats{});

    FrameStats seed;
    const Scene *to_render = &scene;
    Scene sanitized;

    SceneAuditReport report = auditScene(scene);
    if (!report.ok()) {
        if (config_.validation.strict())
            return report.toStatus();
        seed.validate_scene_issues += report.issues.size();
        // Permissive: render the deterministically-sanitized stream
        // (commands keep their submission ids — see sanitizeScene).
        sanitized = scene;
        seed.validate_commands_dropped +=
            sanitizeScene(sanitized, report);
        to_render = &sanitized;
    }

    FrameStats stats = renderFrameImpl(*to_render, seed);
    if (config_.validation.strict() && auditor_ && !auditor_->frameClean())
        return auditor_->frameStatus();
    return stats;
}

FrameStats
GpuSimulator::renderFrame(const Scene &scene)
{
    Result<FrameStats> r = tryRenderFrame(scene);
    if (!r.ok())
        fatal("renderFrame: %s", r.status().message().c_str());
    return r.value();
}

EnergyBreakdown
GpuSimulator::energyOf(const FrameStats &stats) const
{
    return energy_.compute(toEnergyEvents(stats, config_));
}

EnergyEvents
toEnergyEvents(const FrameStats &stats, const SimConfig &config)
{
    EnergyEvents e;
    e.cycles = stats.totalCycles();
    e.mem = stats.mem;

    e.vertex_shader_instrs = stats.vertex_shader_instrs;
    e.fragment_shader_instrs = stats.fragment_shader_instrs;
    e.raster_quads = stats.raster_quads;
    e.depth_tests = stats.early_z_tests + stats.late_z_tests;
    e.blend_ops = stats.blend_ops;
    e.color_buffer_accesses = stats.color_buffer_accesses;
    e.depth_buffer_accesses = stats.depth_buffer_accesses;

    // Each signature combine reads and writes the Signature Buffer; each
    // skip decision reads the two stored signatures.
    e.signature_buffer_accesses =
        2 * stats.signature_updates + 2 * stats.signature_compares;
    e.signature_bytes_hashed =
        stats.signature_bytes_hashed + stats.signature_shift_bytes;

    e.lgt_accesses = stats.lgt_accesses;
    e.fvp_table_accesses = stats.fvp_table_accesses;
    e.layer_buffer_accesses = stats.layer_buffer_accesses;
    e.layer_param_bytes = stats.layer_param_bytes;

    e.re_hardware_present = config.re;
    e.evr_hardware_present = config.evr_predict;
    return e;
}

} // namespace evrsim
