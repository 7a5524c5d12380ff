/**
 * @file
 * Headline summary: the section-VII numbers the paper leads with,
 * measured across the whole suite —
 *   39% execution-time reduction, 43% energy reduction, 20% overshading
 *   reduction (3D), 54% of tiles skipped (+5% over RE), and the
 *   2.1% / 1.2% / 0.5% overheads.
 *
 * Secondary mode, --bench-speed[=<path>]: measure the simulator's own
 * raw throughput (no result cache, direct GpuSimulator runs) in two
 * legs — serial tiles (the "scalar" leg) and the production path —
 * and emit BENCH_speed.json with sims/s, frames/s and per-stage wall
 * time from the tracer's span totals. With
 * --bench-speed-baseline=<path> the optimized leg's sims/s is gated
 * against the checked-in floor (fail if it regresses more than 25%),
 * which is what the `speed` ctest label runs.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "common/atomic_file.hpp"
#include "driver/gpu_simulator.hpp"
#include "driver/json.hpp"

using namespace evrsim;
using namespace evrsim::bench;

namespace {

/** One measured throughput leg of --bench-speed. */
struct SpeedLeg {
    double wall_ms = 0.0;
    int sims = 0;
    int frames = 0; ///< every rendered frame, warm-up included
    std::vector<TraceTotal> stages;

    double
    simsPerS() const
    {
        return wall_ms > 0.0 ? sims / (wall_ms / 1000.0) : 0.0;
    }
    double
    framesPerS() const
    {
        return wall_ms > 0.0 ? frames / (wall_ms / 1000.0) : 0.0;
    }
};

/**
 * Render every Table III workload under the baseline and EVR configs
 * (the Figure 7 sim set), timed end to end — workload construction and
 * mesh/texture upload included, exactly like a cacheless fig07 sweep.
 * @p scalar selects the "scalar" leg, serial tiles; otherwise the
 * production path (EVRSIM_TILE_JOBS honoured).
 */
SpeedLeg
runSpeedLeg(const BenchParams &params, bool scalar)
{
    traceTotalsEnable((1u << static_cast<unsigned>(TraceCat::Stage)) |
                      (1u << static_cast<unsigned>(TraceCat::Frame)));

    GpuConfig gpu = params.gpuConfig();
    const SimConfig configs[] = {SimConfig::baseline(gpu),
                                 SimConfig::evr(gpu)};
    SpeedLeg leg;
    WorkloadFactory make = workloads::factory();
    auto start = std::chrono::steady_clock::now();
    for (const std::string &alias : workloads::allAliases()) {
        for (const SimConfig &config : configs) {
            std::unique_ptr<Workload> workload =
                make(alias, params.width, params.height);
            if (!workload)
                fatal("--bench-speed: unknown workload '%s'",
                      alias.c_str());
            GpuSimulator sim(config);
            if (!scalar && params.tile_jobs > 1)
                sim.setTileExecution(nullptr, params.tile_jobs);
            workload->setup(sim);
            for (int f = 0; f < params.warmup + params.frames; ++f) {
                sim.renderFrame(workload->frame(f));
                ++leg.frames;
            }
            ++leg.sims;
        }
    }
    leg.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    leg.stages = traceTotals();
    traceTotalsEnable(0);
    return leg;
}

Json
legJson(const SpeedLeg &leg)
{
    Json j = Json::object();
    j.set("wall_ms", leg.wall_ms);
    j.set("sims", leg.sims);
    j.set("frames", leg.frames);
    j.set("sims_per_s", leg.simsPerS());
    j.set("frames_per_s", leg.framesPerS());
    Json stages = Json::object();
    for (const TraceTotal &t : leg.stages) {
        if (std::strcmp(t.cat, "stage") != 0)
            continue;
        Json s = Json::object();
        s.set("wall_ms", static_cast<double>(t.total_ns) / 1e6);
        s.set("spans", t.count);
        stages.set(t.name, std::move(s));
    }
    j.set("stage_ms", std::move(stages));
    return j;
}

/** Keys any consumer of BENCH_speed.json may rely on. */
Status
validateSpeedJson(const Json &doc)
{
    for (const char *key : {"schema", "legs", "speedup_frames_per_s"})
        if (!doc.find(key))
            return Status::dataLoss(std::string("missing key '") + key +
                                    "'");
    for (const char *leg : {"scalar", "optimized"}) {
        const Json *l = doc.at("legs").find(leg);
        if (!l)
            return Status::dataLoss(std::string("missing leg '") + leg +
                                    "'");
        for (const char *key :
             {"wall_ms", "sims_per_s", "frames_per_s", "stage_ms"})
            if (!l->find(key))
                return Status::dataLoss(std::string("leg '") + leg +
                                        "' missing key '" + key + "'");
    }
    return {};
}

int
runBenchSpeed(const std::string &out_path, const std::string &baseline_path)
{
    BenchParams params = benchParamsFromEnv();
    setLogLevel(params.log_level);
    installCrashHandler();

    std::printf("== bench-speed: %d workload(s) x {baseline, evr}, "
                "%dx%d, %d+%d frames, tile_jobs=%d ==\n",
                static_cast<int>(workloads::allAliases().size()),
                params.width, params.height, params.warmup, params.frames,
                params.tile_jobs);

    SpeedLeg scalar = runSpeedLeg(params, true);
    SpeedLeg fast = runSpeedLeg(params, false);

    double speedup = scalar.framesPerS() > 0.0
                         ? fast.framesPerS() / scalar.framesPerS()
                         : 0.0;

    // The checked-in baseline carries the pre-optimization binary's
    // numbers on the same sim set, so the emitted file records the perf
    // trajectory — not just the in-binary ratio between the legs, which
    // share every per-fragment optimization.
    Json baseline_json;
    bool have_baseline = false;
    if (!baseline_path.empty()) {
        std::ifstream bin(baseline_path);
        if (!bin) {
            std::fprintf(stderr, "bench-speed: cannot read baseline %s\n",
                         baseline_path.c_str());
            return 1;
        }
        std::stringstream bbuf;
        bbuf << bin.rdbuf();
        Result<Json> base = Json::tryParse(bbuf.str());
        if (!base.ok()) {
            std::fprintf(stderr, "bench-speed: baseline %s: %s\n",
                         baseline_path.c_str(),
                         base.status().message().c_str());
            return 1;
        }
        baseline_json = base.value();
        have_baseline = true;
    }

    Json doc = Json::object();
    doc.set("schema", "evrsim-bench-speed-v1");
    doc.set("width", params.width);
    doc.set("height", params.height);
    doc.set("warmup", params.warmup);
    doc.set("frames_per_sim", params.frames);
    doc.set("tile_jobs", params.tile_jobs);
    Json legs = Json::object();
    legs.set("scalar", legJson(scalar));
    legs.set("optimized", legJson(fast));
    doc.set("legs", std::move(legs));
    doc.set("speedup_frames_per_s", speedup);
    if (have_baseline) {
        if (const Json *seed = baseline_json.find("seed")) {
            Json traj = Json::object();
            traj.set("source", baseline_path);
            double seed_fps = seed->at("frames_per_s").asDouble();
            traj.set("seed_frames_per_s", seed_fps);
            traj.set("speedup_vs_seed_frames_per_s",
                     seed_fps > 0.0 ? fast.framesPerS() / seed_fps : 0.0);
            doc.set("trajectory", std::move(traj));
        }
    }

    std::string text = doc.dump(2) + "\n";
    if (Status s = atomicWriteFile(out_path, text); !s.ok())
        fatal("--bench-speed: cannot write %s: %s", out_path.c_str(),
              s.message().c_str());

    // Re-read through the parser so a malformed emission fails here,
    // not in whatever consumes the file later.
    std::ifstream in(out_path);
    std::stringstream buf;
    buf << in.rdbuf();
    Result<Json> parsed = Json::tryParse(buf.str());
    Status valid =
        parsed.ok() ? validateSpeedJson(parsed.value()) : parsed.status();
    if (!valid.ok()) {
        std::fprintf(stderr, "bench-speed: %s is malformed: %s\n",
                     out_path.c_str(), valid.message().c_str());
        return 1;
    }

    std::printf("scalar:    %7.2f frames/s  %6.3f sims/s  (%.0f ms)\n",
                scalar.framesPerS(), scalar.simsPerS(), scalar.wall_ms);
    std::printf("optimized: %7.2f frames/s  %6.3f sims/s  (%.0f ms)\n",
                fast.framesPerS(), fast.simsPerS(), fast.wall_ms);
    std::printf("speedup:   %.2fx frames/s vs serial tiles\n", speedup);
    if (const Json *t = doc.find("trajectory"))
        std::printf("trajectory: %.2fx frames/s vs the seed binary "
                    "(%.2f frames/s, %s)\n",
                    t->at("speedup_vs_seed_frames_per_s").asDouble(),
                    t->at("seed_frames_per_s").asDouble(),
                    baseline_path.c_str());
    std::printf("wrote %s\n", out_path.c_str());

    if (have_baseline) {
        const Json *floor = baseline_json.find("floor_sims_per_s");
        if (!floor) {
            std::fprintf(stderr, "bench-speed: baseline %s has no "
                                 "floor_sims_per_s\n",
                         baseline_path.c_str());
            return 1;
        }
        // sims/s scales with frames-per-sim, so the floor only means
        // something at the configuration it was calibrated for.
        if (const Json *fc = baseline_json.find("floor_config")) {
            if (fc->at("frames_per_sim").asI64() != params.frames ||
                fc->at("warmup").asI64() != params.warmup) {
                std::printf("baseline floor: calibrated for %lld+%lld "
                            "frames, this run is %d+%d — gate skipped\n",
                            static_cast<long long>(
                                fc->at("warmup").asI64()),
                            static_cast<long long>(
                                fc->at("frames_per_sim").asI64()),
                            params.warmup, params.frames);
                return 0;
            }
        }
        double limit = floor->asDouble() * 0.75;
        std::printf("baseline floor: %.3f sims/s (gate at %.3f)\n",
                    floor->asDouble(), limit);
        if (fast.simsPerS() < limit) {
            std::fprintf(stderr,
                         "bench-speed: sims/s regressed >25%%: measured "
                         "%.3f < gate %.3f (floor %.3f from %s)\n",
                         fast.simsPerS(), limit, floor->asDouble(),
                         baseline_path.c_str());
            return 1;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // --bench-speed mode: raw throughput measurement, no result cache.
    std::string speed_out, speed_baseline;
    bool speed_mode = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i] ? argv[i] : "";
        if (arg == "--bench-speed") {
            speed_mode = true;
            speed_out = "BENCH_speed.json";
        } else if (arg.rfind("--bench-speed=", 0) == 0) {
            speed_mode = true;
            speed_out = arg.substr(std::strlen("--bench-speed="));
        } else if (arg.rfind("--bench-speed-baseline=", 0) == 0) {
            speed_baseline =
                arg.substr(std::strlen("--bench-speed-baseline="));
        }
    }
    if (speed_mode)
        return runBenchSpeed(speed_out, speed_baseline);

    BenchContext ctx(argc, argv);
    printBenchHeader("Summary",
                     "headline paper claims vs measured (whole suite)",
                     ctx.params);

    ctx.needForAllWorkloads({SimConfig::baseline(ctx.gpu()),
                             SimConfig::renderingElimination(ctx.gpu()),
                             SimConfig::evr(ctx.gpu())});
    for (const std::string &alias : workloads::allAliases())
        if (workloads::infoFor(alias).is_3d)
            ctx.need(alias, SimConfig::evrReorderOnly(ctx.gpu()));
    ctx.prefetch();

    std::vector<double> time_ratio, energy_ratio, re_skip, evr_skip,
        layer_overhead, hw_overhead, geom_sig_share;
    std::vector<double> overshade_base, overshade_evr;

    for (const std::string &alias : ctx.aliases()) {
        RunResult base = ctx.runner.run(alias, SimConfig::baseline(ctx.gpu()));
        RunResult re =
            ctx.runner.run(alias, SimConfig::renderingElimination(ctx.gpu()));
        RunResult evr = ctx.runner.run(alias, SimConfig::evr(ctx.gpu()));

        time_ratio.push_back(static_cast<double>(evr.totalCycles()) /
                             base.totalCycles());
        energy_ratio.push_back(evr.totalEnergyNj() / base.totalEnergyNj());
        re_skip.push_back(re.tilesSkippedRatio());
        evr_skip.push_back(evr.tilesSkippedRatio());
        layer_overhead.push_back(evr.energy.layer_writes_nj /
                                 base.totalEnergyNj());
        hw_overhead.push_back((evr.energy.evr_hardware_nj +
                               evr.energy.re_hardware_nj) /
                              base.totalEnergyNj());

        if (workloads::infoFor(alias).is_3d) {
            RunResult ro =
                ctx.runner.run(alias, SimConfig::evrReorderOnly(ctx.gpu()));
            overshade_base.push_back(base.shadedPerPixel());
            overshade_evr.push_back(ro.shadedPerPixel());
        }
    }

    ReportTable table({"metric", "paper", "measured"});
    table.addRow({"execution-time reduction", "39%",
                  fmtPct(1.0 - mean(time_ratio))});
    table.addRow({"energy reduction", "43%",
                  fmtPct(1.0 - mean(energy_ratio))});
    table.addRow({"overshading reduction (3D)", "20%",
                  fmtPct(1.0 - mean(overshade_evr) / mean(overshade_base))});
    table.addRow({"tiles skipped by EVR", "54%", fmtPct(mean(evr_skip))});
    table.addRow({"extra tiles vs RE", "+5%",
                  "+" + fmtPct(mean(evr_skip) - mean(re_skip))});
    table.addRow({"layer-write energy overhead", "2.1%",
                  fmtPct(mean(layer_overhead))});
    table.addRow({"added-hardware energy overhead", "1.2%",
                  fmtPct(mean(hw_overhead))});
    table.print();

    printPaperShape(
        "absolute numbers depend on the synthetic workload mix and the "
        "analytic timing/energy substitutes; the qualitative claims — "
        "EVR wins everywhere, overheads ~1-2%, EVR > RE on tiles — are "
        "the reproduction target (see EXPERIMENTS.md)");
    return ctx.exitCode();
}
