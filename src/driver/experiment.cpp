/**
 * @file
 * Experiment runner implementation.
 */
#include "driver/experiment.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <atomic>

#include "common/atomic_file.hpp"
#include "common/crash_handler.hpp"
#include "common/env.hpp"
#include "common/shutdown.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "driver/envelope.hpp"
#include "common/job_pool.hpp"
#include "scene/scene_fuzzer.hpp"

namespace evrsim {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/** Name of the write-ahead sweep journal inside the cache directory. */
constexpr const char *kSweepJournalName = "sweep.journal";

/** Clears the calling thread's crash context when a run ends. */
struct CrashContextGuard {
    ~CrashContextGuard() { crashContextClear(); }
};

/**
 * Live sweep telemetry: a timer thread that, every interval, prints a
 * one-line progress status (completed/total, sims/s, ETA, retries,
 * quarantines, cache ratio) and appends the same numbers as one JSON
 * line to heartbeat.jsonl. A terminal record is always appended when
 * the sweep ends, so even a sweep faster than one interval leaves a
 * machine-readable trail; records append (never truncate) so a resumed
 * sweep extends the same file.
 */
class SweepHeartbeat
{
  public:
    SweepHeartbeat(const ExperimentRunner &runner, const JobPool &pool,
                   const std::atomic<std::size_t> &completed,
                   std::size_t total, int interval_ms, std::string path)
        : runner_(runner), pool_(pool), completed_(completed),
          total_(total), path_(std::move(path)),
          start_(std::chrono::steady_clock::now()),
          thread_([this, interval_ms] { loop(interval_ms); })
    {
    }

    ~SweepHeartbeat()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
        emit(true);
    }

  private:
    void
    loop(int interval_ms)
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                             [this] { return stop_; }))
                return;
            lock.unlock();
            emit(false);
            lock.lock();
        }
    }

    /** One telemetry sample: status line (ticks only) + JSONL record. */
    void
    emit(bool final_record)
    {
        SweepStats s = runner_.sweepStats();
        std::size_t done = completed_.load(std::memory_order_relaxed);
        double elapsed_s = elapsedMs(start_) / 1000.0;
        double rate = elapsed_s > 0.0 ? done / elapsed_s : 0.0;
        double sims_per_s =
            elapsed_s > 0.0 ? s.simulated / elapsed_s : 0.0;
        double frames_per_s =
            elapsed_s > 0.0 ? s.frames_simulated / elapsed_s : 0.0;
        double eta_s =
            rate > 0.0 && total_ > done ? (total_ - done) / rate : 0.0;
        std::uint64_t served = s.disk_hits + s.memo_hits;
        double cache_ratio =
            s.requested > 0
                ? static_cast<double>(served) / s.requested
                : 0.0;

        if (!final_record) {
            std::fprintf(
                stderr,
                "[sweep] %zu/%zu done (%.0f%%), %.2f sims/s, "
                "%.1f frames/s, ETA %.0fs, queue %zu, retries %llu, "
                "failed %llu, cache %.0f%%\n",
                done, total_,
                total_ > 0 ? 100.0 * done / total_ : 100.0, sims_per_s,
                frames_per_s, eta_s, pool_.pendingCount(),
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.failed),
                100.0 * cache_ratio);
        }
        if (path_.empty())
            return;

        Json rec = Json::object();
        rec.set("completed", static_cast<std::uint64_t>(done));
        rec.set("total", static_cast<std::uint64_t>(total_));
        rec.set("elapsed_s", elapsed_s);
        rec.set("sims_per_s", sims_per_s);
        rec.set("frames_per_s", frames_per_s);
        rec.set("eta_s", eta_s);
        rec.set("pending", static_cast<std::uint64_t>(
                               pool_.pendingCount()));
        rec.set("simulated", s.simulated);
        rec.set("disk_hits", s.disk_hits);
        rec.set("memo_hits", s.memo_hits);
        rec.set("cache_ratio", cache_ratio);
        rec.set("retries", s.retries);
        rec.set("failed", s.failed);
        rec.set("quarantined", s.quarantined);
        rec.set("crash_quarantined", s.crash_quarantined);
        rec.set("resumed", s.resumed);
        rec.set("final", final_record);

        std::ofstream out(path_, std::ios::app);
        if (out)
            out << rec.dump() << "\n";
    }

    const ExperimentRunner &runner_;
    const JobPool &pool_;
    const std::atomic<std::size_t> &completed_;
    std::size_t total_;
    std::string path_;
    std::chrono::steady_clock::time_point start_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; ///< last member: starts after state is ready
};

/**
 * Per-run metrics adoption: every FrameStats counter (and the nested
 * memory sub-object), labeled by (workload, config), plus the run's
 * energy total. Field names track run_result.cpp's serialization table
 * automatically — a counter added there shows up here unprompted.
 */
void
recordRunMetrics(const std::string &alias, const std::string &config,
                 const RunResult &result, double wall_ms)
{
    MetricLabels labels{{"workload", alias}, {"config", config}};
    metricsCounterAdd("evrsim_runs_simulated_total", 1, labels);
    metricsCounterAdd("evrsim_frames_simulated_total",
                      static_cast<double>(result.frames), labels);
    metricsCounterAdd("evrsim_energy_total_nj", result.energy.total(),
                      labels);
    metricsHistogramObserve("evrsim_sim_wall_ms", wall_ms,
                            {{"config", config}});

    Json stats = frameStatsToJson(result.totals);
    for (const auto &[key, value] : stats.members()) {
        if (value.type() == Json::Type::Number) {
            metricsCounterAdd("evrsim_stat_" + key, value.asDouble(),
                              labels);
        } else if (value.type() == Json::Type::Object) {
            for (const auto &[sub, subval] : value.members())
                if (subval.type() == Json::Type::Number)
                    metricsCounterAdd("evrsim_stat_" + key + "_" + sub,
                                      subval.asDouble(), labels);
        }
    }
}

} // namespace

GpuConfig
BenchParams::gpuConfig() const
{
    GpuConfig gpu;
    gpu.screen_width = width;
    gpu.screen_height = height;
    return gpu;
}

int
BenchParams::resolvedJobs() const
{
    return jobs > 0 ? jobs : JobPool::defaultThreads();
}

std::string
BenchParams::obsDir() const
{
    if (!obs_dir.empty())
        return obs_dir;
    return use_cache ? cache_dir : std::string();
}

Result<BenchParams>
benchParamsFromEnvChecked()
{
    BenchParams p;
    // A 0|1 switch accepts exactly "0" or "1": "true" or "10" is a typo,
    // not a silent no-op or a silent yes.
    int choice = 0;
    bool present = false;
    auto readSwitch = [&](const char *name, bool &out) -> Status {
        Status s = readChoiceKnob(name, {"0", "1"}, choice, present);
        if (s.ok() && present)
            out = choice == 1;
        return s;
    };
    bool full = false;
    if (Status s = readSwitch("EVRSIM_FULL", full); !s.ok())
        return s;
    if (full) {
        p.width = 1196;
        p.height = 768;
        p.frames = 60;
    }

    // Strictly validated numeric knobs: name, range, destination.
    long long v = 0;
    if (Status s = readIntKnob("EVRSIM_WARMUP", 0, 1000000, v, present);
        !s.ok())
        return s;
    if (present)
        p.warmup = static_cast<int>(v);
    if (Status s = readIntKnob("EVRSIM_FRAMES", 1, 1000000, v, present);
        !s.ok())
        return s;
    if (present)
        p.frames = static_cast<int>(v);
    if (Status s = readIntKnob("EVRSIM_JOBS", 1, 4096, v, present);
        !s.ok())
        return s;
    if (present)
        p.jobs = static_cast<int>(v);
    if (Status s = readIntKnob("EVRSIM_TILE_JOBS", 1, 4096, v, present);
        !s.ok())
        return s;
    if (present)
        p.tile_jobs = static_cast<int>(v);
    if (Status s = readIntKnob("EVRSIM_JOB_TIMEOUT_MS", 0, 86400000, v,
                               present);
        !s.ok())
        return s;
    if (present)
        p.job_timeout_ms = static_cast<int>(v);
    if (Status s = readIntKnob("EVRSIM_JOB_MEM_MB", 0, 1048576, v, present);
        !s.ok())
        return s;
    if (present)
        p.job_mem_mb = static_cast<int>(v);
    if (Status s = readIntKnob("EVRSIM_SHARDS", 0, 1024, v, present);
        !s.ok())
        return s;
    if (present)
        p.shards = static_cast<int>(v);
    if (Status s = rejectRetiredKnob(
            "EVRSIM_ISOLATE", "set EVRSIM_SHARDS=n to run every "
                              "simulation on n shard processes");
        !s.ok())
        return s;
    if (Status s = rejectRetiredKnob(
            "EVRSIM_CORRUPT_KEEP",
            "the newest " + std::to_string(kCorruptKeep) +
                " quarantined copies per entry are always kept");
        !s.ok())
        return s;
    if (Status s = rejectRetiredKnob("EVRSIM_NO_CACHE",
                                     "set EVRSIM_CACHE_DIR=off");
        !s.ok())
        return s;
    for (const char *retired : {"EVRSIM_METRICS", "EVRSIM_SUMMARY",
                                "EVRSIM_HEARTBEAT_MS",
                                "EVRSIM_FLEET_EVENTS"})
        if (Status s = rejectRetiredKnob(
                retired, "set EVRSIM_OBS=dir to put every telemetry file "
                         "and metrics.json/metrics.prom in dir, or "
                         "EVRSIM_OBS=0 for none");
            !s.ok())
            return s;

    if (Status s = readChoiceKnob("EVRSIM_LOG",
                                  {"quiet", "normal", "verbose"}, choice,
                                  present);
        !s.ok())
        return s;
    if (present)
        p.log_level = static_cast<LogLevel>(choice);
    if (Status s = readSwitch("EVRSIM_RESUME", p.resume); !s.ok())
        return s;

    Result<ValidationConfig> val = validationFromEnvChecked();
    if (!val.ok())
        return val.status();
    p.validation = val.value();

    // An empty directory knob would root files at "" (the cwd) or, once
    // joined with "/", at the filesystem root: reject it.
    auto readDirKnob = [](const char *name, std::string &out) -> Status {
        const char *raw = std::getenv(name);
        if (raw == nullptr)
            return {};
        if (*raw == '\0')
            return Status::invalidArgument(std::string(name) +
                                           " is set but empty");
        out = raw;
        return {};
    };
    std::string cache_dir;
    if (Status s = readDirKnob("EVRSIM_CACHE_DIR", cache_dir); !s.ok())
        return s;
    // With the cache off, the journal still lives in the default dir,
    // for EVRSIM_RESUME=1 without a cache.
    p.use_cache = cache_dir != "off";
    p.cache_dir =
        cache_dir.empty() || !p.use_cache ? ".bench_cache" : cache_dir;
    if (Status s = readDirKnob("EVRSIM_OBS", p.obs_dir); !s.ok())
        return s;
    if (p.obs_dir == "0") {
        p.obs_dir.clear();
        p.write_summary = false;
        p.heartbeat_ms = 0;
    }
    return p;
}

BenchParams
benchParamsFromEnv()
{
    Result<BenchParams> p = benchParamsFromEnvChecked();
    if (!p.ok())
        fatal("%s", p.status().message().c_str());
    return p.value();
}

ExperimentRunner::ExperimentRunner(WorkloadFactory factory,
                                   const BenchParams &params)
    : ExperimentRunner(std::move(factory), params,
                       FaultInjector::planFromEnv())
{
}

ExperimentRunner::ExperimentRunner(WorkloadFactory factory,
                                   const BenchParams &params,
                                   const FaultPlan &faults)
    : factory_(std::move(factory)), params_(params), fault_(faults)
{
    EVRSIM_ASSERT(factory_ != nullptr);

    // The sweep journal lives alongside the cache; it also engages with
    // EVRSIM_CACHE_DIR=off when a resume is explicitly requested,
    // because the journal (not the cache) is what resume replays.
    if (!params_.use_cache && !params_.resume)
        return;
    std::error_code ec;
    std::filesystem::create_directories(params_.cache_dir, ec);
    std::string jpath =
        (std::filesystem::path(params_.cache_dir) / kSweepJournalName)
            .string();

    if (params_.resume) {
        Result<SweepJournal::Replay> replayed = SweepJournal::replay(jpath);
        if (!replayed.ok()) {
            warn("EVRSIM_RESUME: cannot replay %s (%s); starting fresh",
                 jpath.c_str(), replayed.status().toString().c_str());
        } else {
            const SweepJournal::Replay &rep = replayed.value();
            for (const auto &[key, ro] : rep.outcomes) {
                auto entry = std::make_shared<MemoEntry>();
                entry->done = true;
                entry->outcome.attempts = ro.attempts;
                switch (ro.kind) {
                case SweepJournal::ReplayedOutcome::Kind::Finished:
                    entry->outcome.result = ro.result;
                    break;
                case SweepJournal::ReplayedOutcome::Kind::Quarantined:
                    entry->outcome.quarantined = true;
                    [[fallthrough]];
                case SweepJournal::ReplayedOutcome::Kind::Failed:
                    entry->outcome.status = ro.status;
                    break;
                }
                // Journal keys are cache-entry filenames; the memo keys
                // on the full cache path.
                memo_.emplace(
                    (std::filesystem::path(params_.cache_dir) / key)
                        .string(),
                    std::move(entry));
                ++stats_.resumed;
            }
            stats_.resume_duplicates +=
                static_cast<std::uint64_t>(rep.duplicates);
            if (rep.duplicates > 0)
                warn("EVRSIM_RESUME: %zu duplicate terminal record(s) in "
                     "%s (resume-of-a-resume); last record wins",
                     rep.duplicates, jpath.c_str());
            if (rep.damaged > 0)
                warn("EVRSIM_RESUME: dropped %zu damaged journal "
                     "record(s) from %s (those jobs re-run)",
                     rep.damaged, jpath.c_str());
            if (rep.in_flight > 0)
                warn("EVRSIM_RESUME: %zu job(s) were in flight at the "
                     "interruption and will re-run",
                     rep.in_flight);
        }
    }

    if (Status s = journal_.open(jpath); !s.ok())
        warn("sweep journal disabled: %s", s.toString().c_str());
}

void
ExperimentRunner::setWorkerLauncher(WorkerLauncher launcher)
{
    std::lock_guard<std::mutex> lock(mu_);
    launcher_ = std::move(launcher);
}

std::string
ExperimentRunner::jobKey(const std::string &alias,
                         const SimConfig &config) const
{
    return std::filesystem::path(cachePath(alias, config))
        .filename()
        .string();
}

std::string
ExperimentRunner::cachePath(const std::string &alias,
                            const SimConfig &config) const
{
    std::ostringstream name;
    name << alias << '-' << config.name << '-' << params_.width << 'x'
         << params_.height << "-t" << config.gpu.tile_size << "-f"
         << params_.frames << "-w" << params_.warmup
         << effectiveValidation(config).cacheTag() << "-v"
         << kResultCacheVersion << ".json";
    return (std::filesystem::path(params_.cache_dir) / name.str()).string();
}

ValidationConfig
ExperimentRunner::effectiveValidation(const SimConfig &config) const
{
    return config.validation.enabled() ? config.validation
                                       : params_.validation;
}

Result<RunResult>
ExperimentRunner::trySimulate(const std::string &alias,
                              const SimConfig &config)
{
    // Injected job fault: reported as transient so the retry policy in
    // computeUncached() engages, exactly like a real I/O hiccup would.
    if (fault_.shouldFail(FaultSite::JobExecute))
        return Status::unavailable("injected job-execute fault (" +
                                   alias + "/" + config.name + ")");

    TraceSpan sim_span(TraceCat::Driver, "simulate");
    if (sim_span.active())
        sim_span.setDetail(alias + "/" + config.name);

    auto start = std::chrono::steady_clock::now();

    // Cooperative watchdog: a runaway simulation is caught at the next
    // frame boundary (frames are the natural unit of progress; nothing
    // inside a frame blocks, so between-frame checks bound the overrun
    // to one frame's wall-clock).
    auto overDeadline = [&]() {
        return params_.job_timeout_ms > 0 &&
               elapsedMs(start) >
                   static_cast<double>(params_.job_timeout_ms);
    };
    auto deadlineStatus = [&](int frames_done) {
        return Status::deadlineExceeded(
            alias + "/" + config.name + " exceeded EVRSIM_JOB_TIMEOUT_MS=" +
            std::to_string(params_.job_timeout_ms) + " after " +
            std::to_string(frames_done) + " frame(s)");
    };

    SimConfig cfg = config;
    cfg.validation = effectiveValidation(config);
    if (Status s = cfg.checkValid(); !s.ok())
        return s;

    try {
        std::unique_ptr<Workload> workload =
            factory_(alias, params_.width, params_.height);
        if (!workload)
            return Status::notFound("unknown workload alias '" + alias +
                                    "'");

        CrashContextGuard crash_guard;
        crashContextSetRun(alias.c_str(), cfg.name.c_str());

        // Scene-mutate fault site: corrupt the workload's frame copy
        // before it reaches the simulator. The decision is keyed by
        // (alias, absolute frame) only, so every configuration of a
        // workload sees the identical corruption — which is what lets
        // tests compare a corrupted EVR run against a corrupted
        // baseline bit for bit.
        const FaultSpec &mutate = fault_.spec(FaultSite::SceneMutate);
        SceneFuzzer fuzzer(mutate.seed);
        auto frameOf = [&](int absolute) {
            Scene scene = workload->frame(absolute);
            std::uint64_t key =
                mix64(fnv1a64(alias) ^
                      static_cast<std::uint64_t>(absolute));
            if (fault_.shouldFailAt(FaultSite::SceneMutate, key))
                fuzzer.corruptScene(scene, key);
            return scene;
        };
        auto renderChecked = [&](GpuSimulator &sim, int absolute) {
            crashContextSetFrame(absolute);
            Result<FrameStats> fs = sim.tryRenderFrame(frameOf(absolute));
            if (!fs.ok())
                return fs.status().withContext(alias + "/" + cfg.name +
                                               " frame " +
                                               std::to_string(absolute));
            return Status();
        };

        GpuSimulator sim(cfg);
        if (params_.tile_jobs > 1)
            sim.setTileExecution(active_pool_, params_.tile_jobs);
        workload->setup(sim);

        // Warm-up: establish FVP and signature state, then measure.
        for (int f = 0; f < params_.warmup; ++f) {
            if (Status s = renderChecked(sim, f); !s.ok())
                return s;
            if (overDeadline())
                return deadlineStatus(f + 1);
        }
        sim.resetTotals();

        for (int f = 0; f < params_.frames; ++f) {
            if (Status s = renderChecked(sim, params_.warmup + f);
                !s.ok())
                return s;
            if (overDeadline())
                return deadlineStatus(params_.warmup + f + 1);
        }

        RunResult r;
        r.workload = alias;
        r.config = cfg.name;
        r.frames = params_.frames;
        r.width = params_.width;
        r.height = params_.height;
        r.totals = sim.totals();
        r.energy = sim.energyOf(sim.totals());
        r.image_crc = sim.framebuffer().contentCrc();
        r.sim_wall_ms = elapsedMs(start);
        return r;
    } catch (const TransientError &e) {
        return Status::unavailable("workload '" + alias +
                                   "' raised a transient error: " +
                                   e.what());
    } catch (const std::bad_alloc &) {
        // In a shard, the EVRSIM_JOB_MEM_MB RLIMIT_AS turns a runaway
        // allocation into bad_alloc (when the allocator throws before
        // the OOM killer acts); transient, like any resource exhaustion.
        return Status::unavailable("workload '" + alias +
                                   "' ran out of memory");
    } catch (const std::exception &e) {
        return Status::internal("workload '" + alias +
                                "' threw: " + e.what());
    } catch (...) {
        return Status::internal("workload '" + alias +
                                "' threw a non-std exception");
    }
}

RunResult
ExperimentRunner::simulate(const std::string &alias, const SimConfig &config)
{
    Result<RunResult> r = trySimulate(alias, config);
    if (!r.ok())
        fatal("%s", r.status().toString().c_str());
    return r.value();
}

Result<RunResult>
ExperimentRunner::loadCacheEntry(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::notFound("no cache entry at " + path);

    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof())
        return Status::dataLoss("read error on " + path);

    if (fault_.shouldFail(FaultSite::CacheRead))
        return Status::dataLoss("injected cache-read fault");

    // v3 envelope: {schema, payload_crc32, payload} (driver/envelope.hpp,
    // shared with the sweep journal and the shard pipe). The schema
    // field guards against a foreign or stale document that happens to
    // land at a current filename; the CRC detects any corruption of the
    // payload bytes (truncation is caught earlier by the parse).
    Result<Json> payload = parseEnvelope(buf.str(), kResultCacheVersion);
    if (!payload.ok())
        return payload.status();
    return RunResult::tryFromJson(payload.value());
}

void
ExperimentRunner::quarantine(const std::string &path, const Status &why)
{
    if (traceEnabled(TraceCat::Cache))
        traceInstant(TraceCat::Cache, "cache-quarantine",
                     std::filesystem::path(path).filename().string());

    // Existing quarantined copies of this entry, as (seq, path) pairs
    // parsed from the `<entry>.<seq>.corrupt` naming.
    const std::string base =
        std::filesystem::path(path).filename().string() + ".";
    const std::string suffix = ".corrupt";
    std::error_code ec;
    std::vector<std::pair<long long, std::filesystem::path>> copies;
    for (const auto &e : std::filesystem::directory_iterator(
             std::filesystem::path(path).parent_path(), ec)) {
        std::string name = e.path().filename().string();
        if (name.size() <= base.size() + suffix.size())
            continue;
        if (name.compare(0, base.size(), base) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        std::string mid = name.substr(
            base.size(), name.size() - base.size() - suffix.size());
        if (mid.empty() ||
            mid.find_first_not_of("0123456789") != std::string::npos)
            continue;
        copies.emplace_back(std::stoll(mid), e.path());
    }

    // Destination `<entry>.<seq>.corrupt` with seq = max existing + 1:
    // successive quarantines keep distinct post-mortem evidence, seq
    // order stays the age order even after evictions recycle low
    // numbers, and the extension stays `.corrupt` so tooling that
    // filters on it keeps working.
    long long seq = 0;
    for (const auto &copy : copies)
        seq = std::max(seq, copy.first + 1);
    std::string dest = path + "." + std::to_string(seq) + suffix;

    std::filesystem::rename(path, dest, ec);
    if (ec) {
        // Could not set it aside (permissions, races): remove instead,
        // so the bad entry cannot poison the next sweep either way.
        warn("could not quarantine %s (%s); removing it", path.c_str(),
             ec.message().c_str());
        std::filesystem::remove(path, ec);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.quarantined;
        return;
    }
    warn("quarantined corrupt cache entry %s -> %s: %s", path.c_str(),
         dest.c_str(), why.toString().c_str());
    copies.emplace_back(seq, dest);

    // Cap the pile: a crash-looping or bit-rotting deployment would
    // otherwise grow one `.corrupt` per damaged read forever. Keep the
    // newest kCorruptKeep copies (highest sequence numbers), evict the
    // rest, and account for the eviction in the sweep stats.
    std::uint64_t evicted = 0;
    const std::size_t keep = kCorruptKeep;
    if (copies.size() > keep) {
        std::sort(copies.begin(), copies.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        for (std::size_t i = keep; i < copies.size(); ++i) {
            std::filesystem::remove(copies[i].second, ec);
            if (!ec)
                ++evicted;
        }
    }

    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.quarantined;
    stats_.corrupt_evicted += evicted;
}

void
ExperimentRunner::storeCacheEntry(const std::string &path,
                                  const RunResult &r)
{
    if (fault_.shouldFail(FaultSite::CacheWrite)) {
        warn("injected cache-write fault, not publishing %s",
             path.c_str());
        return;
    }

    std::error_code ec;
    std::filesystem::create_directories(params_.cache_dir, ec);

    // Write-then-fsync-then-rename (common/atomic_file.hpp) so a
    // concurrent bench binary, a kill mid write, or a power loss can
    // never leave a truncated or unsynced entry at the published name.
    // Within one process the memo guarantees a single writer per key.
    std::string text =
        wrapEnvelope(r.toJson(), kResultCacheVersion).dump(1);
    if (Status s = atomicWriteFile(path, text); !s.ok())
        warn("could not publish cache entry %s: %s", path.c_str(),
             s.message().c_str());
}

Result<RunResult>
ExperimentRunner::attemptOnce(const std::string &alias,
                              const SimConfig &config,
                              const std::string &path, bool &worker_died)
{
    worker_died = false;
    WorkerLauncher launcher;
    {
        std::lock_guard<std::mutex> lock(mu_);
        launcher = launcher_;
    }
    if (!launcher)
        return trySimulate(alias, config);
    WorkerAttempt a = launcher(
        alias, config, std::filesystem::path(path).filename().string());
    worker_died = a.worker_died;
    if (!a.status.ok())
        return a.status;
    return a.result;
}

ExperimentRunner::RunOutcome
ExperimentRunner::computeUncached(const std::string &alias,
                                  const SimConfig &config,
                                  const std::string &path, bool &from_disk)
{
    from_disk = false;
    if (params_.use_cache) {
        Result<RunResult> cached = loadCacheEntry(path);
        if (cached.ok()) {
            if (traceEnabled(TraceCat::Cache))
                traceInstant(TraceCat::Cache, "cache-hit",
                             alias + "/" + config.name);
            from_disk = true;
            return {cached.value(), Status(), 0};
        }
        if (traceEnabled(TraceCat::Cache))
            traceInstant(TraceCat::Cache, "cache-miss",
                         alias + "/" + config.name);
        // A plain miss (NotFound) is the normal cold path; anything
        // else means the entry exists but cannot be trusted — set it
        // aside for post-mortem and fall through to re-simulation.
        if (cached.status().code() != ErrorCode::NotFound)
            quarantine(path, cached.status());
    }

    RunOutcome outcome;
    int worker_deaths = 0;
    for (int attempt = 1; attempt <= kJobMaxAttempts; ++attempt) {
        outcome.attempts = attempt;
        bool worker_died = false;
        Result<RunResult> r = [&]() {
            TraceSpan attempt_span(TraceCat::Driver, "attempt");
            attempt_span.setValue(attempt);
            if (attempt_span.active())
                attempt_span.setDetail(alias + "/" + config.name);
            return attemptOnce(alias, config, path, worker_died);
        }();
        if (worker_died)
            ++worker_deaths;
        if (r.ok()) {
            outcome.result = r.value();
            outcome.status = Status();
            if (params_.use_cache)
                storeCacheEntry(path, outcome.result);
            return outcome;
        }
        outcome.status = r.status();
        if (!outcome.status.isTransient() || attempt == kJobMaxAttempts)
            break;
        if (traceEnabled(TraceCat::Driver))
            traceInstant(TraceCat::Driver, "retry",
                         alias + "/" + config.name + " attempt " +
                             std::to_string(attempt));
        int backoff_ms = kRetryBaseMs << (attempt - 1);
        warn("run %s/%s attempt %d/%d failed (%s); retrying in %d ms",
             alias.c_str(), config.name.c_str(), attempt, kJobMaxAttempts,
             outcome.status.toString().c_str(), backoff_ms);
        if (!interruptibleSleepMs(backoff_ms)) {
            outcome.status = Status::cancelled(
                "retry abandoned: shutdown requested during backoff "
                "(last failure: " +
                outcome.status.message() + ")");
            break;
        }
    }
    // Every attempt was a hard worker death (crash, deadline SIGKILL,
    // OOM): the job is crash-quarantined — surfaced in the failure
    // report and skipped by later requesters via the memo/journal.
    outcome.quarantined =
        !outcome.status.ok() && worker_deaths >= kJobMaxAttempts;
    return outcome;
}

ExperimentRunner::RunOutcome
ExperimentRunner::runMemoized(const std::string &alias,
                              const SimConfig &config)
{
    std::string key = cachePath(alias, config);
    const bool metrics_on = !params_.obs_dir.empty();

    std::shared_ptr<MemoEntry> entry;
    {
        std::unique_lock<std::mutex> lock(mu_);
        ++stats_.requested;
        auto it = memo_.find(key);
        if (it != memo_.end()) {
            // Either already computed or in flight on another worker;
            // both count as a memo hit for this requester. Failures
            // memoize too: a triple that exhausted its retries is not
            // retried again by every later requester.
            entry = it->second;
            memo_done_.wait(lock, [&] { return entry->done; });
            ++stats_.memo_hits;
            if (traceEnabled(TraceCat::Cache))
                traceInstant(TraceCat::Cache, "memo-hit",
                             alias + "/" + config.name);
            if (metrics_on)
                metricsCounterAdd("evrsim_runs_total", 1,
                                  {{"outcome", "memo"}});
            return entry->outcome;
        }
        entry = std::make_shared<MemoEntry>();
        memo_.emplace(key, entry);
    }

    // We own the computation for this key; everyone else waits on entry.
    // The journal write-ahead record goes first: a crash between it and
    // the terminal record replays as "in flight", which re-runs the job.
    std::string jkey = std::filesystem::path(key).filename().string();
    journal_.recordStart(jkey);
    bool from_disk = false;
    auto start = std::chrono::steady_clock::now();
    RunOutcome outcome;
    {
        TraceSpan job_span(TraceCat::Driver, "job");
        if (job_span.active())
            job_span.setDetail(alias + "/" + config.name);
        outcome = computeUncached(alias, config, key, from_disk);
    }
    double wall_ms = elapsedMs(start);
    if (outcome.status.ok())
        journal_.recordFinish(jkey, outcome.result, outcome.attempts);
    else
        journal_.recordFail(jkey, outcome.status, outcome.attempts,
                            outcome.quarantined);

    {
        std::lock_guard<std::mutex> lock(mu_);
        entry->outcome = outcome;
        entry->done = true;
        if (outcome.attempts > 1)
            stats_.retries +=
                static_cast<std::uint64_t>(outcome.attempts - 1);
        if (!outcome.status.ok()) {
            ++stats_.failed;
            if (outcome.quarantined)
                ++stats_.crash_quarantined;
        } else if (from_disk) {
            ++stats_.disk_hits;
        } else {
            ++stats_.simulated;
            stats_.frames_simulated +=
                static_cast<std::uint64_t>(params_.frames);
            stats_.sim_wall_ms += wall_ms;
            stats_.degraded_tiles += outcome.result.totals.degraded_tiles;
            stats_.validate_violations +=
                outcome.result.totals.validate_violations;
        }
    }
    if (metrics_on) {
        if (!outcome.status.ok())
            metricsCounterAdd("evrsim_runs_total", 1,
                              {{"outcome", "failed"}});
        else if (from_disk)
            metricsCounterAdd("evrsim_runs_total", 1,
                              {{"outcome", "disk"}});
        else {
            metricsCounterAdd("evrsim_runs_total", 1,
                              {{"outcome", "simulated"}});
            recordRunMetrics(alias, config.name, outcome.result, wall_ms);
        }
        if (outcome.attempts > 1)
            metricsCounterAdd("evrsim_retries_total",
                              static_cast<double>(outcome.attempts - 1));
    }
    memo_done_.notify_all();
    return outcome;
}

Result<RunResult>
ExperimentRunner::tryRun(const std::string &alias, const SimConfig &config)
{
    RunOutcome outcome = runMemoized(alias, config);
    if (!outcome.status.ok())
        return outcome.status;
    return outcome.result;
}

RunResult
ExperimentRunner::run(const std::string &alias, const SimConfig &config)
{
    RunOutcome outcome = runMemoized(alias, config);
    if (!outcome.status.ok())
        fatal("run %s/%s failed after %d attempt(s): %s", alias.c_str(),
              config.name.c_str(), outcome.attempts,
              outcome.status.toString().c_str());
    return outcome.result;
}

BatchOutcome
ExperimentRunner::runAllChecked(const std::vector<RunRequest> &requests)
{
    auto start = std::chrono::steady_clock::now();
    BatchOutcome batch;
    batch.results.resize(requests.size());
    {
        std::mutex failures_mu;
        std::atomic<std::size_t> completed{0};
        int jobs = params_.resolvedJobs();
        if (jobs > static_cast<int>(requests.size()) && !requests.empty())
            jobs = static_cast<int>(requests.size());
        JobPool pool(std::max(jobs, 1));
        // Published before any job is submitted, cleared after wait():
        // tile jobs inside simulations nest onto this pool via
        // JobPool::runBatch instead of spawning a pool per simulator.
        active_pool_ = &pool;
        std::unique_ptr<SweepHeartbeat> heartbeat;
        if (params_.heartbeat_ms > 0 && !requests.empty())
            heartbeat = std::make_unique<SweepHeartbeat>(
                *this, pool, completed, requests.size(),
                params_.heartbeat_ms, heartbeatPath());
        for (std::size_t i = 0; i < requests.size(); ++i) {
            pool.submit([this, &requests, &batch, &failures_mu,
                         &completed, i] {
                // Cooperative shutdown: a job not yet started when the
                // signal arrived is shed, not simulated — running jobs
                // finish, the journal and telemetry flush through the
                // normal end-of-sweep path, and the binary exits
                // 128+signal.
                if (shutdownRequested()) {
                    {
                        std::lock_guard<std::mutex> lock(failures_mu);
                        batch.failures.push_back(
                            {i, requests[i].alias,
                             requests[i].config.name,
                             Status::cancelled(
                                 "sweep interrupted by signal; job "
                                 "not started"),
                             0, false});
                    }
                    {
                        std::lock_guard<std::mutex> lock(mu_);
                        ++stats_.cancelled;
                    }
                    completed.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
                RunOutcome outcome =
                    runMemoized(requests[i].alias, requests[i].config);
                if (outcome.status.ok()) {
                    batch.results[i] = outcome.result;
                } else {
                    std::lock_guard<std::mutex> lock(failures_mu);
                    batch.failures.push_back(
                        {i, requests[i].alias, requests[i].config.name,
                         outcome.status, outcome.attempts,
                         outcome.quarantined});
                }
                completed.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.wait();
        active_pool_ = nullptr;
        heartbeat.reset(); // appends the terminal heartbeat record
        // runMemoized() catches everything a job can raise, so escaped
        // exceptions here are scheduler bugs, not workload faults.
        EVRSIM_ASSERT(pool.failureCount() == 0);
    }
    std::sort(batch.failures.begin(), batch.failures.end(),
              [](const RunFailure &a, const RunFailure &b) {
                  return a.index < b.index;
              });
    {
        std::lock_guard<std::mutex> lock(mu_);
        stats_.batch_wall_ms += elapsedMs(start);
    }
    return batch;
}

std::vector<RunResult>
ExperimentRunner::runAll(const std::vector<RunRequest> &requests)
{
    BatchOutcome batch = runAllChecked(requests);
    if (!batch.ok()) {
        const RunFailure &first = batch.failures.front();
        fatal("%zu of %zu runs failed; first: %s/%s after %d attempt(s): "
              "%s",
              batch.failures.size(), requests.size(), first.alias.c_str(),
              first.config.c_str(), first.attempts,
              first.status.toString().c_str());
    }
    return std::move(batch.results);
}

SweepStats
ExperimentRunner::sweepStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::string
ExperimentRunner::heartbeatPath() const
{
    std::string dir = params_.obsDir();
    if (dir.empty())
        return {};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return (std::filesystem::path(dir) / "heartbeat.jsonl").string();
}

Status
ExperimentRunner::writeMetricsArtifacts()
{
    if (params_.obs_dir.empty())
        return {};

    // Sweep-level aggregates as gauges, refreshed at export time so the
    // JSON numbers are exactly the ones printSweepSummary() prints.
    SweepStats s = sweepStats();
    metricsGaugeSet("evrsim_sweep_requested",
                    static_cast<double>(s.requested));
    metricsGaugeSet("evrsim_sweep_simulated",
                    static_cast<double>(s.simulated));
    metricsGaugeSet("evrsim_sweep_disk_hits",
                    static_cast<double>(s.disk_hits));
    metricsGaugeSet("evrsim_sweep_memo_hits",
                    static_cast<double>(s.memo_hits));
    metricsGaugeSet("evrsim_sweep_frames_simulated",
                    static_cast<double>(s.frames_simulated));
    metricsGaugeSet("evrsim_sweep_sim_wall_ms", s.sim_wall_ms);
    metricsGaugeSet("evrsim_sweep_batch_wall_ms", s.batch_wall_ms);
    metricsGaugeSet("evrsim_sweep_quarantined",
                    static_cast<double>(s.quarantined));
    metricsGaugeSet("evrsim_sweep_retries",
                    static_cast<double>(s.retries));
    metricsGaugeSet("evrsim_sweep_failed", static_cast<double>(s.failed));
    metricsGaugeSet("evrsim_sweep_crash_quarantined",
                    static_cast<double>(s.crash_quarantined));
    metricsGaugeSet("evrsim_sweep_corrupt_evicted",
                    static_cast<double>(s.corrupt_evicted));
    metricsGaugeSet("evrsim_sweep_resumed",
                    static_cast<double>(s.resumed));
    metricsGaugeSet("evrsim_sweep_resume_duplicates",
                    static_cast<double>(s.resume_duplicates));
    metricsGaugeSet("evrsim_sweep_cancelled",
                    static_cast<double>(s.cancelled));
    metricsGaugeSet("evrsim_sweep_degraded_tiles",
                    static_cast<double>(s.degraded_tiles));
    metricsGaugeSet("evrsim_sweep_validate_violations",
                    static_cast<double>(s.validate_violations));
    metricsGaugeSet("evrsim_sweep_jobs",
                    static_cast<double>(params_.resolvedJobs()));

    std::error_code ec;
    std::filesystem::path dir(params_.obsDir());
    std::filesystem::create_directories(dir, ec);
    if (Status st = metricsWriteJson((dir / "metrics.json").string());
        !st.ok())
        return st;
    return metricsWriteProm((dir / "metrics.prom").string());
}

} // namespace evrsim
