/**
 * @file
 * Write-ahead sweep journal: crash-resumable progress for runAll().
 *
 * A paper-scale sweep is hours of accumulated simulation; a SIGKILL or
 * power loss minutes before the end used to cost everything the result
 * cache had not yet absorbed (and with EVRSIM_CACHE_DIR=off, everything).
 * The journal makes sweep progress itself durable: the runner appends
 * one fsync'd record when a job starts and one when it reaches a
 * terminal state (finished with its full RunResult, failed, or
 * crash-quarantined). EVRSIM_RESUME=1 replays the journal on startup
 * and pre-populates the scheduler's memo, so a resumed sweep
 * re-executes only the jobs that were in flight or not yet started —
 * and, because finish records embed the result document, resume works
 * even when the per-entry cache files are gone.
 *
 * Records live in an EnvelopeLog (driver/envelope.hpp), so a record
 * torn by the crash itself is detected and dropped instead of
 * poisoning the replay. The journal is shared by concurrent bench
 * binaries the same way the cache is: the log's appends interleave
 * whole lines, and keys are the cache-entry filenames, which already
 * encode (workload, config, dimensions, frames, validation, schema
 * version).
 */
#ifndef EVRSIM_DRIVER_SWEEP_JOURNAL_HPP
#define EVRSIM_DRIVER_SWEEP_JOURNAL_HPP

#include <map>
#include <string>

#include "common/status.hpp"
#include "driver/envelope.hpp"
#include "driver/run_result.hpp"

namespace evrsim {

/**
 * Journal schema version, embedded in every record's envelope; bump
 * when the record format changes so stale journals are skipped, not
 * misread.
 */
constexpr int kSweepJournalVersion = 1;

/** Append-side and replay-side of the sweep journal. */
class SweepJournal
{
  public:
    /** One replayed terminal outcome. */
    struct ReplayedOutcome {
        enum class Kind { Finished, Failed, Quarantined };
        Kind kind = Kind::Finished;
        RunResult result; ///< valid when kind == Finished
        Status status;    ///< valid otherwise
        int attempts = 0;
    };

    /** Everything a replay learned from the journal. */
    struct Replay {
        /** Last terminal outcome per job key (cache-entry filename). */
        std::map<std::string, ReplayedOutcome> outcomes;
        std::size_t records = 0;   ///< well-formed records read
        std::size_t damaged = 0;   ///< torn/corrupt lines dropped
        std::size_t in_flight = 0; ///< started jobs with no terminal record
        /** Terminal records that superseded an earlier terminal record
         *  for the same key. A resume-of-a-resume appends a second
         *  finish record per re-run job, so duplicates are expected
         *  there — last record wins, and the count surfaces in the
         *  sweep stats rather than silently inflating the journal. */
        std::size_t duplicates = 0;
    };

    /**
     * Open @p path for appending (creating it, and fsyncing the
     * directory entry when created). Idempotent per instance.
     */
    Status open(const std::string &path) { return log_.open(path); }

    /**
     * Read a journal and fold it into per-key terminal outcomes
     * (last record wins). A missing file is an empty Replay — resuming
     * a sweep that never started is a fresh sweep. Damaged lines
     * (typically the record torn by the crash being resumed from) are
     * counted and dropped.
     */
    static Result<Replay> replay(const std::string &path);

    /** Append one record; each is fsync'd before returning. */
    void recordStart(const std::string &key);
    void recordFinish(const std::string &key, const RunResult &result,
                      int attempts);
    void recordFail(const std::string &key, const Status &why,
                    int attempts, bool quarantined);

  private:
    EnvelopeLog log_{kSweepJournalVersion};
};

} // namespace evrsim

#endif // EVRSIM_DRIVER_SWEEP_JOURNAL_HPP
