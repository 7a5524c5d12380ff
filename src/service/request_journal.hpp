/**
 * @file
 * Write-ahead request journal for the sweep service.
 *
 * The sweep journal (driver/sweep_journal.hpp) makes *job* progress
 * durable; this journal makes *request identity* durable. Each admitted
 * request is appended before its first job starts (`request` record,
 * spec embedded) and again when its final reply is sent (`done`
 * record). A SIGKILLed daemon restarts, replays both journals, and a
 * client that reconnects with its request id — or a bare `attach` — is
 * served the byte-identical reply: the spec comes from this journal,
 * and every run the crashed daemon completed comes from the sweep
 * journal or the result cache instead of re-simulating.
 *
 * Records live in an EnvelopeLog (driver/envelope.hpp), like the sweep
 * journal's, so a record torn by the crash itself is detected and
 * dropped on replay.
 */
#ifndef EVRSIM_SERVICE_REQUEST_JOURNAL_HPP
#define EVRSIM_SERVICE_REQUEST_JOURNAL_HPP

#include <map>
#include <set>
#include <string>

#include "common/status.hpp"
#include "driver/envelope.hpp"
#include "driver/json.hpp"

namespace evrsim {

/** Request journal schema version (envelope field). */
constexpr int kRequestJournalVersion = 1;

/** Append-side and replay-side of the service request journal. */
class RequestJournal
{
  public:
    /** Everything a replay learned. */
    struct Replay {
        /** Last spec per request id: {client, runs:[...]} documents. */
        std::map<std::string, Json> specs;
        /** Request ids whose final reply was sent before the crash. */
        std::set<std::string> done;
        std::size_t records = 0;    ///< well-formed records read
        std::size_t damaged = 0;    ///< torn/corrupt lines dropped
        std::size_t duplicates = 0; ///< re-admissions of a known id
    };

    /** Open @p path for appending (created + directory-fsynced). */
    Status open(const std::string &path) { return log_.open(path); }

    /** Fold a journal into per-id specs and the done set; a missing
     *  file is an empty Replay. */
    static Result<Replay> replay(const std::string &path);

    /** Append one admission record; @p spec is {client, runs:[...]}. */
    void recordRequest(const std::string &id, const Json &spec);

    /** Append one completion record. */
    void recordDone(const std::string &id);

  private:
    EnvelopeLog log_{kRequestJournalVersion};
};

} // namespace evrsim

#endif // EVRSIM_SERVICE_REQUEST_JOURNAL_HPP
