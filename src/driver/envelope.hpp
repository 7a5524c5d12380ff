/**
 * @file
 * CRC32-enveloped JSON framing, shared by every place the driver moves
 * a JSON document across a trust boundary: the on-disk result cache,
 * the write-ahead journals (EnvelopeLog), and the worker-response pipe.
 *
 * An envelope is `{schema, payload_crc32, payload}`: the schema field
 * guards against a foreign or stale document that happens to land at a
 * current location, and the CRC32 of the payload's canonical
 * re-serialization detects any value-level damage (truncation is
 * caught earlier by the parse). Every failure is DataLoss — the
 * caller's recovery policy (quarantine, drop the journal tail, treat
 * the worker as dead) decides what that costs.
 */
#ifndef EVRSIM_DRIVER_ENVELOPE_HPP
#define EVRSIM_DRIVER_ENVELOPE_HPP

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>

#include "common/status.hpp"
#include "driver/json.hpp"

namespace evrsim {

/** Wrap @p payload in a `{schema, payload_crc32, payload}` envelope. */
Json wrapEnvelope(Json payload, int schema);

/**
 * Validate an envelope document and return its payload. DataLoss when
 * the schema field is missing or mismatched, the checksum field is
 * absent, or the payload bytes fail the CRC.
 */
Result<Json> unwrapEnvelope(const Json &doc, int expected_schema);

/** Json::tryParse + unwrapEnvelope in one step. */
Result<Json> parseEnvelope(const std::string &text, int expected_schema);

/**
 * Status <-> JSON, for transporting a worker's (or a journaled run's)
 * failure across a process or crash boundary with its ErrorCode
 * intact — a strict-validation InvariantViolation must arrive as
 * exactly that, not as a generic retryable error.
 *
 * statusFromJson returns Ok with the transported status in @p out, or
 * DataLoss when the document is unusable (out is untouched).
 */
Json statusToJson(const Status &s);
Status statusFromJson(const Json &j, Status &out);

/**
 * Append-only log of one-line envelopes: the write-ahead primitive
 * under the sweep and request journals, which add only their record
 * vocabulary and replay fold.
 *
 * Each append is one write(2) of a whole line on an O_APPEND
 * descriptor followed by one fsync, so processes sharing a log
 * interleave whole records, never fragments, and a record is durable
 * before append() returns. A record torn by a crash fails its envelope
 * on replay and is counted and dropped instead of poisoning the fold.
 */
class EnvelopeLog
{
  public:
    /** Records are framed and validated with envelope @p schema. */
    explicit EnvelopeLog(int schema) : schema_(schema) {}
    ~EnvelopeLog();

    EnvelopeLog(const EnvelopeLog &) = delete;
    EnvelopeLog &operator=(const EnvelopeLog &) = delete;

    /**
     * Open @p path for appending (creating it, and fsyncing the
     * directory entry when created). Idempotent per instance.
     */
    Status open(const std::string &path);

    /** Append one record, fsync'd before returning; a no-op when the
     *  log is not open, a warning when the write or fsync fails. */
    void append(Json payload);

    /**
     * Read the log at @p path and call @p on_record once per intact
     * payload, in file order; @p on_record returns false for a payload
     * its vocabulary cannot use. Returns the number of damaged lines:
     * envelope failures plus rejected payloads. A missing file has no
     * records and no damage.
     */
    static std::size_t
    replay(const std::string &path, int schema,
           const std::function<bool(const Json &)> &on_record);

  private:
    const int schema_;
    int fd_ = -1;
    std::string path_;
    std::mutex mu_;
};

} // namespace evrsim

#endif // EVRSIM_DRIVER_ENVELOPE_HPP
