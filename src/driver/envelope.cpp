/**
 * @file
 * Envelope framing implementation.
 */
#include "driver/envelope.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/atomic_file.hpp"
#include "common/crc32.hpp"
#include "common/log.hpp"

namespace evrsim {

Json
wrapEnvelope(Json payload, int schema)
{
    std::string canonical = payload.dump(1);
    Json envelope = Json::object();
    envelope.set("schema", schema);
    envelope.set("payload_crc32",
                 static_cast<std::uint64_t>(
                     Crc32::of(canonical.data(), canonical.size())));
    envelope.set("payload", std::move(payload));
    return envelope;
}

Result<Json>
unwrapEnvelope(const Json &doc, int expected_schema)
{
    const Json *schema = doc.find("schema");
    if (!schema)
        return Status::dataLoss("missing schema field");
    Result<std::int64_t> schema_v = schema->tryAsI64();
    if (!schema_v.ok())
        return schema_v.status().withContext("schema");
    if (schema_v.value() != expected_schema)
        return Status::dataLoss(
            "schema version " + std::to_string(schema_v.value()) +
            " does not match expected " + std::to_string(expected_schema));

    const Json *crc = doc.find("payload_crc32");
    const Json *payload = doc.find("payload");
    if (!crc || !payload)
        return Status::dataLoss("missing payload or payload_crc32 field");
    Result<std::uint64_t> want = crc->tryAsU64();
    if (!want.ok())
        return want.status().withContext("payload_crc32");

    // The CRC covers the canonical re-serialization of the payload, so
    // it survives whitespace-preserving transport but catches any
    // value-level damage.
    std::string canonical = payload->dump(1);
    std::uint32_t got = Crc32::of(canonical.data(), canonical.size());
    if (got != static_cast<std::uint32_t>(want.value()))
        return Status::dataLoss("payload CRC mismatch (entry damaged)");

    return *payload;
}

Result<Json>
parseEnvelope(const std::string &text, int expected_schema)
{
    Result<Json> doc = Json::tryParse(text);
    if (!doc.ok())
        return doc.status();
    return unwrapEnvelope(doc.value(), expected_schema);
}

Json
statusToJson(const Status &s)
{
    Json j = Json::object();
    j.set("code", errorCodeName(s.code()));
    j.set("message", s.message());
    return j;
}

Status
statusFromJson(const Json &j, Status &out)
{
    const Json *code = j.find("code");
    const Json *message = j.find("message");
    if (!code || !message)
        return Status::dataLoss("status document missing code or message");
    Result<std::string> name = code->tryAsString();
    if (!name.ok())
        return name.status().withContext("status code");
    Result<std::string> text = message->tryAsString();
    if (!text.ok())
        return text.status().withContext("status message");

    // Codes travel by stable name, not enum value, so a document is
    // readable even if the enum is ever reordered.
    for (int c = 0; c <= static_cast<int>(ErrorCode::ResourceExhausted);
         ++c) {
        ErrorCode ec = static_cast<ErrorCode>(c);
        if (name.value() == errorCodeName(ec)) {
            out = ec == ErrorCode::Ok ? Status() : Status(ec, text.value());
            return {};
        }
    }
    return Status::dataLoss("unknown status code '" + name.value() + "'");
}

EnvelopeLog::~EnvelopeLog()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Status
EnvelopeLog::open(const std::string &path)
{
    if (fd_ >= 0)
        return {};
    bool existed = ::access(path.c_str(), F_OK) == 0;
    int fd = ::open(path.c_str(),
                    O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0)
        return Status::unavailable("open " + path + ": " +
                                   std::strerror(errno));
    if (!existed) {
        // The log's own directory entry must survive power loss, or
        // the first crash would replay a log that the filesystem
        // forgot ever existed.
        if (Status s = fsyncDirOf(path); !s.ok())
            warn("journal %s: %s", path.c_str(), s.message().c_str());
    }
    fd_ = fd;
    path_ = path;
    return {};
}

void
EnvelopeLog::append(Json payload)
{
    if (fd_ < 0)
        return;
    std::string line = wrapEnvelope(std::move(payload), schema_).dump(0);
    line += '\n';
    std::lock_guard<std::mutex> lock(mu_);
    if (!writeAll(fd_, line.data(), line.size())) {
        warn("journal append to %s failed: %s", path_.c_str(),
             std::strerror(errno));
        return;
    }
    if (::fsync(fd_) != 0)
        warn("journal fsync of %s failed: %s", path_.c_str(),
             std::strerror(errno));
}

std::size_t
EnvelopeLog::replay(const std::string &path, int schema,
                    const std::function<bool(const Json &)> &on_record)
{
    std::size_t damaged = 0;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Result<Json> payload = parseEnvelope(line, schema);
        // Typically the one record torn by the crash being replayed
        // from; dropping it is the conservative answer.
        if (!payload.ok() || !on_record(payload.value()))
            ++damaged;
    }
    return damaged;
}

} // namespace evrsim
