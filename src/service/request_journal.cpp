/**
 * @file
 * RequestJournal implementation.
 */
#include "service/request_journal.hpp"

namespace evrsim {

void
RequestJournal::recordRequest(const std::string &id, const Json &spec)
{
    Json j = Json::object();
    j.set("type", "request");
    j.set("id", id);
    j.set("spec", spec);
    log_.append(std::move(j));
}

void
RequestJournal::recordDone(const std::string &id)
{
    Json j = Json::object();
    j.set("type", "done");
    j.set("id", id);
    log_.append(std::move(j));
}

Result<RequestJournal::Replay>
RequestJournal::replay(const std::string &path)
{
    Replay out;
    out.damaged = EnvelopeLog::replay(
        path, kRequestJournalVersion, [&](const Json &payload) {
            const Json *type = payload.find("type");
            const Json *id = payload.find("id");
            if (!type || !id || type->type() != Json::Type::String ||
                id->type() != Json::Type::String)
                return false;
            const std::string &rid = id->asString();
            if (type->asString() == "request") {
                const Json *spec = payload.find("spec");
                if (!spec || spec->type() != Json::Type::Object)
                    return false;
                ++out.records;
                if (out.specs.count(rid))
                    ++out.duplicates;
                out.specs[rid] = *spec; // last admission wins
                // A re-admission restarts the request: it is live
                // again until its new done record lands.
                out.done.erase(rid);
                return true;
            }
            if (type->asString() == "done") {
                ++out.records;
                out.done.insert(rid);
                return true;
            }
            return false;
        });
    return out;
}

} // namespace evrsim
