/**
 * @file
 * SweepJournal implementation.
 */
#include "driver/sweep_journal.hpp"

#include <set>

namespace evrsim {

void
SweepJournal::recordStart(const std::string &key)
{
    Json j = Json::object();
    j.set("type", "start");
    j.set("key", key);
    log_.append(std::move(j));
}

void
SweepJournal::recordFinish(const std::string &key, const RunResult &result,
                           int attempts)
{
    Json j = Json::object();
    j.set("type", "finish");
    j.set("key", key);
    j.set("attempts", attempts);
    j.set("result", result.toJson());
    log_.append(std::move(j));
}

void
SweepJournal::recordFail(const std::string &key, const Status &why,
                         int attempts, bool quarantined)
{
    Json j = Json::object();
    j.set("type", "fail");
    j.set("key", key);
    j.set("attempts", attempts);
    j.set("quarantined", quarantined);
    j.set("status", statusToJson(why));
    log_.append(std::move(j));
}

Result<SweepJournal::Replay>
SweepJournal::replay(const std::string &path)
{
    Replay out;
    std::set<std::string> started;
    // A dropped record (typically the one torn by the crash being
    // resumed from) re-runs its job, which is the conservative answer.
    out.damaged = EnvelopeLog::replay(
        path, kSweepJournalVersion, [&](const Json &payload) {
            const Json *type = payload.find("type");
            const Json *key = payload.find("key");
            if (!type || !key || type->type() != Json::Type::String ||
                key->type() != Json::Type::String)
                return false;
            const std::string &k = key->asString();
            if (type->asString() == "start") {
                ++out.records;
                started.insert(k);
                return true;
            }

            ReplayedOutcome outcome;
            if (const Json *attempts = payload.find("attempts");
                attempts && attempts->type() == Json::Type::Number)
                outcome.attempts = static_cast<int>(attempts->asI64());

            if (type->asString() == "finish") {
                const Json *result = payload.find("result");
                if (!result)
                    return false;
                Result<RunResult> r = RunResult::tryFromJson(*result);
                if (!r.ok())
                    return false;
                outcome.kind = ReplayedOutcome::Kind::Finished;
                outcome.result = r.value();
            } else if (type->asString() == "fail") {
                const Json *status = payload.find("status");
                Status reported;
                if (!status || !statusFromJson(*status, reported).ok() ||
                    reported.ok())
                    return false;
                bool quarantined = false;
                if (const Json *q = payload.find("quarantined");
                    q && q->type() == Json::Type::Bool)
                    quarantined = q->asBool();
                outcome.kind = quarantined
                                   ? ReplayedOutcome::Kind::Quarantined
                                   : ReplayedOutcome::Kind::Failed;
                outcome.status = reported;
            } else {
                return false;
            }
            ++out.records;
            started.erase(k);
            if (out.outcomes.count(k))
                ++out.duplicates;
            out.outcomes[k] = std::move(outcome); // last terminal wins
            return true;
        });
    for (const std::string &k : started)
        if (!out.outcomes.count(k))
            ++out.in_flight;
    return out;
}

} // namespace evrsim
