/**
 * @file
 * Validation policy resolution.
 */
#include "common/validate.hpp"

#include <cstdio>
#include <cstdlib>

#include "common/env.hpp"
#include "common/log.hpp"

namespace evrsim {

const char *
validateModeName(ValidateMode mode)
{
    switch (mode) {
      case ValidateMode::Off:
        return "off";
      case ValidateMode::Permissive:
        return "permissive";
      case ValidateMode::Strict:
        return "strict";
    }
    return "unknown";
}

std::string
ValidationConfig::cacheTag() const
{
    if (!enabled())
        return "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "-V%s-s%g", validateModeName(mode),
                  tile_sample_rate);
    return buf;
}

Result<ValidationConfig>
validationFromEnvChecked()
{
    ValidationConfig cfg;

    if (Status s = rejectRetiredKnob("EVRSIM_VALIDATE_SAMPLE",
                                     "set EVRSIM_VALIDATE=mode:rate");
        !s.ok())
        return s;
    const char *raw = std::getenv("EVRSIM_VALIDATE");
    if (raw == nullptr)
        return cfg;
    std::string v = raw;
    std::string mode = v.substr(0, v.find(':'));
    if (mode == "off")
        cfg.mode = ValidateMode::Off;
    else if (mode == "permissive")
        cfg.mode = ValidateMode::Permissive;
    else if (mode == "strict")
        cfg.mode = ValidateMode::Strict;
    else
        return Status::invalidArgument(
            "EVRSIM_VALIDATE must be off, permissive or strict, with an "
            "optional :rate (got '" + v + "')");
    if (mode.size() < v.size()) {
        Result<double> rate = parseDoubleStrict(v.substr(mode.size() + 1));
        if (!rate.ok() || rate.value() < 0.0 || rate.value() > 1.0)
            return Status::invalidArgument(
                "EVRSIM_VALIDATE's :rate must be a number in [0, 1] "
                "(got '" + v + "')");
        cfg.tile_sample_rate = rate.value();
    }

    return cfg;
}

ValidationConfig
validationFromEnv()
{
    Result<ValidationConfig> cfg = validationFromEnvChecked();
    if (!cfg.ok())
        fatal("%s", cfg.status().message().c_str());
    return cfg.value();
}

} // namespace evrsim
