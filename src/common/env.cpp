/**
 * @file
 * Environment-knob parsing implementation.
 */
#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace evrsim {

namespace {

/** strtoll/strtod skip leading whitespace; "entire string" must not. */
bool
startsWithSpace(const std::string &text)
{
    return !text.empty() &&
           std::isspace(static_cast<unsigned char>(text.front())) != 0;
}

} // namespace

Result<long long>
parseIntStrict(const std::string &text)
{
    if (text.empty())
        return Status::invalidArgument("empty value");
    if (startsWithSpace(text))
        return Status::invalidArgument("not an integer");
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (errno == ERANGE)
        return Status::invalidArgument("value out of integer range");
    if (end != text.c_str() + text.size())
        return Status::invalidArgument("not an integer");
    return v;
}

Result<double>
parseDoubleStrict(const std::string &text)
{
    if (text.empty())
        return Status::invalidArgument("empty value");
    if (startsWithSpace(text))
        return Status::invalidArgument("not a number");
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE)
        return Status::invalidArgument("value out of double range");
    if (end != text.c_str() + text.size())
        return Status::invalidArgument("not a number");
    return v;
}

Status
readIntKnob(const char *name, long long min_value, long long max_value,
            long long &out, bool &present)
{
    const char *raw = std::getenv(name);
    present = raw != nullptr;
    if (!present)
        return {};
    Result<long long> parsed = parseIntStrict(raw);
    if (!parsed.ok())
        return Status::invalidArgument(
            std::string(name) + "='" + raw + "' is not a valid integer");
    if (parsed.value() < min_value || parsed.value() > max_value)
        return Status::invalidArgument(
            std::string(name) + "=" + std::to_string(parsed.value()) +
            " is outside the accepted range [" +
            std::to_string(min_value) + ", " + std::to_string(max_value) +
            "]");
    out = parsed.value();
    return {};
}

Status
readChoiceKnob(const char *name, const std::vector<std::string> &choices,
               int &index, bool &present)
{
    const char *raw = std::getenv(name);
    present = raw != nullptr;
    if (!present)
        return {};
    for (std::size_t i = 0; i < choices.size(); ++i) {
        if (choices[i] == raw) {
            index = static_cast<int>(i);
            return {};
        }
    }
    std::string accepted;
    for (std::size_t i = 0; i < choices.size(); ++i) {
        if (i)
            accepted += "|";
        accepted += choices[i];
    }
    return Status::invalidArgument(std::string(name) + "='" + raw +
                                   "' is not one of " + accepted);
}

Status
rejectRetiredKnob(const char *name, const std::string &replacement)
{
    if (std::getenv(name) == nullptr)
        return {};
    return Status::invalidArgument(std::string(name) + " is retired: " +
                                   replacement);
}

} // namespace evrsim
