/**
 * @file
 * Strict numeric parsing for environment knobs.
 *
 * The bench binaries are driven by EVRSIM_* environment variables; a
 * typo'd value silently parsed as 0 by atoi() (e.g. EVRSIM_FRAMES=3O)
 * would quietly run a wrong experiment. These parsers accept a value
 * only if the *entire* string is a number, and report rejections as
 * Status so the caller can name the offending variable in one line.
 */
#ifndef EVRSIM_COMMON_ENV_HPP
#define EVRSIM_COMMON_ENV_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace evrsim {

/**
 * Parse a base-10 integer, requiring full consumption of @p text
 * (surrounding whitespace rejected). InvalidArgument on anything else,
 * including empty input and overflow.
 */
Result<long long> parseIntStrict(const std::string &text);

/** Like parseIntStrict for a floating-point literal. */
Result<double> parseDoubleStrict(const std::string &text);

/**
 * Read an integer environment knob.
 *
 * @param name      variable name (used verbatim in error messages)
 * @param min_value inclusive lower bound
 * @param max_value inclusive upper bound
 * @param out       receives the value; untouched when the knob is unset
 * @returns Ok with @p present=false when unset; Ok with @p present=true
 *          on success; InvalidArgument naming the variable, its value
 *          and the accepted range otherwise.
 */
Status readIntKnob(const char *name, long long min_value,
                   long long max_value, long long &out, bool &present);

/**
 * Read an enumerated environment knob whose value must be one of
 * @p choices exactly (case-sensitive; e.g. EVRSIM_LOG=quiet|normal|
 * verbose).
 *
 * @param name    variable name (used verbatim in error messages)
 * @param choices accepted values, in declaration order
 * @param index   receives the matched choice's index; untouched when
 *                the knob is unset
 * @returns Ok with @p present=false when unset; Ok with @p present=true
 *          on a match; InvalidArgument naming the variable, its value
 *          and every accepted choice otherwise.
 */
Status readChoiceKnob(const char *name,
                      const std::vector<std::string> &choices, int &index,
                      bool &present);

/**
 * Fail fast on a retired knob, so a stale script cannot silently run
 * something else than it asks for.
 *
 * @returns Ok when @p name is unset; otherwise InvalidArgument
 *          "<name> is retired: <replacement>".
 */
Status rejectRetiredKnob(const char *name, const std::string &replacement);

} // namespace evrsim

#endif // EVRSIM_COMMON_ENV_HPP
