/**
 * @file
 * Self re-exec support for binaries that double as their own shard
 * processes (service/fleet.hpp spawns them with --evrsim-shard=<i>).
 */
#ifndef EVRSIM_DRIVER_SUPERVISOR_HPP
#define EVRSIM_DRIVER_SUPERVISOR_HPP

#include <string>

namespace evrsim {

/** Absolute path of the running executable (/proc/self/exe); empty
 *  when it cannot be resolved. */
std::string selfExecutablePath();

} // namespace evrsim

#endif // EVRSIM_DRIVER_SUPERVISOR_HPP
