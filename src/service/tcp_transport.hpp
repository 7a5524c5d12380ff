/**
 * @file
 * TCP shard transport: the multi-machine rung of the fleet.
 *
 * The pipe transport forks its shards; this transport *accepts* them.
 * The control plane listens on EVRSIM_FLEET_LISTEN and remote shard
 * processes (`evrsim-daemon --evrsim-remote-shard=<host:port>`) dial
 * in and register. Registration is a hello/welcome handshake over the
 * same checksummed envelope line protocol the pipes use:
 *
 *   shard -> plane  {type:"hello", version, schema, capacity,
 *                    prev_epoch}
 *   plane -> shard  {type:"welcome", slot, epoch, lease_ms, params}
 *              or   {type:"reject", reason}   (connection closed)
 *
 * Reject reasons: "draining" (the daemon is shutting down),
 * "bad-version" (protocol mismatch), "stale-epoch" (the hello carried
 * a prior epoch — leases are never resumed; re-dial with a fresh
 * hello), "fleet-full" (every slot has a live endpoint).
 *
 * Epoch/lease fencing: every admission takes a *monotonically
 * increasing* epoch from the control plane. All frames both ways are
 * stamped with it; the plane drops any frame whose epoch is not the
 * slot's current one (counted as stale_epochs). When a shard misses
 * its lease (EVRSIM_LEASE_MS, the ping/pong machinery with a hard
 * deadline) the fleet fences it: in-flight runs fail over exactly
 * once, the connection is condemned, and the epoch dies with it — so
 * a partitioned shard that heals can never answer into the ring with
 * old work, own a content-key range twice, or duplicate a seq stream.
 * It must re-register and be handed a fresh epoch.
 *
 * The network fault sites (net-partition, net-delay, net-reset,
 * net-reconnect-storm — fault_injector.hpp) are drawn at this transport's
 * framed writes on both sides, keeping every injected network failure
 * counter-based and replayable.
 */
#ifndef EVRSIM_SERVICE_TCP_TRANSPORT_HPP
#define EVRSIM_SERVICE_TCP_TRANSPORT_HPP

#include <memory>
#include <string>

#include "service/fleet.hpp"

namespace evrsim {

/** Schema id a remote shard announces in its hello. */
constexpr const char *kRemoteShardSchema = "evrsim-shard";

/** The listening (control-plane) side of the TCP transport. */
std::unique_ptr<ShardTransport>
makeTcpShardTransport(const FleetConfig &config);

/**
 * Detect remote-shard mode in an embedding binary's argv: the
 * "host:port" from --evrsim-remote-shard=<host:port>, else "". Call
 * before normal flag parsing, like the --evrsim-shard probe.
 */
std::string remoteShardFlagFromArgv(int argc, char **argv);

/**
 * Serve as a remote shard until a shutdown signal, then exit: dial
 * @p host_port, register (re-registering with fresh hellos across
 * disconnects and fences, forever), apply the welcome's params
 * overlay, and run the same ping/run serve loop as the pipe shard —
 * with every response stamped with the epoch its run arrived under,
 * so a response that crosses a reconnect is dropped as stale by the
 * control plane instead of duplicating a completion.
 */
[[noreturn]] void runRemoteShardAndExit(const std::string &host_port,
                                        WorkloadFactory factory,
                                        BenchParams params);

} // namespace evrsim

#endif // EVRSIM_SERVICE_TCP_TRANSPORT_HPP
