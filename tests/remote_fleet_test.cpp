/**
 * @file
 * Remote (TCP) fleet suite: the registration handshake and the
 * epoch/lease fencing contract, exercised against a real listening
 * control plane with scripted fake shards on loopback sockets.
 *
 * The fakes speak the wire protocol by hand (hello/welcome, pongs,
 * result frames) so every test controls exactly when a shard goes
 * silent, answers with a stale epoch, or reconnects — the failure
 * geometry the TcpShardTransport exists to contain:
 *
 *  - a hello carrying any prior epoch is rejected ("stale-epoch"):
 *    leases are never resumed;
 *  - a shard that misses its lease is fenced, and its in-flight run
 *    fails over exactly once (one failover, one fence — never a
 *    duplicate completion);
 *  - a frame stamped with a non-current epoch is dropped and counted,
 *    never matched to a waiter;
 *  - registration during drain is shed with a clean "draining" reject;
 *  - a quiet TCP fleet materializes every remote-fleet counter at
 *    zero, so "nothing happened" is assertable from metrics.
 *
 * Whole-process remote shards under network chaos are the chaos soak's
 * job (chaos_soak_test.cpp leg D/E).
 */
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "common/metrics.hpp"
#include "common/net.hpp"
#include "driver/envelope.hpp" // statusToJson
#include "service/fleet.hpp"
#include "service/service_protocol.hpp"
#include "service/tcp_transport.hpp"

namespace evrsim {
namespace {

using namespace std::chrono_literals;

/** A hand-driven remote shard: one connection, one MessageReader
 *  (carried across the handshake — it buffers pipelined frames). */
class FakeShard
{
  public:
    ~FakeShard() { close(); }

    Status
    dial(const std::string &addr, std::uint64_t prev_epoch,
         int version = kShardProtocolVersion)
    {
        close();
        Result<int> c = tcpConnect(addr, 2000);
        if (!c.ok())
            return c.status();
        fd_ = c.value();
        reader_ = std::make_unique<MessageReader>(fd_);
        Json hello = Json::object();
        hello.set("type", "hello");
        hello.set("version", version);
        hello.set("schema", kRemoteShardSchema);
        hello.set("capacity", 1);
        hello.set("prev_epoch", prev_epoch);
        return writeServiceMessage(fd_, std::move(hello));
    }

    Result<Json>
    next(int timeout_ms)
    {
        return reader_->next(timeout_ms);
    }

    void
    send(Json payload)
    {
        writeServiceMessage(fd_, std::move(payload));
    }

    void
    close()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        reader_.reset();
    }

    std::uint64_t epoch = 0;

  private:
    int fd_ = -1;
    std::unique_ptr<MessageReader> reader_;
};

/** Dial + read the handshake verdict in one step. */
Result<Json>
dialFor(FakeShard &shard, const std::string &addr,
        std::uint64_t prev_epoch, int version = kShardProtocolVersion)
{
    if (Status s = shard.dial(addr, prev_epoch, version); !s.ok())
        return s;
    return shard.next(2000);
}

std::string
rejectReason(const Json &msg)
{
    EXPECT_EQ(msg.get("type", Json("")).asString(), "reject");
    return msg.get("reason", Json("")).asString();
}

double
counterOrNegative(const std::string &name)
{
    Result<double> v = metricsValue(name);
    return v.ok() ? v.value() : -1.0;
}

FleetConfig
remoteFleetConfig(int shards)
{
    FleetConfig cfg;
    cfg.shards = shards;
    cfg.listen = "127.0.0.1:0";
    cfg.lease_ms = 250;
    cfg.ping_interval_ms = 50;
    cfg.breaker_threshold = 3;
    cfg.run_deadline_ms = 10000;
    cfg.poll_ms = 10;
    return cfg;
}

TEST(RemoteFleet, HandshakeFencingAndQuietCounters)
{
    ::unsetenv("EVRSIM_FAULT");
    metricsReset();

    FleetConfig cfg = remoteFleetConfig(1);
    cfg.shard_params_json = "{\"width\":64}";
    ShardFleet fleet(cfg, nullptr);
    ASSERT_TRUE(fleet.start().ok());
    std::string addr = fleet.listenAddress();
    ASSERT_FALSE(addr.empty());

    // Listening alone materializes every remote-fleet counter at
    // zero: a quiet fleet *asserts* quiet rather than being
    // indistinguishable from one that never exported the metric.
    for (const char *name :
         {"evrsim_fleet_fences_total", "evrsim_fleet_reconnects_total",
          "evrsim_fleet_partitions_total",
          "evrsim_fleet_stale_epochs_total",
          "evrsim_fleet_registrations_total",
          "evrsim_fleet_shed_registrations_total"})
        EXPECT_EQ(counterOrNegative(name), 0.0) << name;

    FakeShard shard;

    // A hello presenting any prior epoch is rejected: leases are
    // never resumed, whoever claims one must re-register fresh.
    Result<Json> verdict = dialFor(shard, addr, /*prev_epoch=*/7);
    ASSERT_TRUE(verdict.ok()) << verdict.status().toString();
    EXPECT_EQ(rejectReason(verdict.value()), "stale-epoch");

    // A protocol version mismatch is shed, not half-admitted.
    verdict = dialFor(shard, addr, 0, /*version=*/99);
    ASSERT_TRUE(verdict.ok()) << verdict.status().toString();
    EXPECT_EQ(rejectReason(verdict.value()), "bad-version");

    // A clean hello is welcomed into slot 0 under a fresh epoch, with
    // the lease and the params overlay riding along.
    verdict = dialFor(shard, addr, 0);
    ASSERT_TRUE(verdict.ok()) << verdict.status().toString();
    EXPECT_EQ(verdict.value().get("type", Json("")).asString(),
              "welcome");
    EXPECT_EQ(verdict.value().get("slot", Json(-1)).asU64(), 0u);
    EXPECT_GE(verdict.value().get("epoch", Json(0)).asU64(), 1u);
    EXPECT_EQ(verdict.value().get("lease_ms", Json(0)).asU64(), 250u);
    EXPECT_EQ(verdict.value().get("params", Json("")).asString(),
              cfg.shard_params_json);
    shard.close(); // slot frees once the plane's reader sees EOF

    // Registration during drain is shed with a clean reject.
    fleet.setRegistrationDraining(true);
    // The freed slot is only reusable after the reader noticed the
    // EOF; draining rejects happen before slot selection, so no wait
    // is needed for the verdict itself.
    verdict = dialFor(shard, addr, 0);
    ASSERT_TRUE(verdict.ok()) << verdict.status().toString();
    EXPECT_EQ(rejectReason(verdict.value()), "draining");
    shard.close();

    ShardFleet::Stats st = fleet.stats();
    EXPECT_EQ(st.registrations, 1u);
    EXPECT_EQ(st.reconnects, 0u);
    EXPECT_GE(st.stale_epochs, 1u);
    EXPECT_GE(st.shed_registrations, 2u); // bad-version + draining
    EXPECT_EQ(st.fences, 0u);

    fleet.stop();
}

TEST(RemoteFleet, LeaseFenceFailsOverExactlyOnceAndDropsStaleFrames)
{
    ::unsetenv("EVRSIM_FAULT");
    metricsReset();

    std::atomic<int> degraded_calls{0};
    ShardFleet fleet(remoteFleetConfig(2),
                     [&](const std::string &,
                         const SimConfig &) -> Result<RunResult> {
                         ++degraded_calls;
                         return Status::internal(
                             "degraded fallback must not run");
                     });
    ASSERT_TRUE(fleet.start().ok());
    std::string addr = fleet.listenAddress();
    ASSERT_FALSE(addr.empty());

    // Register A first (slot 0), then B (slot 1).
    FakeShard a, b;
    Result<Json> wa = dialFor(a, addr, 0);
    ASSERT_TRUE(wa.ok()) << wa.status().toString();
    ASSERT_EQ(wa.value().get("type", Json("")).asString(), "welcome");
    ASSERT_EQ(wa.value().get("slot", Json(-1)).asU64(), 0u);
    a.epoch = wa.value().get("epoch", Json(0)).asU64();

    Result<Json> wb = dialFor(b, addr, 0);
    ASSERT_TRUE(wb.ok()) << wb.status().toString();
    ASSERT_EQ(wb.value().get("type", Json("")).asString(), "welcome");
    ASSERT_EQ(wb.value().get("slot", Json(-1)).asU64(), 1u);
    b.epoch = wb.value().get("epoch", Json(0)).asU64();

    std::atomic<bool> stop{false};

    // A pongs until the run lands, then goes silent holding it — a
    // partitioned shard with work in flight. The lease must fence it.
    std::thread a_thread([&] {
        bool got_run = false;
        while (!stop.load()) {
            Result<Json> msg = a.next(50);
            if (!msg.ok()) {
                if (msg.status().code() == ErrorCode::DeadlineExceeded)
                    continue;
                return; // fenced: the plane tore the connection down
            }
            std::string type =
                msg.value().get("type", Json("")).asString();
            if (type == "run") {
                got_run = true;
                continue;
            }
            if (type == "ping" && !got_run) {
                Json pong = Json::object();
                pong.set("type", "pong");
                pong.set("seq", msg.value().get("seq", Json(0)));
                pong.set("epoch", a.epoch);
                a.send(std::move(pong));
            }
        }
    });

    // B serves pings, and answers the failed-over run twice: first
    // stamped with a *wrong* epoch (must be dropped and counted,
    // never matched), then with its real one.
    std::thread b_thread([&] {
        while (!stop.load()) {
            Result<Json> msg = b.next(50);
            if (!msg.ok()) {
                if (msg.status().code() == ErrorCode::DeadlineExceeded)
                    continue;
                return;
            }
            std::string type =
                msg.value().get("type", Json("")).asString();
            if (type == "ping") {
                Json pong = Json::object();
                pong.set("type", "pong");
                pong.set("seq", msg.value().get("seq", Json(0)));
                pong.set("epoch", b.epoch);
                b.send(std::move(pong));
                continue;
            }
            if (type != "run")
                continue;
            Json stale = Json::object();
            stale.set("type", "result");
            stale.set("seq", msg.value().get("seq", Json(0)));
            stale.set("ok", false);
            stale.set("status", statusToJson(Status::internal(
                                    "stale-epoch frame leaked")));
            stale.set("epoch", b.epoch + 1000);
            b.send(std::move(stale));

            Json result = Json::object();
            result.set("type", "result");
            result.set("seq", msg.value().get("seq", Json(0)));
            result.set("ok", false);
            result.set("status", statusToJson(Status::internal(
                                     "verdict-from-shard-b")));
            result.set("epoch", b.epoch);
            b.send(std::move(result));
        }
    });

    // A key whose primary is slot 0, so the run lands on A first.
    std::string key;
    for (int i = 0; i < 64 && key.empty(); ++i) {
        std::string candidate = "wl-" + std::to_string(i) + "/baseline";
        if (shardIndexForKey(candidate, 2) == 0)
            key = candidate;
    }
    ASSERT_FALSE(key.empty());

    GpuConfig gpu;
    SimConfig config = configByName("baseline", gpu).value();
    WorkerAttempt attempt = fleet.execute("wl", config, key);

    // The run completed exactly once, on B, with B's verdict intact.
    EXPECT_FALSE(attempt.worker_died);
    ASSERT_FALSE(attempt.status.ok());
    EXPECT_NE(attempt.status.message().find("verdict-from-shard-b"),
              std::string::npos)
        << attempt.status.toString();
    EXPECT_EQ(degraded_calls.load(), 0);

    ShardFleet::Stats st = fleet.stats();
    EXPECT_EQ(st.dispatched, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failovers, 1u); // exactly once
    EXPECT_EQ(st.fences, 1u);    // A's lease miss, condemned once
    EXPECT_GE(st.stale_epochs, 1u); // B's doctored frame dropped
    EXPECT_EQ(st.registrations, 2u);

    stop.store(true);
    fleet.stop();
    a_thread.join();
    b_thread.join();
}

TEST(RemoteFleet, ReconnectAfterDisconnectCountsAndGetsFreshEpoch)
{
    ::unsetenv("EVRSIM_FAULT");
    metricsReset();

    ShardFleet fleet(remoteFleetConfig(1), nullptr);
    ASSERT_TRUE(fleet.start().ok());
    std::string addr = fleet.listenAddress();

    FakeShard shard;
    Result<Json> first = dialFor(shard, addr, 0);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    ASSERT_EQ(first.value().get("type", Json("")).asString(),
              "welcome");
    std::uint64_t epoch1 = first.value().get("epoch", Json(0)).asU64();
    shard.close();

    // The slot frees once the plane's reader observes the EOF; the
    // stale-epoch dance (reject, then fresh hello) mirrors what a
    // real remote shard does after any disconnect.
    std::uint64_t epoch2 = 0;
    auto deadline = std::chrono::steady_clock::now() + 5s;
    while (std::chrono::steady_clock::now() < deadline) {
        Result<Json> r = dialFor(shard, addr, epoch1);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        ASSERT_EQ(rejectReason(r.value()), "stale-epoch");
        shard.close();

        r = dialFor(shard, addr, 0);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        if (r.value().get("type", Json("")).asString() == "reject") {
            // "fleet-full": the previous tenant's EOF has not been
            // observed yet. Back off and retry.
            EXPECT_EQ(rejectReason(r.value()), "fleet-full");
            shard.close();
            std::this_thread::sleep_for(20ms);
            continue;
        }
        epoch2 = r.value().get("epoch", Json(0)).asU64();
        break;
    }
    ASSERT_GT(epoch2, epoch1) << "epochs must be monotone";
    shard.close();

    // The welcome frame is written before the plane bumps its
    // counters; give the admission thread a beat to publish them.
    auto stat_deadline = std::chrono::steady_clock::now() + 2s;
    while (fleet.stats().reconnects < 1 &&
           std::chrono::steady_clock::now() < stat_deadline)
        std::this_thread::sleep_for(5ms);

    ShardFleet::Stats st = fleet.stats();
    EXPECT_EQ(st.registrations, 2u);
    EXPECT_EQ(st.reconnects, 1u);
    EXPECT_GE(st.stale_epochs, 1u);

    fleet.stop();
}

} // namespace
} // namespace evrsim
