/**
 * @file
 * Ordered stream implementation.
 */
#include "common/ordered_stream.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "common/log.hpp"

namespace evrsim {

namespace {

/** Progress of one item from the thread that produced it to the owner. */
enum ItemState : int { kItemPending, kItemProduced, kItemFailed };

} // namespace

void
runOrderedStream(JobPool &pool, int jobs, int count, int window,
                 const OrderedStreamSteps &steps)
{
    EVRSIM_ASSERT(jobs >= 1 && window >= 1);
    if (count <= 0)
        return;
    // Stored (release, under mu) once the item's slot, or its error,
    // is final.
    std::unique_ptr<std::atomic<int>[]> state(
        new std::atomic<int>[static_cast<std::size_t>(count)]());
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(count));
    std::atomic<int> cursor{0};
    /** Set by the first step that throws: no item after it is needed. */
    std::atomic<bool> failed{false};
    int failed_item = -1; ///< lowest item that threw (owner-written)
    // The owner sleeps on `published` while its next item is produced
    // elsewhere; helpers sleep on `room` while the window is full. Item
    // states, `consumed` and `stopped` change under `mu`, so no wake-up
    // is lost.
    std::mutex mu;
    std::condition_variable published;
    std::condition_variable room;
    /** Items before it are consumed (stored under mu; claimers read it
     *  without the lock, and a stale value only shrinks the window). */
    std::atomic<int> consumed{0};
    int waiting = 0;      ///< helpers asleep on `room` (guarded by mu)
    bool stopped = false; ///< the owner left its loop (guarded by mu)

    auto produce = [&](int item) {
        int st = kItemProduced;
        try {
            steps.produce(item);
        } catch (...) {
            errors[static_cast<std::size_t>(item)] = std::current_exception();
            failed.store(true, std::memory_order_relaxed);
            st = kItemFailed;
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            state[item].store(st, std::memory_order_release);
        }
        published.notify_one();
    };

    // Claim the next item if it lies below @p limit. Threads claim only
    // inside the window, so a claimed item always has a free slot and
    // is produced at once: the owner never waits for an item that a
    // sleeping thread holds.
    auto claim_below = [&](int limit) {
        int item = cursor.load(std::memory_order_relaxed);
        do {
            if (item >= limit || failed.load(std::memory_order_relaxed))
                return -1;
        } while (!cursor.compare_exchange_weak(item, item + 1,
                                               std::memory_order_relaxed));
        return item;
    };

    auto window_end = [&] {
        return std::min(count,
                        consumed.load(std::memory_order_acquire) + window);
    };

    auto helper = [&] {
        for (;;) {
            const int item = claim_below(window_end());
            if (item >= 0) {
                produce(item);
                continue;
            }
            const int next = cursor.load(std::memory_order_relaxed);
            if (failed.load(std::memory_order_relaxed) || next >= count)
                return;
            // The window is full: sleep until the owner has consumed
            // far enough for the next item (or stopped), then retry.
            std::unique_lock<std::mutex> lock(mu);
            ++waiting;
            room.wait(lock, [&] {
                return stopped ||
                       next < consumed.load(std::memory_order_relaxed) +
                                  window;
            });
            --waiting;
            if (stopped)
                return;
        }
    };

    auto owner = [&] {
        for (int item = 0; item < count; ++item) {
            int unclaimed = item;
            if (cursor.compare_exchange_strong(unclaimed, item + 1,
                                               std::memory_order_relaxed)) {
                try {
                    steps.produce_and_consume(item);
                } catch (...) {
                    errors[static_cast<std::size_t>(item)] =
                        std::current_exception();
                    failed_item = item;
                    break;
                }
            } else {
                const int limit = std::min(count, item + window);
                int st = state[item].load(std::memory_order_acquire);
                while (st == kItemPending) {
                    const int ahead = claim_below(limit);
                    if (ahead < 0)
                        break;
                    produce(ahead);
                    st = state[item].load(std::memory_order_acquire);
                }
                if (st == kItemPending) {
                    std::unique_lock<std::mutex> lock(mu);
                    published.wait(lock, [&] {
                        st = state[item].load(std::memory_order_acquire);
                        return st != kItemPending;
                    });
                }
                if (st == kItemFailed) {
                    failed_item = item;
                    break;
                }
                try {
                    steps.consume(item);
                } catch (...) {
                    errors[static_cast<std::size_t>(item)] =
                        std::current_exception();
                    failed_item = item;
                    break;
                }
            }
            if (window < count) { // else the window never fills
                bool wake;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    consumed.store(item + 1, std::memory_order_release);
                    wake = waiting > 0;
                }
                if (wake)
                    room.notify_all();
            }
        }
        if (failed_item >= 0)
            failed.store(true, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(mu);
            stopped = true;
        }
        room.notify_all();
    };

    std::vector<std::function<void()>> batch;
    batch.reserve(static_cast<std::size_t>(jobs));
    batch.emplace_back(owner);
    for (int i = 1; i < jobs; ++i)
        batch.emplace_back(helper);
    pool.runBatch(std::move(batch));

    // Every item before failed_item was consumed cleanly, so its error
    // is the lowest-index one.
    if (failed_item >= 0)
        std::rethrow_exception(errors[static_cast<std::size_t>(failed_item)]);
}

} // namespace evrsim
