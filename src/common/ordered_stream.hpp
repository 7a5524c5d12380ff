/**
 * @file
 * The ordered stream: compute items in parallel, commit them in order.
 *
 * Both parallel stages of one simulation have the same shape. Tile
 * rendering and the geometry stage's per-primitive work are pure and
 * may run on any thread, but their effects on shared simulator state
 * (cache and DRAM accesses, Parameter Buffer appends, EVR and RE
 * hooks) must land in the serial order to keep every result
 * byte-identical. runOrderedStream() is that pattern, written once.
 */
#ifndef EVRSIM_COMMON_ORDERED_STREAM_HPP
#define EVRSIM_COMMON_ORDERED_STREAM_HPP

#include <functional>

#include "common/job_pool.hpp"

namespace evrsim {

/** The three steps of an ordered stream. Each gets the item index. */
struct OrderedStreamSteps {
    /** Pure work of one item into its slot (item % window). Runs on
     *  any thread, concurrently with other items and with consume. */
    std::function<void(int)> produce;
    /** Commit one produced item. Runs on the owner, in index order,
     *  after produce returned and every earlier item was consumed. */
    std::function<void(int)> consume;
    /** The owner's next item was still unclaimed: produce and commit
     *  it at once (every earlier item is consumed, so its slot is
     *  free). */
    std::function<void(int)> produce_and_consume;
};

/**
 * Run items 0..count-1 through @p steps on a batch of @p jobs threads
 * of @p pool. Items are claimed in index order from a shared cursor.
 * Job 0, the owner, consumes every item in order. When its next item
 * is unclaimed it claims it and runs produce_and_consume. When another
 * thread is still producing it, the owner produces the first unclaimed
 * item instead of idling, and sleeps only once none is left to claim.
 * So on a saturated or 1-thread pool the stream is the serial loop.
 *
 * At most @p window items are claimed and not yet consumed at once, so
 * item i may reuse the slot of item i - window. Threads claim only
 * inside the window; a helper that finds it full sleeps (never spins)
 * until the owner has consumed far enough.
 *
 * An exception from any step stops the stream: no item is claimed
 * after it, and once every job has stopped the lowest-index item's
 * exception is rethrown, whichever threads ran which items.
 */
void runOrderedStream(JobPool &pool, int jobs, int count, int window,
                      const OrderedStreamSteps &steps);

} // namespace evrsim

#endif // EVRSIM_COMMON_ORDERED_STREAM_HPP
