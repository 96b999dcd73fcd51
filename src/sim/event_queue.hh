/**
 * @file
 * A small discrete-event simulation engine.
 *
 * Simulated time is measured in Ticks (milliseconds). Components
 * (the KSM scanner, GC timers, client drivers, measurement snapshots)
 * schedule callbacks; EventQueue::run() drains them in time order.
 * Events scheduled at the same tick run in insertion order so that a
 * scenario is fully deterministic. An event that schedules at now()
 * while the tick is draining runs later in the same tick, still in
 * insertion order.
 */

#ifndef JTPS_SIM_EVENT_QUEUE_HH
#define JTPS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "base/types.hh"

namespace jtps::sim
{

/** Callback type for scheduled events. */
using EventFn = std::function<void()>;

/** Callback type for periodic events: true keeps the chain going. */
using PeriodicFn = std::function<bool()>;

/**
 * Time-ordered event queue with support for one-shot and periodic
 * events. Not thread-safe.
 */
class EventQueue
{
  public:
    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run at absolute tick @p when (>= now). */
    void scheduleAt(Tick when, EventFn fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    void scheduleAfter(Tick delay, EventFn fn);

    /**
     * Schedule @p fn every @p period ticks, starting @p period from now.
     * The callback returns true to keep running, false to cancel.
     */
    void schedulePeriodic(Tick period, PeriodicFn fn);

    /** Number of pending events. */
    std::size_t pending() const;

    /** Run until the queue is empty. */
    void run();

    /**
     * Run until simulated time reaches @p until (events at exactly
     * @p until still execute). Later events stay queued.
     */
    void runUntil(Tick until);

    /** Drop all pending events without running them. */
    void clear();

  private:
    /** One pending event. Ordered by (when, seq): the insertion
     *  sequence breaks same-tick ties, so FIFO order within a tick is
     *  preserved exactly as the old ordered-map key did. A periodic
     *  event (period > 0) carries its callback in periodic instead of
     *  fn, and runOne() re-arms the same item while it returns true. */
    struct Item
    {
        Tick when;
        std::uint64_t seq;
        Tick period;
        EventFn fn;
        PeriodicFn periodic;
    };

    /** Heap predicate: @p a fires after @p b (min-heap via the
     *  standard max-heap algorithms). */
    static bool
    later(const Item &a, const Item &b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    void push(Item item);
    Item popFront();
    void runOne();

    Tick now_ = 0;
    std::uint64_t next_seq_ = 0;
    /**
     * Binary min-heap on (when, seq). A simulated run is almost pure
     * push/pop-min churn (every periodic component reschedules itself
     * each wake), which the flat array serves without the per-node
     * allocation and pointer chasing of the former std::map — see
     * BM_EventQueueChurn.
     */
    std::vector<Item> heap_;
};

} // namespace jtps::sim

#endif // JTPS_SIM_EVENT_QUEUE_HH
