#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "base/logging.hh"

namespace jtps::sim
{

void
EventQueue::push(Item item)
{
    heap_.push_back(std::move(item));
    std::push_heap(heap_.begin(), heap_.end(), later);
}

void
EventQueue::scheduleAt(Tick when, EventFn fn)
{
    jtps_assert(when >= now_);
    push(Item{when, next_seq_++, 0, std::move(fn), {}});
}

void
EventQueue::scheduleAfter(Tick delay, EventFn fn)
{
    scheduleAt(now_ + delay, std::move(fn));
}

void
EventQueue::schedulePeriodic(Tick period, PeriodicFn fn)
{
    jtps_assert(period > 0);
    push(Item{now_ + period, next_seq_++, period, {}, std::move(fn)});
}

std::size_t
EventQueue::pending() const
{
    return heap_.size();
}

EventQueue::Item
EventQueue::popFront()
{
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Item item = std::move(heap_.back());
    heap_.pop_back();
    return item;
}

void
EventQueue::runOne()
{
    jtps_assert(heap_.front().when >= now_);
    // Detach the event before running it: the callback may schedule
    // (growing the heap) or clear() it.
    Item item = popFront();
    now_ = item.when;
    if (item.period == 0) {
        item.fn();
        return;
    }
    // Re-arm only once the callback has returned true, so the next
    // wake takes its sequence number after anything the callback
    // scheduled. The queue owns the callback; a cancelled chain (or
    // a clear()) destroys it with the item.
    if (item.periodic()) {
        item.when = now_ + item.period;
        item.seq = next_seq_++;
        push(std::move(item));
    }
}

void
EventQueue::run()
{
    while (!heap_.empty())
        runOne();
}

void
EventQueue::runUntil(Tick until)
{
    while (!heap_.empty() && heap_.front().when <= until)
        runOne();
    if (now_ < until)
        now_ = until;
}

void
EventQueue::clear()
{
    heap_.clear();
}

} // namespace jtps::sim
