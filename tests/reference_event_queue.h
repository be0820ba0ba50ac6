/**
 * @file
 * The pre-calendar binary-heap event kernel (std::priority_queue +
 * std::function), kept verbatim. Its (tick, seq) dispatch order is
 * the simulator's determinism contract: the golden test digests the
 * calendar queue against it, and bench_kernel times it as the "before"
 * kernel.
 */

#ifndef CHECKIN_TESTS_REFERENCE_EVENT_QUEUE_H_
#define CHECKIN_TESTS_REFERENCE_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/types.h"

namespace checkin {

/** The pre-calendar binary-heap kernel, kept verbatim as the oracle. */
class ReferenceEventQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }

    void
    schedule(Tick when, Callback cb)
    {
        if (when < now_)
            when = now_;
        events_.push(Event{when, nextSeq_++, std::move(cb)});
    }

    void
    scheduleAfter(Tick delay, Callback cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    bool empty() const { return events_.empty(); }

    Tick
    nextEventTick() const
    {
        return events_.empty() ? kInvalidTick : events_.top().when;
    }

    bool
    step()
    {
        if (events_.empty())
            return false;
        Event ev = std::move(const_cast<Event &>(events_.top()));
        events_.pop();
        now_ = ev.when;
        ev.cb();
        return true;
    }

    std::uint64_t
    run()
    {
        std::uint64_t n = 0;
        while (step())
            ++n;
        return n;
    }

    std::uint64_t
    runUntil(Tick limit)
    {
        std::uint64_t n = 0;
        while (!events_.empty() && events_.top().when <= limit) {
            step();
            ++n;
        }
        if (now_ < limit && events_.empty())
            now_ = limit;
        return n;
    }

    void
    clear()
    {
        std::priority_queue<Event, std::vector<Event>, Later> empty;
        events_.swap(empty);
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> events_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace checkin

#endif // CHECKIN_TESTS_REFERENCE_EVENT_QUEUE_H_
