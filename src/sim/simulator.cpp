#include "sim/simulator.h"

#include "core/logging.h"

namespace sov {

void
Simulator::schedule(Duration delay, Callback fn)
{
    SOV_ASSERT(delay >= Duration::zero());
    scheduleAt(now_ + delay, std::move(fn));
}

void
Simulator::scheduleAt(Timestamp when, Callback fn)
{
    SOV_ASSERT(when >= now_);
    queue_.push(Item{when, seq_++, std::move(fn)});
}

void
Simulator::schedulePeriodic(Duration period, Duration phase, Callback fn)
{
    SOV_ASSERT(period > Duration::zero());
    periodics_.push_back(Periodic{period, std::move(fn)});
    schedule(phase, PeriodicTick{this, periodics_.size() - 1});
}

void
Simulator::firePeriodic(std::size_t index)
{
    Periodic &p = periodics_[index];
    p.fn();
    schedule(p.period, PeriodicTick{this, index});
}

void
Simulator::runUntil(Timestamp horizon)
{
    stopped_ = false;
    while (!queue_.empty() && !stopped_) {
        const Item &top = queue_.top();
        if (top.when > horizon)
            break;
        // Move the callback out before popping; executing may push.
        Item item{top.when, top.seq, std::move(const_cast<Item &>(top).fn)};
        queue_.pop();
        now_ = item.when;
        ++executed_;
        item.fn();
    }
    if (queue_.empty() || stopped_) {
        // Clock still advances to the horizon on a drained queue so
        // periodic statistics windows stay well-defined.
        if (!stopped_ && horizon > now_ && horizon != Timestamp::never())
            now_ = horizon;
    } else {
        now_ = horizon;
    }
}

void
Simulator::run()
{
    runUntil(Timestamp::never());
}

} // namespace sov
