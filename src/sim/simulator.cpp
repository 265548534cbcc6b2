#include "sim/simulator.h"

#include <algorithm>
#include <type_traits>

#include "core/logging.h"

namespace sov {

namespace {

/** Whether event @p a runs before event @p b: the (when, seq) order. */
template <typename A, typename B>
bool
earlier(const A &a, const B &b)
{
    return a.when < b.when || (a.when == b.when && a.seq < b.seq);
}

/** Heap order: the root is the earliest event. */
struct Later
{
    template <typename Item>
    bool
    operator()(const Item &a, const Item &b) const
    {
        return earlier(b, a);
    }
};

} // namespace

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
    std::uint32_t slot;
    if (free_.empty()) {
        slot = static_cast<std::uint32_t>(callbacks_.size());
        callbacks_.push_back(std::move(fn));
    } else {
        slot = free_.back();
        free_.pop_back();
        callbacks_[slot] = std::move(fn);
    }
    push(when, nullptr, slot);
}

void
Simulator::push(Timestamp when, EventTarget *target, std::uint64_t arg)
{
    static_assert(std::is_trivially_copyable_v<Item>);
    static_assert(sizeof(Item) <= 32);
    heap_.push_back(Item{when, seq_++, target, arg});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void
Simulator::schedulePeriodic(Duration period, Duration phase, Callback fn)
{
    SOV_ASSERT(period > Duration::zero());
    SOV_ASSERT(phase >= Duration::zero());
    lanes_.push_back(Lane{now_ + phase, seq_++, period});
    lane_fns_.push_back(std::move(fn));
    findLaneHead();
}

inline void
Simulator::findLaneHead()
{
    head_ = 0;
    for (std::size_t i = 1; i < lanes_.size(); ++i) {
        if (earlier(lanes_[i], lanes_[head_]))
            head_ = i;
    }
}

inline void
Simulator::fireLane()
{
    const std::size_t i = head_;
    lane_fns_[i]();
    // The successor draws its sequence number only now, after fn
    // returned: events fn scheduled at the next firing's time run
    // first. (Look the lane up again: fn may have added lanes.)
    Lane &lane = lanes_[i];
    lane.when = now_ + lane.period;
    lane.seq = seq_++;
    findLaneHead();
}

inline void
Simulator::fireItem()
{
    const Item item = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (item.target) {
        item.target->onEvent(item.arg);
        return;
    }
    // Move the callback out and free its slot first: it may schedule
    // (and so reuse the slot or grow the pool) while it runs.
    const auto slot = static_cast<std::uint32_t>(item.arg);
    const Callback fn = std::move(callbacks_[slot]);
    callbacks_[slot] = nullptr;
    free_.push_back(slot);
    fn();
}

void
Simulator::runUntil(Timestamp horizon)
{
    stopped_ = false;
    while (!stopped_) {
        // The next event is the lesser of the heap top and the lane
        // head by (when, seq).
        bool from_lane = !lanes_.empty();
        if (!heap_.empty() && from_lane)
            from_lane = earlier(lanes_[head_], heap_.front());
        else if (!from_lane && heap_.empty())
            break;
        const Timestamp when =
            from_lane ? lanes_[head_].when : heap_.front().when;
        if (when > horizon)
            break;
        now_ = when;
        ++executed_;
        fnv1aWord(digest_, static_cast<std::uint64_t>(when.ns()));
        fnv1aWord(digest_,
                  from_lane ? lanes_[head_].seq : heap_.front().seq);
        if (from_lane)
            fireLane();
        else
            fireItem();
    }
    if (stopped_)
        return;
    if (idle()) {
        // Clock still advances to the horizon on a drained queue so
        // periodic statistics windows stay well-defined.
        if (horizon > now_ && horizon != Timestamp::never())
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
