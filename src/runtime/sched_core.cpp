#include "runtime/sched_core.h"

#include <string>

#include "core/logging.h"

namespace sov::runtime {

SchedulerCore::SchedulerCore(const StageGraph &graph) : graph_(graph)
{
    SOV_ASSERT(graph.size() > 0);
    stage_lane_.reserve(graph.size());
    std::vector<std::string> lane_names; // lane index -> resource
    for (StageId s = 0; s < graph.size(); ++s) {
        const std::string &resource = graph.stage(s).resource;
        std::uint32_t lane = 0;
        for (; lane < lane_names.size(); ++lane) {
            if (lane_names[lane] == resource)
                break;
        }
        if (lane == lane_names.size()) {
            lane_names.push_back(resource);
            lanes_.emplace_back();
        }
        stage_lane_.push_back(lane);
    }
}

std::uint32_t
SchedulerCore::acquire(std::uint64_t frame, Timestamp now)
{
    if (free_.empty()) {
        slots_.push_back(std::make_unique<FrameSlot>());
        free_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
        ++slot_growth_;
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();

    const std::size_t n = graph_.size();
    FrameSlot &slot = *slots_[idx];
    slot.frame = frame;
    slot.active = true;
    // Reset scalar fields in place: assigning a fresh FrameTrace would
    // move an empty spans vector in and throw the recycled capacity
    // away — the one allocation this pool exists to avoid.
    slot.trace.frame = frame;
    slot.trace.release = now;
    slot.trace.finish = Timestamp{};
    slot.trace.deadline_missed = false;
    slot.trace.failed = false;
    slot.trace.failed_stage = 0;
    slot.trace.spans.resize(n);
    slot.deps_left.resize(n);
    slot.ready.resize(n);
    slot.stages_left = n;

    for (StageId s = 0; s < n; ++s) {
        StageSpan &span = slot.trace.spans[s];
        span = StageSpan{};
        span.stage = s;
        span.frame = frame;
        span.released = now;
        slot.deps_left[s] =
            static_cast<std::uint32_t>(graph_.stage(s).deps.size());
        slot.ready[s] = slot.deps_left[s] == 0;
        if (slot.ready[s])
            span.ready = now;
        lanes_[stage_lane_[s]].queue.push(
            Instance{idx, static_cast<std::uint32_t>(s)});
    }
    return idx;
}

std::uint64_t
SchedulerCore::beginDispatch(std::uint32_t lane, std::uint32_t slot)
{
    Lane &l = lanes_[lane];
    SOV_ASSERT(!l.busy);
    l.busy = true;
    l.busy_slot = slot;
    return ++l.serial;
}

bool
SchedulerCore::finishDispatch(std::uint32_t lane, std::uint64_t serial)
{
    Lane &l = lanes_[lane];
    if (!l.busy || l.serial != serial)
        return false; // revoked while the finish event was in flight
    l.busy = false;
    l.queue.pop();
    return true;
}

std::optional<std::uint32_t>
SchedulerCore::revokeInFlight(std::uint32_t lane, std::uint32_t slot)
{
    Lane &l = lanes_[lane];
    if (!l.busy || l.busy_slot != slot)
        return std::nullopt;
    SOV_ASSERT(!l.queue.empty() && l.queue.front().slot == slot);
    const std::uint32_t stage = l.queue.front().stage;
    l.queue.pop();
    l.busy = false;
    ++l.serial; // the outstanding finish event is now stale
    return stage;
}

void
SchedulerCore::recycle(std::uint32_t idx)
{
    FrameSlot &slot = *slots_[idx];
    SOV_ASSERT(slot.active);
    slot.active = false;
    slot.on_complete = nullptr;
    free_.push_back(idx);
}

void
SchedulerCore::cancelQueued(std::uint32_t idx)
{
    // A busy lane's head is the dispatched instance: it keeps its lane
    // until its finish event fires (or revokeInFlight frees it).
    for (Lane &lane : lanes_) {
        lane.queue.removeIf([&](std::size_t i, const Instance &inst) {
            return inst.slot == idx && !(lane.busy && i == 0);
        });
    }
}

std::uint64_t
SchedulerCore::growthEvents() const
{
    std::uint64_t growth = slot_growth_;
    for (const Lane &lane : lanes_)
        growth += lane.queue.growthEvents();
    return growth;
}

FramePayloadRing::FramePayloadRing(std::size_t depth,
                                   std::size_t first_block_bytes)
{
    SOV_ASSERT(depth > 0);
    arenas_.reserve(depth);
    for (std::size_t i = 0; i < depth; ++i)
        arenas_.emplace_back(first_block_bytes);
}

FrameArena &
FramePayloadRing::acquire(std::uint64_t frame)
{
    FrameArena &arena = slot(frame);
    arena.reset();
    return arena;
}

std::size_t
FramePayloadRing::systemAllocations() const
{
    std::size_t total = 0;
    for (const FrameArena &arena : arenas_)
        total += arena.systemAllocations();
    return total;
}

} // namespace sov::runtime
