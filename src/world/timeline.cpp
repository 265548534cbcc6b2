#include "world/timeline.h"

#include <atomic>
#include <utility>

#include "core/logging.h"

namespace sov {

std::uint64_t
WorldTimeline::Revision::fresh()
{
    static std::atomic<std::uint64_t> instances{0};
    return (instances.fetch_add(1, std::memory_order_relaxed) + 1) << 32;
}

void
WorldTimeline::Revision::bump()
{
    // 2^32 changes of one instance (13 simulated years of 100 ms
    // ticks) would carry into the instance bits: take a fresh one.
    if ((++value_ & 0xffffffffu) == 0)
        value_ = fresh();
}

WorldTimeline::WorldTimeline(Duration tick) : tick_(tick)
{
    SOV_ASSERT(tick_ > Duration::zero());
}

ObstacleId
WorldTimeline::addObstacle(Obstacle o)
{
    return spawn(std::make_unique<ConstantVelocityAgent>(std::move(o)));
}

ObstacleId
WorldTimeline::spawn(std::unique_ptr<Agent> agent)
{
    SOV_ASSERT(agent != nullptr);
    agent->setId(next_id_++);
    const ObstacleId id = agent->id();
    if (agent->reactive())
        ++reactive_count_;
    published_.push_back(agent->publish(epoch_));
    closed_form_.push_back(agent->reactive() ? 0 : 1);
    agents_.push_back(std::move(agent));
    revision_.bump();
    return id;
}

void
WorldTimeline::advanceTo(Timestamp t, const Pose2 &ego_pose,
                         double ego_speed)
{
    while (epoch_ + tick_ <= t)
        stepOnce(ego_pose, ego_speed);
}

void
WorldTimeline::stepOnce(const Pose2 &ego_pose, double ego_speed)
{
    epoch_ = epoch_ + tick_;
    ++ticks_;
    // All-CV fast path: no step can change any published row, so the
    // double-buffer copy and publish loop would be pure overhead.
    if (reactive_count_ == 0)
        return;
    revision_.bump();
    // Agents observe the previous epoch's rows: double-buffering makes
    // the step independent of agent order within the tick.
    prev_published_ = published_;
    AgentView view;
    view.now = epoch_;
    view.dt = tick_.toSeconds();
    view.ego_pose = ego_pose;
    view.ego_speed = ego_speed;
    view.others = &prev_published_;
    for (std::size_t i = 0; i < agents_.size(); ++i) {
        agents_[i]->step(view);
        published_[i] = agents_[i]->publish(epoch_);
    }
}

void
WorldTimeline::clear()
{
    agents_.clear();
    published_.clear();
    closed_form_.clear();
    prev_published_.clear();
    reactive_count_ = 0;
    next_id_ = 0;
    epoch_ = Timestamp::origin();
    ticks_ = 0;
    revision_.renew();
}

} // namespace sov
