#include "sovpipe/gap_monitor.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace sov {

namespace {

double
maxAbs(const Vec2 &v)
{
    return std::max(std::fabs(v.x()), std::fabs(v.y()));
}

/** How far any point of @p from can move to reach @p to (radius
 *  @p to_radius): center shift, rotation at the new radius, extent
 *  change. NaN when either box is not finite. */
double
moveBound(const OrientedBox2 &from, const OrientedBox2 &to, double to_radius)
{
    return (to.pose.position - from.pose.position).norm() +
           to_radius * std::fabs(to.pose.heading - from.pose.heading) +
           std::fabs(to.half_length - from.half_length) +
           std::fabs(to.half_width - from.half_width);
}

} // namespace

void
GapMonitor::reset()
{
    facts_ = GapFacts{};
    slots_.clear();
}

bool
GapMonitor::step(const OrientedBox2 &ego,
                 std::span<const PreparedBox> footprints,
                 const std::vector<Obstacle> &obstacles)
{
    SOV_ASSERT(footprints.size() == obstacles.size());
    if (slots_.size() != obstacles.size())
        slots_.assign(obstacles.size(), Slot{});
    prev_ego_ = ego_.box();
    ego_.assign(ego);
    const double ego_move = moveBound(prev_ego_, ego, ego_.radius());

    for (std::size_t i = 0; i < obstacles.size(); ++i) {
        Slot &slot = slots_[i];
        const PreparedBox &box = footprints[i];

        // Broadphase (see the file comment). A stale slot had a
        // finite, positive gap last step: a TTC estimate is possible.
        const double bound = ego_.clearanceBound(box);
        if (bound > 0.0 && bound >= facts_.min_gap) {
            bool skip = !slot.stale && !(slot.prev_gap < 1e17);
            if (!skip) {
                const double scale = maxAbs(ego.pose.position) +
                    maxAbs(box.box().pose.position) + ego_.radius() +
                    box.radius();
                const double move =
                    (ego_move + moveBound(slot.prev_box, box.box(),
                                          box.radius())) *
                        (1.0 + 1e-9) +
                    PreparedBox::broadphaseMargin(scale);
                skip = bound * dt_s_ >= facts_.min_ttc * move;
            }
            if (skip) {
                slot.stale = true;
                slot.prev_box = box.box();
                continue;
            }
        }

        if (slot.stale) {
            slot.prev_gap =
                PreparedBox(prev_ego_).distanceTo(PreparedBox(slot.prev_box));
        }
        const double gap = ego_.distanceTo(box);
        if (gap < facts_.min_gap) {
            facts_.min_gap = gap;
            facts_.nearest_obstacle = obstacles[i].id;
        }
        // TTC estimate from the closing rate over one physics step.
        const double closing = (slot.prev_gap - gap) / dt_s_;
        if (slot.prev_gap < 1e17 && closing > 1e-9 && gap > 0.0)
            facts_.min_ttc = std::min(facts_.min_ttc, gap / closing);
        slot.prev_gap = gap;
        slot.stale = false;
        slot.prev_box = box.box();
        if (gap <= 0.0) {
            // Later slots keep last step's history; past a collision
            // min_ttc is 0 and min_gap 0, so no later estimate or
            // positive gap can change a fact.
            facts_.collided = true;
            facts_.min_ttc = 0.0;
            facts_.nearest_obstacle = obstacles[i].id;
            return true;
        }
    }
    return false;
}

} // namespace sov
