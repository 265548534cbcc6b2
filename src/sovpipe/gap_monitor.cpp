#include "sovpipe/gap_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/logging.h"

namespace sov {

namespace {

/** How far any point of @p to (radius @p to_radius) can lie from the
 *  point of @p from its local coordinates map to, beyond the center
 *  shift: rotation at the new radius plus extent change. NaN when
 *  either box is not finite. */
double
turnBound(const OrientedBox2 &from, const OrientedBox2 &to, double to_radius)
{
    return to_radius * std::fabs(to.pose.heading - from.pose.heading) +
           std::fabs(to.half_length - from.half_length) +
           std::fabs(to.half_width - from.half_width);
}

/** Same footprint and velocity bits: the same closed form in time. */
bool
sameMotion(const Obstacle &a, const Obstacle &b)
{
    return std::memcmp(&a.footprint, &b.footprint, sizeof a.footprint) == 0 &&
           std::memcmp(&a.velocity, &b.velocity, sizeof a.velocity) == 0;
}

/** The unit roundoff, 2^-53. */
constexpr double kUnit = std::numeric_limits<double>::epsilon() / 2.0;

/** Relative widening of the certificate's distances (see step()). */
constexpr double kWiden = 1.0 + 4e-9;

} // namespace

void
GapMonitor::reset()
{
    facts_ = GapFacts{};
    slots_.clear();
    ego_sum_ = 0.0;
    ego_terms_ = 0;
    certified_skips_ = 0;
}

bool
GapMonitor::broadphaseSkips(std::size_t i, const Obstacle &obs,
                            bool closed_form, const EgoStep &ego_step,
                            double time_s)
{
    // Broadphase (see the file comment). A stale slot had a finite,
    // positive gap last step: a TTC estimate is possible.
    Slot &slot = slots_[i];
    const PreparedBox &box = boxes_[i];
    const double bound = ego_.clearanceBound(box);
    if (!(bound > 0.0 && bound >= facts_.min_gap))
        return false;
    const double scale = maxAbs(ego_.box().pose.position) +
                         maxAbs(box.box().pose.position) + ego_.radius() +
                         box.radius();
    if (slot.stale || slot.prev_gap < 1e17) {
        // Relative displacement: the obstacle's center shift less the
        // ego's, plus both boxes' turn bounds. The margin's scale takes
        // in last step's centers too: the shifts round in their
        // coordinates, which the relative shift no longer bounds.
        const OrientedBox2 &from = slot.prev_box;
        const OrientedBox2 &to = box.box();
        const double relative =
            ((to.pose.position - from.pose.position) - ego_step.shift).norm() +
            ego_step.turn + turnBound(from, to, box.radius());
        const double move =
            relative * (1.0 + 1e-9) +
            PreparedBox::broadphaseMargin(scale + ego_step.prev_scale +
                                          maxAbs(from.pose.position));
        if (!(bound * dt_s_ >= facts_.min_ttc * move))
            return false;
    }
    slot.stale = true;
    if (closed_form && bound < std::numeric_limits<double>::infinity()) {
        slot.asleep = true;
        slot.row = obs;
        slot.bound = bound;
        slot.ego_sum = ego_sum_;
        slot.time_s = time_s;
        slot.speed = obs.velocity.norm();
        slot.scale = scale;
        slot.slack =
            64.0 * kUnit * (scale + maxAbs(obs.footprint.pose.position)) +
            2e-150;
    } else {
        slot.prev_box = box.box();
    }
    return true;
}

bool
GapMonitor::step(const OrientedBox2 &ego, const std::vector<Obstacle> &obstacles,
                 std::span<const std::uint8_t> closed_form, Timestamp t)
{
    SOV_ASSERT(closed_form.empty() || closed_form.size() == obstacles.size());
    if (slots_.size() != obstacles.size()) {
        slots_.assign(obstacles.size(), Slot{});
        boxes_.resize(obstacles.size());
    }
    prev_ego_ = ego_.box();
    ego_.assign(ego);
    const EgoStep ego_step{ego.pose.position - prev_ego_.pose.position,
                           turnBound(prev_ego_, ego, ego_.radius()),
                           maxAbs(prev_ego_.pose.position)};
    // How far any point of the ego moved.
    const double ego_move = ego_step.shift.norm() + ego_step.turn;
    ego_sum_ += ego_move;
    ++ego_terms_;
    const Timestamp prev_t = prev_t_;
    prev_t_ = t;
    const double time_s = t.toSeconds();
    const double step_s = std::fabs(time_s - prev_t.toSeconds());

    // Certificate soundness. While a row keeps its closed form, its
    // radius is fixed and its center moves by velocity * (time change)
    // up to the rounding of footprintAt(), a few ulps of the center
    // and of the row's base position; every point of the ego moves at
    // most its move bound per step (extent changes included, which
    // bound its radius change). So the center distance less both radii
    // shrinks by at most the ego's move bound sum plus speed * elapsed
    // since issue, and the bound's margin grows by 1e-9 of the scale
    // change, itself at most that same distance. kWiden covers that
    // 1e-9 and the relative rounding of the sums; slot.slack covers the
    // absolute rounding of both bounds and of footprintAt() (64 ulps of
    // the scale at issue plus the base position); sum_slack covers the
    // recursive summation of ego_sum_ (at most one ulp of the sum per
    // term, twice, for the two ends). The step's move bound is widened
    // the same way, with 2e-9 of the grown scale for the broadphase
    // margin. Each certified test is then the broadphase test on
    // values no better than the exact ones, so it holds only when the
    // exact test would.
    const double sum_slack =
        ego_sum_ * (static_cast<double>(ego_terms_) + 1.0) * 4.5e-16;
    // A woken slot was last visited, and skipped, at prev_t.
    const auto wake = [prev_t](Slot &slot) {
        slot.asleep = false;
        slot.prev_box = slot.row.footprintAt(prev_t);
    };

    std::uint64_t slept = 0;
    for (std::size_t i = 0; i < obstacles.size(); ++i) {
        Slot &slot = slots_[i];
        const Obstacle &obs = obstacles[i];
        if (slot.asleep) {
            if (sameMotion(slot.row, obs)) {
                const double spent = (ego_sum_ - slot.ego_sum + sum_slack) +
                                     slot.speed * std::fabs(time_s - slot.time_s);
                const double low = slot.bound - (spent * kWiden + slot.slack);
                const double move = (ego_move + slot.speed * step_s) * kWiden +
                                    2e-9 * (slot.scale + spent) + slot.slack;
                if (low > 0.0 && low >= facts_.min_gap &&
                    low * dt_s_ >= facts_.min_ttc * move) {
                    ++slept;
                    continue;
                }
            }
            wake(slot);
        }

        PreparedBox &box = boxes_[i];
        box.assign(obs.footprintAt(t));
        if (broadphaseSkips(i, obs, !closed_form.empty() && closed_form[i] != 0,
                            ego_step, time_s))
            continue;

        if (slot.stale) {
            slot.prev_gap =
                PreparedBox(prev_ego_).distanceTo(PreparedBox(slot.prev_box));
        }
        const double gap = ego_.distanceTo(box);
        if (gap < facts_.min_gap) {
            facts_.min_gap = gap;
            facts_.nearest_obstacle = obs.id;
        }
        // TTC estimate from the closing rate over one physics step.
        const double closing = (slot.prev_gap - gap) / dt_s_;
        if (slot.prev_gap < 1e17 && closing > 1e-9 && gap > 0.0)
            facts_.min_ttc = std::min(facts_.min_ttc, gap / closing);
        slot.prev_gap = gap;
        slot.stale = false;
        slot.prev_box = box.box();
        if (gap <= 0.0) {
            // Later slots keep last step's history (a sleeping one
            // wakes with it, since a later step cannot rebuild it);
            // past a collision min_ttc is 0 and min_gap 0, so no later
            // estimate or positive gap can change a fact.
            facts_.collided = true;
            facts_.min_ttc = 0.0;
            facts_.nearest_obstacle = obs.id;
            for (std::size_t j = i + 1; j < slots_.size(); ++j) {
                if (slots_[j].asleep)
                    wake(slots_[j]);
            }
            certified_skips_ += slept;
            return true;
        }
    }
    certified_skips_ += slept;
    return false;
}

} // namespace sov
