/**
 * @file
 * Gap, time-to-collision and collision monitoring of the ego against
 * every obstacle, once per physics step: the safety facts a closed-loop
 * run reports (ClosedLoopResult::min_gap, min_ttc, nearest_obstacle,
 * collided) and the scenario fuzzer mines for near misses.
 *
 * The exact check is one PreparedBox::distanceTo per obstacle per
 * step, with a TTC estimate from the gap's change over the step. A
 * broadphase skips an obstacle whose exact gap provably cannot change
 * any reported fact this step:
 *
 *  - its clearance lower bound (PreparedBox::clearanceBound) is > 0
 *    and >= min_gap, so the step neither collides nor lowers min_gap;
 *  - and, when a TTC estimate is possible (the obstacle had a gap last
 *    step), bound * dt / move >= min_ttc, where move bounds how far
 *    the gap can shrink in one step: their relative displacement,
 *    |obstacle center shift - ego center shift| + each box's radius *
 *    |heading change| + every |extent change| (a point of a box moves
 *    by its center's shift plus at most the rest, so a pair of points,
 *    one per box, closes by at most that), widened for rounding. The
 *    estimate gap / closing is then at least min_ttc. Co-moving pairs
 *    (an agent pacing the ego) close by almost nothing per step.
 *
 * A skipped obstacle's gap is still needed as the next step's previous
 * gap when that step checks it exactly; it is recomputed then from the
 * kept previous ego box and footprint.
 *
 * Wake certificates (kinetic data structures, Basch, Guibas &
 * Hershberger 1997). A row marked closed-form (a constant-velocity
 * agent: one footprintAt() for the whole run) that the broadphase skips
 * goes to sleep on a certificate: the bound at issue, the ego's running
 * move bound sum then, the obstacle's speed and the issue time. While
 * asleep its bound at a later step is at least
 *
 *     issue bound - (ego move bounds since issue + speed * elapsed)
 *
 * widened for rounding (see gap_monitor.cpp), and the step's move at
 * most the ego's move + speed * step, so the broadphase test above run
 * on these bounds proves the skip without building the footprint: a
 * few flops per step, no assign, clearanceBound, move bound or
 * square root. The first step the proof fails (or the row changed) the slot
 * wakes: its previous footprint is rebuilt from the row's closed form
 * and the step runs as above. A certified skip is a skip the
 * broadphase would have made, so every step leaves the same facts and
 * slot history as checking every obstacle every step, bit for bit.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/time.h"
#include "math/geometry.h"
#include "world/obstacle.h"

namespace sov {

/** The monitored facts (field meanings as in ClosedLoopResult). */
struct GapFacts
{
    bool collided = false;
    double min_gap = 1e18;
    double min_ttc = 1e18;
    ObstacleId nearest_obstacle = 0;
};

/** Per-step gap/TTC/collision monitor (see the file comment). */
class GapMonitor
{
  public:
    /** @param dt_s The physics step, seconds (the TTC closing rate is
     *  the gap change over one step divided by it). */
    explicit GapMonitor(double dt_s) : dt_s_(dt_s) {}

    /** Forget every fact and previous gap (scenario reset). */
    void reset();

    /**
     * Fold one physics step at time @p t: the ego footprint @p ego
     * against every row of @p obstacles at @p t (footprintAt(); the
     * ids name the offender). @p closed_form is empty or index-aligned
     * with @p obstacles; a nonzero entry lets that row sleep on a wake
     * certificate (see the file comment). A change in the obstacle
     * count restarts every previous gap (no TTC estimate that step).
     * Returns true when the ego touches an obstacle; the step stops at
     * that obstacle, and the run is expected to end there.
     */
    bool step(const OrientedBox2 &ego, const std::vector<Obstacle> &obstacles,
              std::span<const std::uint8_t> closed_form, Timestamp t);

    const GapFacts &facts() const { return facts_; }

    /** Obstacle-steps skipped on a wake certificate since reset(). */
    std::uint64_t certifiedSkips() const { return certified_skips_; }

  private:
    /** One obstacle slot's history. */
    struct Slot
    {
        /** Last step's exact gap; 1e18 = none (no TTC estimate). */
        double prev_gap = 1e18;
        /** Last step was skipped: prev_gap is not set, and is the gap
         *  between prev_ego_ and the last footprint. */
        bool stale = false;
        /** Skipped on a live wake certificate (the fields below). */
        bool asleep = false;
        /** Last step's footprint; while asleep, rebuilt from row. */
        OrientedBox2 prev_box{};

        // Wake certificate, valid while asleep.
        /** The row it was issued for (footprint and velocity). */
        Obstacle row;
        double bound = 0.0;    //!< clearanceBound() at issue
        double ego_sum = 0.0;  //!< ego_sum_ at issue
        double time_s = 0.0;   //!< issue time, seconds
        double speed = 0.0;    //!< |row velocity|
        double scale = 0.0;    //!< broadphase scale at issue
        double slack = 0.0;    //!< absolute rounding cover
    };

    /** The ego's motion over the step, as the broadphase reads it. */
    struct EgoStep
    {
        Vec2 shift;        //!< center shift
        double turn;       //!< rotation at its radius + extent changes
        double prev_scale; //!< maxAbs of last step's center
    };

    /** The broadphase at slot @p i with its footprint in boxes_[i];
     *  true = skipped. Issues a certificate for a @p closed_form row. */
    bool broadphaseSkips(std::size_t i, const Obstacle &obs,
                         bool closed_form, const EgoStep &ego_step,
                         double time_s);

    double dt_s_;
    GapFacts facts_;
    std::vector<Slot> slots_;
    /** Each slot's footprint this step (kept across steps so
     *  PreparedBox::assign can keep the heading trig). */
    std::vector<PreparedBox> boxes_;
    PreparedBox ego_;
    /** Last step's ego footprint. */
    OrientedBox2 prev_ego_{};
    /** Last step's time. */
    Timestamp prev_t_;
    /** Running sum of the ego's per-step move bound since reset(), and
     *  the number of terms in it. */
    double ego_sum_ = 0.0;
    std::uint64_t ego_terms_ = 0;
    std::uint64_t certified_skips_ = 0;
};

} // namespace sov
