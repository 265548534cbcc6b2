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
 *    the gap can shrink in one step: the ego's plus the obstacle's
 *    displacement, each center shift + radius * |heading change| +
 *    |extent changes| (every point of a box moves at most that far),
 *    widened for rounding. The estimate gap / closing is then at least
 *    min_ttc.
 *
 * A skipped obstacle's gap is still needed as the next step's previous
 * gap when that step checks it exactly; it is recomputed then from the
 * kept previous ego box and footprint. The reported facts are
 * bit-identical to checking every obstacle every step.
 */
#pragma once

#include <span>
#include <vector>

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
     * Fold one physics step: the ego footprint @p ego against
     * @p footprints (index-aligned with @p obstacles, whose ids name
     * the offender). A change in the obstacle count restarts every
     * previous gap (no TTC estimate that step). Returns true when the
     * ego touches an obstacle; the step stops at that obstacle, and
     * the run is expected to end there.
     */
    bool step(const OrientedBox2 &ego,
              std::span<const PreparedBox> footprints,
              const std::vector<Obstacle> &obstacles);

    const GapFacts &facts() const { return facts_; }

  private:
    /** One obstacle slot's history. */
    struct Slot
    {
        /** Last step's exact gap; 1e18 = none (no TTC estimate). */
        double prev_gap = 1e18;
        /** Last step was skipped: prev_gap is not set, and is the gap
         *  between prev_ego_ and prev_box. */
        bool stale = false;
        /** Last step's footprint. */
        OrientedBox2 prev_box{};
    };

    double dt_s_;
    GapFacts facts_;
    std::vector<Slot> slots_;
    PreparedBox ego_;
    /** Last step's ego footprint. */
    OrientedBox2 prev_ego_{};
};

} // namespace sov
