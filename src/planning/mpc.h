/**
 * @file
 * Lane-level Model-Predictive Controller (Table III: MPC).
 *
 * The paper's planner is lightweight (~3 ms, Sec. V-C) because the
 * vehicle maneuvers at lane granularity. This MPC linearizes the
 * kinematic error dynamics around the reference lane center-line and
 * solves the finite-horizon LQR tracking problem via a backward
 * Riccati recursion, then picks a safe speed from the predicted
 * obstacles (comfortable deceleration toward the nearest blocker).
 */
#pragma once

#include <vector>

#include "planning/collision.h"
#include "planning/planner_types.h"
#include "planning/prediction.h"

namespace sov {

/** MPC tuning. */
struct MpcConfig
{
    std::size_t horizon = 20;
    double dt = 0.1;              //!< seconds per horizon step
    double q_lateral = 4.0;       //!< lateral-offset cost
    double q_heading = 2.0;       //!< heading-error cost
    double r_curvature = 1.0;     //!< steering effort cost
    double max_curvature = 0.5;   //!< 1/m (about 2 m turn radius)
    double comfort_decel = 2.0;   //!< m/s^2 planned braking
    double hard_decel = 4.0;      //!< m/s^2 (the brake's limit)
    double standoff = 2.5;        //!< stop this far from obstacles (m)
    double max_accel = 1.5;       //!< m/s^2
};

/** What the MPC decided, with introspection fields for tests. */
struct MpcOutput
{
    ControlCommand command;
    double lateral_error = 0.0;   //!< current offset from the path
    double heading_error = 0.0;
    double target_speed = 0.0;
    bool blocked = false;         //!< obstacle forces a stop
};

/** An LQR gain row K (1x2) for u = -K e, e = [lateral, heading]. */
struct LqrGain
{
    double lateral = 0.0;
    double heading = 0.0;
};

/** The lane-level MPC planner. */
class MpcPlanner
{
  public:
    explicit MpcPlanner(const MpcConfig &config = {}) : config_(config) {}

    /**
     * Plan one control cycle. Objects the swept broadphase of
     * firstCollision() rules out are not predicted; the rest are
     * predicted into storage the planner reuses, so a warm planner does
     * not allocate, and one planner must not plan on two threads at
     * once.
     */
    MpcOutput plan(const PlannerInput &input) const;

    const MpcConfig &config() const { return config_; }

    /**
     * Finite-horizon LQR gain for the error dynamics at speed @p v:
     * state [lateral offset, heading error], control [curvature].
     * Gains are cached per 0.25 m/s speed bucket — the Riccati
     * recursion is the planner's only nontrivial linear algebra and
     * the gain varies smoothly with speed — so the first speed to
     * reach a bucket fixes its gain. The recursion runs on fixed-size
     * 2x2 arithmetic in Matrix's operation order, bit for bit. Speeds
     * of 256 m/s and above (and NaN) are solved afresh on every call.
     */
    LqrGain lqrGain(double v) const;

  private:
    /** Speed buckets the gain cache holds (up to 256 m/s). */
    static constexpr std::size_t kCachedBuckets = 1024;

    /** The Riccati recursion at @p v (no cache). */
    LqrGain solveLqr(double v) const;

    struct CachedGain
    {
        LqrGain gain;
        bool valid = false;
    };

    MpcConfig config_;
    /** Indexed by speed bucket; grown on first use of a bucket. */
    mutable std::vector<CachedGain> gain_cache_;
    /** The surviving objects' predictions of the last cycle, first
     *  ones live; grown to the most survivors seen, never shrunk. */
    mutable std::vector<ObjectPrediction> predictions_;
};

} // namespace sov
