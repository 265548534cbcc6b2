/**
 * @file
 * Reactive safety path (Sec. IV): radar/sonar distance readings enter
 * the ECU directly, bypassing sensing->perception->planning. Total
 * reaction latency is ~30 ms versus the proactive path's 149 ms+
 * best case, letting the vehicle stop for objects first seen at
 * 4.1 m — near the 4 m braking-distance limit.
 *
 * Corridor certificate. The closed loop polls the path every physics
 * step, but the radar corridor it asks for (RadarModel::nearestInPath,
 * up to the decision range Q) is nearly always empty. A query that
 * skipped every box reports a CorridorClearance: the least separation
 * S of any box from the region it read. The path keeps it with the
 * issue pose, Q, time and row revision, and a later poll on rows of
 * the same revision returns none without asking the radar (no trig,
 * no per-box work) while the motion spent since issue,
 *
 *     |dp|_1 + |dheading| * D + v_max * dt + max(0, Q - Q0),
 *
 * widened for rounding, stays below S. The motion is measured from
 * the issue pose, so polls a radar dropout skips and every change of
 * Q (latch, stop, release; -inf and NaN included) are covered. The
 * first poll it cannot cover asks the radar and reissues. Returned
 * values and both brake decisions stay bitwise those of asking every
 * poll (DESIGN.md, Broadphase, corridor certificate).
 */
#pragma once

#include <optional>

#include "core/time.h"
#include "sensors/radar.h"
#include "sensors/sonar.h"
#include "sim/simulator.h"
#include "vehicle/ecu.h"
#include "world/world.h"

namespace sov {

/** Reactive-path tuning. */
struct ReactiveConfig
{
    /** Clearance left between the front bumper and the obstacle. */
    double margin = 0.15;
    /** Distance from the vehicle reference point (center) to the
     *  front bumper; the trigger must stop the *front* in time. */
    double ego_front_overhang = 1.3;
    /** Lateral half-width of the monitored corridor. */
    double corridor_half_width = 0.8;
    /** Sensor-to-ECU latency of the reactive path (~30 ms total,
     *  Sec. IV). */
    Duration path_latency = Duration::millisF(30.0) -
        Duration::millisF(19.0); // minus T_mech applied by the ECU
    /** Release the brake when the path clears beyond this distance. */
    double release_distance = 6.0;
};

/** Watches radar/sonar and fires the ECU override. */
class ReactivePath final : private EventTarget
{
  public:
    ReactivePath(Simulator &sim, Ecu &ecu, const RadarModel &radar,
                 const ReactiveConfig &config = {})
        : sim_(sim), ecu_(ecu), radar_(radar), config_(config) {}

    /**
     * Evaluate one radar/sonar cycle with the vehicle at @p body
     * moving at @p speed. Triggers or releases the emergency brake.
     * The radar is asked only as far as a decision reads (Q: the
     * trigger distance while unlatched, release_distance once latched
     * and stopped, -inf while latched and moving).
     * @return The measured nearest in-path distance: exact hits <= Q,
     *         else none.
     */
    std::optional<double> evaluate(const WorldSnapshot &world, const Pose2 &body,
                                   double speed, Timestamp t);

    std::uint64_t triggerCount() const { return triggers_; }
    bool active() const { return ecu_.emergencyLatched(); }

    /** evaluate() calls so far. */
    std::uint64_t evaluations() const { return evaluations_; }
    /** evaluate() calls the corridor certificate answered without
     *  asking the radar. */
    std::uint64_t certifiedSkips() const { return certified_skips_; }

    /** The center-to-obstacle distance below which braking fires, at
     *  speed @p v with deceleration @p decel. */
    double
    triggerDistance(double v, double decel) const
    {
        const double reaction =
            (config_.path_latency + ecu_.mechanicalLatency()).toSeconds();
        return v * reaction + v * v / (2.0 * decel) + config_.margin +
            config_.ego_front_overhang;
    }

  private:
    /** A corridor query that found every box clear, and what it
     *  proved (see the file comment). */
    struct Certificate
    {
        std::uint64_t revision = 0; //!< 0 = none held
        Vec2 position;
        double heading = 0.0;
        double range = 0.0;
        double time_s = 0.0;
        CorridorClearance clearance;
    };

    /** The reactive signal reaches the ECU. */
    void onEvent(std::uint64_t) override { ecu_.emergencyBrake(); }

    /** The corridor reading up to @p range: none when the certificate
     *  covers the poll, else the radar's answer (reissuing). */
    std::optional<double> corridor(const WorldSnapshot &world,
                                   const Pose2 &body, Timestamp t,
                                   double range);

    Simulator &sim_;
    Ecu &ecu_;
    const RadarModel &radar_;
    ReactiveConfig config_;
    std::uint64_t triggers_ = 0;
    Certificate certificate_;
    std::uint64_t evaluations_ = 0;
    std::uint64_t certified_skips_ = 0;
};

} // namespace sov
