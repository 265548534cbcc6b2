/**
 * @file
 * Reactive safety path (Sec. IV): radar/sonar distance readings enter
 * the ECU directly, bypassing sensing->perception->planning. Total
 * reaction latency is ~30 ms versus the proactive path's 149 ms+
 * best case, letting the vehicle stop for objects first seen at
 * 4.1 m — near the 4 m braking-distance limit.
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
    /** The reactive signal reaches the ECU. */
    void onEvent(std::uint64_t) override { ecu_.emergencyBrake(); }

    Simulator &sim_;
    Ecu &ecu_;
    const RadarModel &radar_;
    ReactiveConfig config_;
    std::uint64_t triggers_ = 0;
};

} // namespace sov
