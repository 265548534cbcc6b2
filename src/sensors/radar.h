/**
 * @file
 * Automotive radar model.
 *
 * Object-level detections (range, azimuth, radial velocity) of
 * obstacles in the field of view — the sensor that (1) replaces
 * compute-intensive visual tracking (Sec. VI-B) and (2) drives the
 * reactive safety path (Sec. IV).
 *
 * The model itself is always healthy: injected radar faults act in
 * the closed loop (sovpipe/closed_loop.h), which asks its
 * fault::SensorFaultHub before each reactive-path poll.
 *
 * The corridor query is stateless: every call casts afresh. A caller
 * that polls it every physics step may keep the CorridorClearance a
 * call reports and skip later calls it covers (the reactive path's
 * corridor certificate, vehicle/reactive.h).
 */
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/rng.h"
#include "core/time.h"
#include "math/geometry.h"
#include "world/world.h"

namespace sov {

/** One radar detection (sensor frame: bearing relative to boresight). */
struct RadarDetection
{
    Timestamp trigger_time;
    double range = 0.0;            //!< meters
    double azimuth = 0.0;          //!< radians, left positive
    double radial_velocity = 0.0;  //!< m/s, positive = receding
    ObstacleId truth_id = 0;       //!< ground-truth link (tests only)
};

/** Radar configuration (77 GHz automotive-style defaults). */
struct RadarConfig
{
    double rate_hz = 20.0;
    double max_range = 60.0;
    double fov = 1.2;              //!< full field of view, radians
    double range_noise = 0.15;     //!< meters
    double azimuth_noise = 0.01;   //!< radians
    double velocity_noise = 0.1;   //!< m/s
    double detection_probability = 0.95;
    double mount_yaw = 0.0;        //!< boresight relative to body +x
};

/** Simulated radar unit. */
class RadarModel
{
  public:
    RadarModel(const RadarConfig &config, Rng rng)
        : config_(config), rng_(std::move(rng)) {}

    /**
     * One scan from the vehicle at @p body, time @p t, moving with
     * planar velocity @p ego_velocity (for relative radial velocity).
     */
    std::vector<RadarDetection> scan(const WorldSnapshot &world, const Pose2 &body,
                                     const Vec2 &ego_velocity, Timestamp t);

    /**
     * Distance to the nearest obstacle in the vehicle's forward path
     * corridor — the reactive path's input (Sec. IV). Bypasses object
     * detection entirely. Three parallel rays across the corridor
     * (WorldSnapshot::corridorcast) approximate the beam.
     * @param corridor_half_width Lateral half-width of the checked
     *        corridor, typically half the vehicle width plus margin.
     * @param range The farthest distance the caller's decision reads:
     *        exact hits <= range, else none (the rays stay
     *        config().max_range long, so a returned hit keeps its
     *        bits; boxes wholly beyond it are never cast).
     * @param clearance When non-null, receives what this query proves
     *        about later ones from other poses on rows of the same
     *        revision (WorldSnapshot::corridorcast, CorridorClearance;
     *        the direction is (cos, sin) of the body heading).
     */
    std::optional<double> nearestInPath(
        const WorldSnapshot &world, const Pose2 &body,
        double corridor_half_width, Timestamp t,
        double range = std::numeric_limits<double>::infinity(),
        CorridorClearance *clearance = nullptr) const;

    Duration period() const
    {
        return Duration::seconds(1.0 / config_.rate_hz);
    }

    const RadarConfig &config() const { return config_; }

  private:
    RadarConfig config_;
    Rng rng_;
};

} // namespace sov
