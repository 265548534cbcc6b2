/**
 * @file
 * Ultrasonic (sonar) ranger — the short-range complement of radar on
 * the reactive path (Sec. IV). Reports the distance to the nearest
 * surface inside a wide cone, with a short maximum range.
 *
 * The model itself is always healthy; the closed loop does not drive
 * a sonar, and rejects a fault plan that targets one.
 */
#pragma once

#include <optional>

#include "core/rng.h"
#include "core/time.h"
#include "math/geometry.h"
#include "world/world.h"

namespace sov {

/** Sonar configuration. */
struct SonarConfig
{
    double rate_hz = 20.0;
    double max_range = 5.0;     //!< meters (short-range sensor)
    double cone_half_angle = 0.35; //!< radians
    double range_noise = 0.02;  //!< meters
    double mount_yaw = 0.0;     //!< beam direction relative to body +x
};

/** One sonar reading. */
struct SonarReading
{
    Timestamp trigger_time;
    std::optional<double> range; //!< nullopt = nothing in range
};

/** Simulated sonar unit. */
class SonarModel
{
  public:
    SonarModel(const SonarConfig &config, Rng rng)
        : config_(config), rng_(std::move(rng)) {}

    /** Ping from the vehicle at @p body, time @p t. */
    SonarReading ping(const WorldSnapshot &world, const Pose2 &body, Timestamp t);

    Duration period() const
    {
        return Duration::seconds(1.0 / config_.rate_hz);
    }

    const SonarConfig &config() const { return config_; }

  private:
    SonarConfig config_;
    Rng rng_;
};

} // namespace sov
