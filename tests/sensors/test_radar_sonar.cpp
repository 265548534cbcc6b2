#include <gtest/gtest.h>

#include <cmath>

#include "sensors/radar.h"
#include "sensors/sonar.h"

namespace sov {
namespace {

World
worldWithCar(double x, double y, const Vec2 &vel = Vec2(0, 0))
{
    World w;
    Obstacle o;
    o.cls = ObjectClass::Car;
    o.footprint = OrientedBox2{Pose2{Vec2(x, y), 0.0}, 1.0, 1.0};
    o.velocity = vel;
    o.height = 1.6;
    w.addObstacle(o);
    return w;
}

TEST(Radar, DetectsObstacleInFov)
{
    RadarConfig cfg;
    cfg.detection_probability = 1.0;
    cfg.range_noise = 0.0;
    cfg.azimuth_noise = 0.0;
    cfg.velocity_noise = 0.0;
    RadarModel radar(cfg, Rng(1));
    const World w = worldWithCar(20.0, 2.0);
    const auto dets = radar.scan(w, Pose2{Vec2(0, 0), 0.0}, Vec2(0, 0),
                                 Timestamp::origin());
    ASSERT_EQ(dets.size(), 1u);
    EXPECT_NEAR(dets[0].range, std::hypot(20.0, 2.0), 1e-9);
    EXPECT_NEAR(dets[0].azimuth, std::atan2(2.0, 20.0), 1e-9);
}

TEST(Radar, IgnoresOutOfFov)
{
    RadarConfig cfg;
    cfg.detection_probability = 1.0;
    cfg.fov = 0.6;
    RadarModel radar(cfg, Rng(2));
    const World w = worldWithCar(5.0, 10.0); // ~63 deg off boresight
    EXPECT_TRUE(radar.scan(w, Pose2{Vec2(0, 0), 0.0}, Vec2(0, 0),
                           Timestamp::origin()).empty());
}

TEST(Radar, RadialVelocityRelativeToEgo)
{
    RadarConfig cfg;
    cfg.detection_probability = 1.0;
    cfg.velocity_noise = 0.0;
    RadarModel radar(cfg, Rng(3));
    // Target ahead receding at 2 m/s while ego approaches at 5 m/s:
    // relative radial velocity = 2 - 5 = -3 (closing).
    const World w = worldWithCar(20.0, 0.0, Vec2(2.0, 0.0));
    const auto dets = radar.scan(w, Pose2{Vec2(0, 0), 0.0},
                                 Vec2(5.0, 0.0), Timestamp::origin());
    ASSERT_EQ(dets.size(), 1u);
    EXPECT_NEAR(dets[0].radial_velocity, -3.0, 1e-9);
}

TEST(Radar, DetectionProbabilityDropsSome)
{
    RadarConfig cfg;
    cfg.detection_probability = 0.5;
    RadarModel radar(cfg, Rng(4));
    const World w = worldWithCar(15.0, 0.0);
    int hits = 0;
    for (int i = 0; i < 400; ++i) {
        hits += !radar.scan(w, Pose2{Vec2(0, 0), 0.0}, Vec2(0, 0),
                            Timestamp::origin()).empty();
    }
    EXPECT_NEAR(hits / 400.0, 0.5, 0.08);
}

TEST(Radar, NearestInPathSeesCorridorOnly)
{
    RadarModel radar(RadarConfig{}, Rng(5));
    World w = worldWithCar(12.0, 0.0);
    // Off-corridor obstacle.
    Obstacle side;
    side.footprint = OrientedBox2{Pose2{Vec2(6.0, 5.0), 0.0}, 1.0, 1.0};
    w.addObstacle(side);

    const auto d = radar.nearestInPath(w, Pose2{Vec2(0, 0), 0.0}, 0.8,
                                       Timestamp::origin());
    ASSERT_TRUE(d.has_value());
    EXPECT_NEAR(*d, 11.0, 1e-9); // front face of the in-path car
}

TEST(Radar, NearestInPathEmptyWhenClear)
{
    RadarModel radar(RadarConfig{}, Rng(6));
    World w;
    EXPECT_FALSE(radar.nearestInPath(w, Pose2{Vec2(0, 0), 0.0}, 0.8,
                                     Timestamp::origin()).has_value());
}

TEST(Sonar, ShortRangeDetection)
{
    SonarConfig cfg;
    cfg.range_noise = 0.0;
    SonarModel sonar(cfg, Rng(7));
    const World w = worldWithCar(4.0, 0.0);
    const auto r = sonar.ping(w, Pose2{Vec2(0, 0), 0.0},
                              Timestamp::origin());
    ASSERT_TRUE(r.range.has_value());
    EXPECT_NEAR(*r.range, 3.0, 1e-9);
}

TEST(Sonar, BeyondMaxRangeInvisible)
{
    SonarModel sonar(SonarConfig{}, Rng(8));
    const World w = worldWithCar(10.0, 0.0); // beyond 5 m max range
    const auto r = sonar.ping(w, Pose2{Vec2(0, 0), 0.0},
                              Timestamp::origin());
    EXPECT_FALSE(r.range.has_value());
}

TEST(Sonar, ConeCatchesOffAxis)
{
    SonarConfig cfg;
    cfg.range_noise = 0.0;
    SonarModel sonar(cfg, Rng(9));
    // Obstacle slightly off-axis but inside the cone sweep.
    const World w = worldWithCar(3.0, 1.0);
    const auto r = sonar.ping(w, Pose2{Vec2(0, 0), 0.0},
                              Timestamp::origin());
    EXPECT_TRUE(r.range.has_value());
}

} // namespace
} // namespace sov
