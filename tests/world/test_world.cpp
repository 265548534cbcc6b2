#include <gtest/gtest.h>

#include "world/world.h"

namespace sov {
namespace {

Obstacle
boxAt(double x, double y, double hl = 1.0, double hw = 1.0)
{
    Obstacle o;
    o.footprint = OrientedBox2{Pose2{Vec2(x, y), 0.0}, hl, hw};
    return o;
}

TEST(World, AddObstacleAssignsIds)
{
    World w;
    const auto a = w.addObstacle(boxAt(5, 0));
    const auto b = w.addObstacle(boxAt(9, 0));
    EXPECT_NE(a, b);
    EXPECT_EQ(w.numObstacles(), 2u);
    w.clearObstacles();
    EXPECT_EQ(w.numObstacles(), 0u);
}

TEST(World, ClearObstaclesRestartsIdAssignment)
{
    World w;
    w.addObstacle(boxAt(5, 0));
    w.addObstacle(boxAt(9, 0));
    w.clearObstacles();
    // A cleared world is a fresh scenario: ids restart from 0, so a
    // rebuilt population is bit-identical to a first build (the old
    // clearObstacles() leaked the counter and drifted every rebuild).
    EXPECT_EQ(w.addObstacle(boxAt(5, 0)), ObstacleId{0});
    EXPECT_EQ(w.addObstacle(boxAt(9, 0)), ObstacleId{1});
}

TEST(World, ResetRebuildIsBitIdentical)
{
    auto populate = [](World &w, Rng rng) {
        for (int i = 0; i < 8; ++i) {
            Obstacle o = boxAt(rng.uniform(0.0, 100.0),
                               rng.uniform(-5.0, 5.0));
            o.velocity = Vec2(rng.uniform(-2.0, 2.0), 0.0);
            w.addObstacle(o);
        }
        const Polyline2 path({Vec2(0, 0), Vec2(100, 0)});
        w.scatterLandmarks(path, 50, 8.0, 4.0, rng);
    };

    World w;
    populate(w, Rng(11));
    w.advanceTo(Timestamp::seconds(2.0), Pose2{Vec2(0, 0), 0.0}, 5.0);

    std::vector<Obstacle> first(w.obstacles());
    std::vector<Landmark> first_lms(w.landmarks());

    w.reset();
    EXPECT_EQ(w.numObstacles(), 0u);
    EXPECT_TRUE(w.landmarks().empty());
    EXPECT_EQ(w.timeline().epoch(), Timestamp::origin());

    populate(w, Rng(11));
    ASSERT_EQ(w.obstacles().size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(w.obstacles()[i].id, first[i].id);
        EXPECT_EQ(w.obstacles()[i].footprint.pose.position.x(),
                  first[i].footprint.pose.position.x());
        EXPECT_EQ(w.obstacles()[i].footprint.pose.position.y(),
                  first[i].footprint.pose.position.y());
        EXPECT_EQ(w.obstacles()[i].velocity.x(), first[i].velocity.x());
    }
    ASSERT_EQ(w.landmarks().size(), first_lms.size());
    for (std::size_t i = 0; i < first_lms.size(); ++i) {
        EXPECT_EQ(w.landmarks()[i].id, first_lms[i].id);
        EXPECT_EQ(w.landmarks()[i].position.x(),
                  first_lms[i].position.x());
    }
}

TEST(World, RaycastHitsNearestObstacle)
{
    World w;
    w.addObstacle(boxAt(10.0, 0.0)); // front face at x = 9
    w.addObstacle(boxAt(5.0, 0.0));  // front face at x = 4
    const auto hit = w.snapshot().raycast(Vec2(0, 0), Vec2(1, 0), 50.0,
                                          Timestamp::origin());
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(*hit, 4.0, 1e-9);
}

TEST(World, RaycastMissesOffAxisObstacles)
{
    World w;
    w.addObstacle(boxAt(10.0, 5.0));
    const auto hit = w.snapshot().raycast(Vec2(0, 0), Vec2(1, 0), 50.0,
                                          Timestamp::origin());
    EXPECT_FALSE(hit.has_value());
}

TEST(World, RaycastRespectsMaxRange)
{
    World w;
    w.addObstacle(boxAt(30.0, 0.0));
    EXPECT_FALSE(w.snapshot().raycast(Vec2(0, 0), Vec2(1, 0), 10.0,
                                      Timestamp::origin()).has_value());
    EXPECT_TRUE(w.snapshot().raycast(Vec2(0, 0), Vec2(1, 0), 40.0,
                                     Timestamp::origin()).has_value());
}

TEST(World, RaycastZeroDirectionSeesNothing)
{
    World w;
    w.addObstacle(boxAt(1.0, 0.0, 2.0, 2.0));
    // Inside an obstacle with a degenerate direction: nullopt, not a
    // normalized() panic.
    EXPECT_FALSE(w.snapshot().raycast(Vec2(0.5, 0.0), Vec2(0, 0), 10.0,
                                      Timestamp::origin()).has_value());
}

TEST(World, RaycastObstacleExactlyAtMaxRangeHits)
{
    World w;
    w.addObstacle(boxAt(11.0, 0.0)); // front face exactly at x = 10
    const auto hit = w.snapshot().raycast(Vec2(0, 0), Vec2(1, 0), 10.0,
                                          Timestamp::origin());
    ASSERT_TRUE(hit.has_value()); // segment endpoints are inclusive
    EXPECT_NEAR(*hit, 10.0, 1e-9);
}

TEST(World, QueryBeforeReferenceTimeExtrapolatesBackwards)
{
    World w;
    Obstacle o = boxAt(20.0, 0.0);
    o.velocity = Vec2(2.0, 0.0);
    w.addObstacle(o);
    // The closed form is valid for t < the publish epoch too: the
    // radar/sonar models may query slightly in the past (sensor
    // latency) and must see the same linear motion. Returned rows are
    // the raw published rows; positionAt does the extrapolation.
    const auto near = w.snapshot().obstaclesNear(Vec2(0, 0), 100.0,
                                                 Timestamp::seconds(-5.0));
    ASSERT_EQ(near.size(), 1u);
    EXPECT_NEAR(near[0].positionAt(Timestamp::seconds(-5.0)).x(), 10.0,
                1e-12);
    // And out of range backwards in time, the row is filtered out.
    EXPECT_TRUE(w.snapshot().obstaclesNear(Vec2(0, 0), 5.0,
                                           Timestamp::seconds(-5.0)).empty());
}

TEST(World, RaycastInsideObstacleIsZero)
{
    World w;
    w.addObstacle(boxAt(0.0, 0.0, 2.0, 2.0));
    const auto hit = w.snapshot().raycast(Vec2(0.5, 0.0), Vec2(1, 0), 10.0,
                                          Timestamp::origin());
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 0.0);
}

TEST(World, MovingObstacleAdvancesWithTime)
{
    World w;
    Obstacle o = boxAt(20.0, 0.0);
    o.velocity = Vec2(-1.0, 0.0); // approaching at 1 m/s
    w.addObstacle(o);
    const auto at0 = w.snapshot().raycast(Vec2(0, 0), Vec2(1, 0), 50.0,
                                          Timestamp::origin());
    const auto at5 = w.snapshot().raycast(Vec2(0, 0), Vec2(1, 0), 50.0,
                                          Timestamp::seconds(5.0));
    ASSERT_TRUE(at0 && at5);
    EXPECT_NEAR(*at0 - *at5, 5.0, 1e-9);
}

TEST(World, ObstaclesNearFiltersByRange)
{
    World w;
    w.addObstacle(boxAt(3.0, 0.0));
    w.addObstacle(boxAt(50.0, 0.0));
    const auto near =
        w.snapshot().obstaclesNear(Vec2(0, 0), 10.0, Timestamp::origin());
    ASSERT_EQ(near.size(), 1u);
    EXPECT_NEAR(near[0].footprint.pose.position.x(), 3.0, 1e-12);
}

TEST(World, ScatterLandmarksStaysInCorridor)
{
    World w;
    Rng rng(42);
    const Polyline2 path({Vec2(0, 0), Vec2(100, 0)});
    w.scatterLandmarks(path, 200, 8.0, 4.0, rng);
    EXPECT_EQ(w.landmarks().size(), 200u);
    for (const auto &lm : w.landmarks()) {
        EXPECT_GE(lm.position.x(), -1.0);
        EXPECT_LE(lm.position.x(), 101.0);
        EXPECT_LE(std::fabs(lm.position.y()), 8.0 + 1e-9);
        // Off the road surface.
        EXPECT_GE(std::fabs(lm.position.y()), 0.35 * 8.0 - 1e-9);
        EXPECT_GE(lm.position.z(), 0.3);
        EXPECT_LE(lm.position.z(), 4.0);
        EXPECT_GT(lm.intensity, 0.0);
        EXPECT_LE(lm.intensity, 1.0);
    }
}

TEST(World, ObjectClassNames)
{
    EXPECT_STREQ(toString(ObjectClass::Pedestrian), "pedestrian");
    EXPECT_STREQ(toString(ObjectClass::Car), "car");
    EXPECT_STREQ(toString(ObjectClass::Bicycle), "bicycle");
    EXPECT_STREQ(toString(ObjectClass::Static), "static");
}

} // namespace
} // namespace sov
