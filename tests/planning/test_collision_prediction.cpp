#include <gtest/gtest.h>

#include "planning/collision.h"
#include "planning/prediction.h"

namespace sov {
namespace {

FusedObject
object(double x, double y, double vx = 0.0, double vy = 0.0)
{
    FusedObject o;
    o.track_id = 42;
    o.position = Vec2(x, y);
    o.velocity = Vec2(vx, vy);
    return o;
}

TEST(Prediction, StaticObjectStaysPut)
{
    const auto preds =
        predictObjects({object(10.0, 2.0)}, Timestamp::origin());
    ASSERT_EQ(preds.size(), 1u);
    ASSERT_GE(preds[0].states.size(), 2u);
    const auto &first = preds[0].states.front();
    const auto &last = preds[0].states.back();
    EXPECT_NEAR(first.footprint.box().pose.position.x(), 10.0, 1e-12);
    EXPECT_NEAR(last.footprint.box().pose.position.x(), 10.0, 1e-12);
}

TEST(Prediction, MovingObjectAdvances)
{
    PredictionConfig cfg;
    cfg.horizon_s = 2.0;
    cfg.step_s = 1.0;
    const auto preds = predictObjects({object(0.0, 0.0, 3.0, 0.0)},
                                      Timestamp::origin(), cfg);
    ASSERT_EQ(preds[0].states.size(), 3u);
    EXPECT_NEAR(preds[0].states[2].footprint.box().pose.position.x(), 6.0,
                1e-12);
    // Heading aligned with the velocity.
    EXPECT_NEAR(preds[0].states[0].footprint.box().pose.heading, 0.0, 1e-12);
}

TEST(Collision, DetectsStaticBlockerAhead)
{
    const Polyline2 path({Vec2(0, 0), Vec2(100, 0)});
    const auto preds =
        predictObjects({object(20.0, 0.0)}, Timestamp::origin());
    const auto hit = firstCollision(path, 0.0, 5.0, preds);
    ASSERT_TRUE(hit.has_value());
    // Impact when the footprints touch: 20 - 1.3 - 0.6 ~ 18.1 m.
    EXPECT_NEAR(hit->arc_length, 18.0, 1.0);
    EXPECT_EQ(hit->track_id, 42u);
    EXPECT_NEAR(hit->time_to_impact, hit->arc_length / 5.0, 0.2);
}

TEST(Collision, ClearPathNoCollision)
{
    const Polyline2 path({Vec2(0, 0), Vec2(100, 0)});
    const auto preds =
        predictObjects({object(20.0, 5.0)}, Timestamp::origin());
    EXPECT_FALSE(firstCollision(path, 0.0, 5.0, preds).has_value());
}

TEST(Collision, CrossingPedestrianTimedCorrectly)
{
    // Pedestrian crossing the lane: collision only if arrival times
    // coincide. Ego at 5 m/s reaches x=20 at t=4; pedestrian at
    // (20, -4) moving +y at 1 m/s reaches y=0 at t=4. Collision.
    const Polyline2 path({Vec2(0, 0), Vec2(100, 0)});
    const auto crossing =
        predictObjects({object(20.0, -4.0, 0.0, 1.0)},
                       Timestamp::origin(),
                       PredictionConfig{8.0, 0.25, 0.6, 0.6});
    EXPECT_TRUE(firstCollision(path, 0.0, 5.0, crossing).has_value());

    // Same pedestrian but ego twice as fast: ego passes x=20 at t=2,
    // pedestrian still 2 m short of the lane. No collision.
    const auto miss = firstCollision(path, 0.0, 10.0, crossing);
    EXPECT_FALSE(miss.has_value());
}

TEST(Collision, RespectsLookahead)
{
    const Polyline2 path({Vec2(0, 0), Vec2(200, 0)});
    const auto preds =
        predictObjects({object(100.0, 0.0)}, Timestamp::origin(),
                       PredictionConfig{60.0, 0.5, 0.6, 0.6});
    EXPECT_FALSE(
        firstCollision(path, 0.0, 5.0, preds, {}, 40.0).has_value());
    EXPECT_TRUE(
        firstCollision(path, 0.0, 5.0, preds, {}, 150.0).has_value());
}

TEST(Collision, StartOffsetHonored)
{
    const Polyline2 path({Vec2(0, 0), Vec2(100, 0)});
    const auto preds =
        predictObjects({object(20.0, 0.0)}, Timestamp::origin());
    const auto hit = firstCollision(path, 10.0, 5.0, preds);
    ASSERT_TRUE(hit.has_value());
    EXPECT_NEAR(hit->arc_length, 8.0, 1.0); // measured from s=10
}

} // namespace
} // namespace sov
