#include "planning/collision.h"

#include <cmath>

namespace sov {

std::optional<CollisionInfo>
firstCollision(const Polyline2 &path, double start_s, double speed,
               const std::vector<ObjectPrediction> &predictions,
               const EgoFootprint &ego, double max_lookahead)
{
    if (path.size() < 2 || speed <= 0.0)
        return std::nullopt;

    const double step = 0.5; // meters of path per sweep sample
    const double end_s =
        std::min(start_s + max_lookahead, path.length());

    // Re-assigned once per sample, when a prediction first covers it;
    // on a straight stretch the heading trig carries over (assign()).
    PreparedBox ego_box;
    for (double s = start_s; s <= end_s; s += step) {
        const double t = (s - start_s) / speed; // seconds from now
        bool ego_ready = false;

        for (const auto &pred : predictions) {
            // Find the predicted state nearest in time.
            const PredictedState *best = nullptr;
            double best_dt = 1e18;
            for (const auto &state : pred.states) {
                const double dt = std::fabs(
                    (state.time - pred.states.front().time).toSeconds() -
                    t);
                if (dt < best_dt) {
                    best_dt = dt;
                    best = &state;
                }
            }
            if (!best || best_dt > 0.5)
                continue; // object prediction doesn't cover this time
            if (!ego_ready) {
                ego_box.assign(OrientedBox2{
                    Pose2{path.sample(s), path.headingAt(s)},
                    ego.half_length, ego.half_width});
                ego_ready = true;
            }
            // Bounding circles apart: no overlap, and neither box
            // needs its corners (PreparedBox::clearanceBound).
            if (ego_box.clearanceBound(best->footprint) <= 0.0 &&
                ego_box.overlaps(best->footprint)) {
                return CollisionInfo{s - start_s, t, pred.track_id};
            }
        }
    }
    return std::nullopt;
}

} // namespace sov
