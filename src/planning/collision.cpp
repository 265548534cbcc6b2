#include "planning/collision.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"

namespace sov {

std::optional<CollisionInfo>
firstCollision(const Polyline2 &path, double start_s, double speed,
               const std::vector<ObjectPrediction> &predictions,
               const EgoFootprint &ego, double max_lookahead)
{
    if (path.size() < 2 || speed <= 0.0)
        return std::nullopt;
    for (const auto &pred : predictions) {
        SOV_ASSERT(std::is_sorted(
            pred.states.begin(), pred.states.end(),
            [](const PredictedState &a, const PredictedState &b) {
                return a.time < b.time;
            }));
    }

    const double step = 0.5; // meters of path per sweep sample
    const double end_s =
        std::min(start_s + max_lookahead, path.length());

    // Per prediction, the state nearest in time to the last sample
    // (first of equals); reused across calls, so a warm thread does
    // not allocate.
    thread_local std::vector<std::size_t> cursors;
    cursors.assign(predictions.size(), 0);

    // Re-assigned once per sample, when a prediction first covers it;
    // on a straight stretch the heading trig carries over (assign()).
    PreparedBox ego_box;
    for (double s = start_s; s <= end_s; s += step) {
        const double t = (s - start_s) / speed; // seconds from now
        bool ego_ready = false;

        for (std::size_t p = 0; p < predictions.size(); ++p) {
            const auto &pred = predictions[p];
            if (pred.states.empty())
                continue;
            // The predicted state nearest in time: the first index of
            // the least |dt_k - t|, as a scan of every state finds it.
            // Over sorted times these rounded values fall, then rise
            // (rounding is monotone), so a forward walk from the last
            // sample's index that moves on strict decreases only and
            // stops at the first rise ends on the first least value at
            // or past that index. As t never decreases along the sweep,
            // the answer never lies before it, save through a rounding
            // tie between two distinct times. Such a tie lies more than
            // 0.5 s from t (within 0.5 s, |dt_k - t| rounds finer than
            // two distinct nanosecond times are apart), where no state
            // is taken, and the states it passes over are then more
            // than 0.5 s behind every later t.
            const auto gap = [&pred, t](std::size_t k) {
                return std::fabs(
                    (pred.states[k].time - pred.states.front().time)
                        .toSeconds() -
                    t);
            };
            std::size_t &k = cursors[p];
            double best_dt = gap(k);
            for (std::size_t j = k + 1; j < pred.states.size(); ++j) {
                const double dt = gap(j);
                if (dt < best_dt) {
                    best_dt = dt;
                    k = j;
                } else if (dt > best_dt) {
                    break;
                }
            }
            if (!(best_dt <= 0.5))
                continue; // object prediction doesn't cover this time
            if (!ego_ready) {
                ego_box.assign(OrientedBox2{
                    Pose2{path.sample(s), path.headingAt(s)},
                    ego.half_length, ego.half_width});
                ego_ready = true;
            }
            // Bounding circles apart: no overlap, and neither box
            // needs its corners (PreparedBox::clearanceBound).
            const PreparedBox &footprint = pred.states[k].footprint;
            if (!(ego_box.clearanceBound(footprint) > 0.0) &&
                ego_box.overlaps(footprint)) {
                return CollisionInfo{s - start_s, t, pred.track_id};
            }
        }
    }
    return std::nullopt;
}

} // namespace sov
