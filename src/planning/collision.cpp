#include "planning/collision.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/logging.h"

namespace sov {

namespace {

/** Meters of path per sweep sample. */
constexpr double kSampleStep = 0.5;
/** A sample takes a prediction's state nearest in time only within
 *  this many seconds of it. */
constexpr double kStateWindow = 0.5;
/** The swept broadphase culls nothing at or beyond this coordinate
 *  scale: below it no square or product it reasons about overflows. */
constexpr double kCullScaleCap = 1e100;

bool
finite(const Vec2 &v)
{
    return std::isfinite(v.x()) && std::isfinite(v.y());
}

} // namespace

std::optional<CollisionInfo>
firstCollision(const Polyline2 &path, double start_s, double speed,
               const std::vector<ObjectPrediction> &predictions,
               const EgoFootprint &ego, double max_lookahead)
{
    return firstCollision(path, start_s, speed,
                          std::span<const ObjectPrediction>(predictions),
                          ego, max_lookahead);
}

std::optional<CollisionInfo>
firstCollision(const Polyline2 &path, double start_s, double speed,
               std::span<const ObjectPrediction> predictions,
               const EgoFootprint &ego, double max_lookahead)
{
    if (predictions.empty() || path.size() < 2 || speed <= 0.0)
        return std::nullopt;
    for (const auto &pred : predictions) {
        SOV_ASSERT(std::is_sorted(
            pred.states.begin(), pred.states.end(),
            [](const PredictedState &a, const PredictedState &b) {
                return a.time < b.time;
            }));
    }

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
    for (double s = start_s; s <= end_s; s += kSampleStep) {
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
            if (!(best_dt <= kStateWindow))
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

SweptBroadphase::SweptBroadphase(const Polyline2 &path, double start_s,
                                 double speed,
                                 const PredictionConfig &prediction,
                                 const EgoFootprint &ego,
                                 double max_lookahead)
    : horizon_(prediction.horizon_s),
      reach_(PreparedBox(OrientedBox2{Pose2{}, ego.half_length,
                                      ego.half_width})
                 .radius() +
             PreparedBox(OrientedBox2{Pose2{}, prediction.half_length,
                                      prediction.half_width})
                 .radius()),
      scale_(std::numeric_limits<double>::quiet_NaN())
{
    // A finite path length means finite vertices and segment lengths,
    // so every sample the sweep takes is finite.
    if (path.size() < 2 || !std::isfinite(path.length()) ||
        !std::isfinite(start_s))
        return;
    // A sample matches a state only when its time (s - start_s) / speed
    // rounds within kStateWindow of the state's offset, and offsets
    // never exceed the horizon (their nanoseconds round down), so every
    // matchable sample has s - start_s <= speed (horizon + window) up
    // to a few ulps, which the relative 1e-6 and the margin on s cover.
    const double end_s = std::min(start_s + max_lookahead, path.length());
    double last = start_s + speed * (horizon_ + kStateWindow) * (1.0 + 1e-6);
    last += PreparedBox::broadphaseMargin(std::fabs(last));
    last = std::min(last, end_s);
    if (!std::isfinite(last))
        return;
    samples_ = path.boundsBetween(start_s, last);
    scale_ = std::max(maxAbs(samples_.lo), maxAbs(samples_.hi)) + reach_;
}

double
SweptBroadphase::clearance(const FusedObject &object) const
{
    // Every state centre p + v dt, 0 <= dt <= horizon, lies in the box
    // of p and q = p + v horizon up to a few ulps of the scale, and
    // every matchable sample centre in samples_ up to as little.
    const Vec2 &p = object.position;
    const Vec2 q = p + object.velocity * horizon_;
    const double scale = scale_ + std::max(maxAbs(p), maxAbs(q));
    if (!(finite(p) && finite(q) && scale < kCullScaleCap))
        return std::numeric_limits<double>::quiet_NaN();
    // Past reach_ plus twice the margin on either axis, each pair of
    // centres is farther apart than both radii plus clearanceBound()'s
    // own margin, with room for every rounding above: that bound is
    // positive, so the pair does not overlap.
    const double gap = std::max({
        std::min(p.x(), q.x()) - samples_.hi.x(),
        samples_.lo.x() - std::max(p.x(), q.x()),
        std::min(p.y(), q.y()) - samples_.hi.y(),
        samples_.lo.y() - std::max(p.y(), q.y()),
    });
    return gap - (reach_ + 2.0 * PreparedBox::broadphaseMargin(scale));
}

} // namespace sov
