#include "planning/mpc.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/logging.h"

namespace sov {

namespace {

/** A fixed-size row-major matrix whose products, sums and transposes
 *  run Matrix's loops in Matrix's order (zero start, a zero left
 *  factor skipped), so its results are Matrix's, bit for bit. */
template <std::size_t R, std::size_t C>
struct Fixed
{
    std::array<double, R * C> d{};

    double &operator()(std::size_t i, std::size_t j) { return d[i * C + j]; }
    double operator()(std::size_t i, std::size_t j) const { return d[i * C + j]; }
};

template <std::size_t R, std::size_t K, std::size_t C>
Fixed<R, C>
operator*(const Fixed<R, K> &a, const Fixed<K, C> &b)
{
    Fixed<R, C> r;
    for (std::size_t i = 0; i < R; ++i) {
        for (std::size_t k = 0; k < K; ++k) {
            const double x = a(i, k);
            if (x == 0.0)
                continue;
            for (std::size_t j = 0; j < C; ++j)
                r(i, j) += x * b(k, j);
        }
    }
    return r;
}

template <std::size_t R, std::size_t C>
Fixed<R, C>
operator+(Fixed<R, C> a, const Fixed<R, C> &b)
{
    for (std::size_t i = 0; i < R * C; ++i)
        a.d[i] += b.d[i];
    return a;
}

template <std::size_t R, std::size_t C>
Fixed<R, C>
operator-(Fixed<R, C> a, const Fixed<R, C> &b)
{
    for (std::size_t i = 0; i < R * C; ++i)
        a.d[i] -= b.d[i];
    return a;
}

template <std::size_t R, std::size_t C>
Fixed<C, R>
transpose(const Fixed<R, C> &a)
{
    Fixed<C, R> r;
    for (std::size_t i = 0; i < R; ++i)
        for (std::size_t j = 0; j < C; ++j)
            r(j, i) = a(i, j);
    return r;
}

} // namespace

LqrGain
MpcPlanner::lqrGain(double v) const
{
    const double scaled = std::max(v, 0.5) / 0.25;
    if (!(scaled < static_cast<double>(kCachedBuckets)))
        return solveLqr(v);
    const auto bucket = static_cast<std::size_t>(scaled);
    if (bucket >= gain_cache_.size())
        gain_cache_.resize(bucket + 1);
    CachedGain &cached = gain_cache_[bucket];
    if (!cached.valid)
        cached = CachedGain{solveLqr(v), true};
    return cached.gain;
}

LqrGain
MpcPlanner::solveLqr(double v) const
{
    // Discrete error dynamics: e = [d, psi];
    //   d_{k+1}   = d_k + v dt psi_k
    //   psi_{k+1} = psi_k + v dt u     (u = curvature command)
    const double vdt = std::max(v, 0.5) * config_.dt;
    const Fixed<2, 2> a{{1.0, vdt, 0.0, 1.0}};
    const Fixed<2, 1> b{{0.0, vdt}};
    const Fixed<2, 2> q{{config_.q_lateral, 0.0, 0.0, config_.q_heading}};
    const Fixed<1, 1> r{{config_.r_curvature}};

    // Backward Riccati recursion over the horizon.
    Fixed<2, 2> p = q;
    Fixed<1, 2> k;
    for (std::size_t i = 0; i < config_.horizon; ++i) {
        const Fixed<1, 2> bt_p = transpose(b) * p;
        const Fixed<1, 1> s = r + bt_p * b;
        const Fixed<1, 2> k_new = Fixed<1, 1>{{1.0 / s(0, 0)}} * (bt_p * a);
        p = q + transpose(a) * p * (a - b * k_new);
        k = k_new;
    }
    return LqrGain{k(0, 0), k(0, 1)};
}

MpcOutput
MpcPlanner::plan(const PlannerInput &input) const
{
    MpcOutput out;
    out.command.issued_at = input.now;

    SOV_ASSERT(input.reference_path.size() >= 2);

    // Project onto the reference path to get the error state.
    const auto [s, lateral] =
        input.reference_path.project(input.ego_pose.position);
    const double path_heading = input.reference_path.headingAt(s);
    const double heading_err =
        wrapAngle(input.ego_pose.heading - path_heading);
    out.lateral_error = lateral;
    out.heading_error = heading_err;

    // Lateral control: LQR feedback on [offset, heading error] plus
    // the reference path's curvature as feedforward (pure feedback
    // leaves a steady-state offset on curves).
    const double lookahead = 1.0;
    const double kappa_ref = wrapAngle(
        input.reference_path.headingAt(s + lookahead) -
        input.reference_path.headingAt(s)) / lookahead;
    const LqrGain k = lqrGain(input.ego_speed);
    double curvature =
        kappa_ref - (k.lateral * lateral + k.heading * heading_err);
    curvature = std::clamp(curvature, -config_.max_curvature,
                           config_.max_curvature);
    out.command.steer_curvature = curvature;

    // Speed planning: obstacle-limited target speed. Only objects the
    // swept broadphase cannot rule out are predicted, in input order,
    // so the sweep meets the same first collision.
    const PredictionConfig prediction;
    const double sweep_speed = std::max(input.ego_speed, 1.0);
    const SweptBroadphase broadphase(input.reference_path, s, sweep_speed,
                                     prediction);
    std::size_t live = 0;
    for (const FusedObject &object : input.objects) {
        if (broadphase.clearance(object) > 0.0)
            continue;
        if (live == predictions_.size())
            predictions_.emplace_back();
        predictObject(object, input.now, prediction, predictions_[live++]);
    }
    double target = input.speed_limit;
    const auto collision = firstCollision(
        input.reference_path, s, sweep_speed,
        std::span<const ObjectPrediction>(predictions_.data(), live));
    if (collision) {
        const double gap = collision->arc_length - config_.standoff;
        if (gap <= 0.0) {
            target = 0.0;
            out.blocked = true;
        } else {
            // v = sqrt(2 a gap): comfortable stop at the standoff.
            target = std::min(
                target, std::sqrt(2.0 * config_.comfort_decel * gap));
        }
    }
    out.target_speed = target;

    // Longitudinal command toward the target speed.
    const double dv = target - input.ego_speed;
    double accel = std::clamp(dv / config_.dt, -config_.hard_decel,
                              config_.max_accel);
    out.command.acceleration = accel;
    return out;
}

} // namespace sov
