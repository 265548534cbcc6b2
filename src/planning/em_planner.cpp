#include "planning/em_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/logging.h"

namespace sov {

namespace {

/** Cost of being at world point @p p given predicted obstacles at
 *  approximately time @p t_hint. */
double
obstacleCost(const Vec2 &p, double t_hint,
             const std::vector<ObjectPrediction> &predictions,
             double radius)
{
    double cost = 0.0;
    for (const auto &pred : predictions) {
        // Pick the state nearest the hint time.
        const PredictedState *best = nullptr;
        double best_dt = 1e18;
        for (const auto &state : pred.states) {
            const double dt = std::fabs(
                (state.time - pred.states.front().time).toSeconds() -
                t_hint);
            if (dt < best_dt) {
                best_dt = dt;
                best = &state;
            }
        }
        if (!best)
            continue;
        const double d = best->footprint.box().pose.position.distanceTo(p);
        if (d < radius) {
            const double x = 1.0 - d / radius;
            cost += 50.0 * x * x;
            if (best->footprint.contains(p))
                cost += 1e4;
        }
    }
    return cost;
}

} // namespace

std::vector<double>
EmPlanner::dpPath(const PlannerInput &input, double start_s, double start_l,
                  const std::vector<ObjectPrediction> &predictions) const
{
    const std::size_t stations = static_cast<std::size_t>(
        config_.horizon_m / config_.station_step);
    const std::size_t lanes = config_.lateral_samples;
    const double l_step =
        2.0 * config_.lateral_span / static_cast<double>(lanes - 1);
    const auto lateral_of = [&](std::size_t j) {
        return -config_.lateral_span + static_cast<double>(j) * l_step;
    };

    // DP tables: cost[j] at the current station, with back-pointers.
    std::vector<std::vector<std::size_t>> back(
        stations, std::vector<std::size_t>(lanes, 0));
    std::vector<double> cost(lanes, 0.0);

    // Station 0 cost: distance from the vehicle's current offset.
    for (std::size_t j = 0; j < lanes; ++j) {
        const double dl = lateral_of(j) - start_l;
        cost[j] = 4.0 * dl * dl;
    }

    const double ref_speed = std::max(input.ego_speed, 1.0);
    for (std::size_t i = 1; i < stations; ++i) {
        const double s = start_s + static_cast<double>(i) *
            config_.station_step;
        const double t_hint =
            static_cast<double>(i) * config_.station_step / ref_speed;
        const Vec2 center = input.reference_path.sample(s);
        const double heading = input.reference_path.headingAt(s);
        const Vec2 normal(-std::sin(heading), std::cos(heading));

        std::vector<double> next(lanes,
                                 std::numeric_limits<double>::max());
        for (std::size_t j = 0; j < lanes; ++j) {
            const double l = lateral_of(j);
            const Vec2 p = center + normal * l;
            const double node_cost =
                config_.lateral_weight * l * l +
                obstacleCost(p, t_hint, predictions,
                             config_.obstacle_cost_radius);
            for (std::size_t pj = 0; pj < lanes; ++pj) {
                const double dl = lateral_of(pj) - l;
                const double trans =
                    config_.smooth_weight * dl * dl /
                    (config_.station_step * config_.station_step);
                const double total = cost[pj] + node_cost + trans;
                if (total < next[j]) {
                    next[j] = total;
                    back[i][j] = pj;
                }
            }
        }
        cost = std::move(next);
    }

    // Trace back the best terminal node.
    std::size_t j = static_cast<std::size_t>(
        std::min_element(cost.begin(), cost.end()) - cost.begin());
    std::vector<double> offsets(stations);
    for (std::size_t i = stations; i-- > 0;) {
        offsets[i] = lateral_of(j);
        if (i > 0)
            j = back[i][j];
    }
    return offsets;
}

std::vector<double>
EmPlanner::qpSmooth(const std::vector<double> &offsets, double start_l) const
{
    const std::size_t n = offsets.size();
    SOV_ASSERT(n >= 3);

    // minimize sum (x_i - dp_i)^2 + w * sum (x_{i-1} - 2x_i + x_{i+1})^2
    // subject (softly) to x_0 = start_l. Normal equations are SPD.
    Matrix a = Matrix::identity(n);
    Matrix b(n, 1);
    for (std::size_t i = 0; i < n; ++i)
        b(i, 0) = offsets[i];
    // Anchor the first point strongly at the vehicle's current offset.
    a(0, 0) += 100.0;
    b(0, 0) += 100.0 * start_l;

    const double w = config_.qp_smooth_weight;
    for (std::size_t i = 1; i + 1 < n; ++i) {
        // Second-difference row d = [1, -2, 1] at (i-1, i, i+1):
        // add w * d^T d into A.
        const std::size_t idx[3] = {i - 1, i, i + 1};
        const double coef[3] = {1.0, -2.0, 1.0};
        for (std::size_t r = 0; r < 3; ++r)
            for (std::size_t col = 0; col < 3; ++col)
                a(idx[r], idx[col]) += w * coef[r] * coef[col];
    }

    const Matrix x = a.choleskySolve(b);
    std::vector<double> smooth(n);
    for (std::size_t i = 0; i < n; ++i)
        smooth[i] = x(i, 0);
    return smooth;
}

std::vector<double>
EmPlanner::dpSpeed(const PlannerInput &input,
                   const std::vector<double> &offsets, double start_s,
                   const std::vector<ObjectPrediction> &predictions) const
{
    const std::size_t stations = offsets.size();
    const std::size_t vn = config_.speed_samples;
    const double v_step =
        config_.max_speed / static_cast<double>(vn - 1);
    const auto speed_of = [&](std::size_t k) {
        return static_cast<double>(k) * v_step;
    };

    // DP over (station, speed) with kinematic transition limits.
    const double inf = std::numeric_limits<double>::max();
    std::vector<double> cost(vn, inf);
    std::vector<std::vector<std::size_t>> back(
        stations, std::vector<std::size_t>(vn, 0));

    // Initial speed bucket.
    const auto start_k = static_cast<std::size_t>(std::clamp(
        input.ego_speed / v_step, 0.0, static_cast<double>(vn - 1)));
    cost[start_k] = 0.0;

    const double ds = config_.station_step;
    for (std::size_t i = 1; i < stations; ++i) {
        const double s = start_s + static_cast<double>(i) * ds;
        const Vec2 center = input.reference_path.sample(s);
        const double heading = input.reference_path.headingAt(s);
        const Vec2 normal(-std::sin(heading), std::cos(heading));
        const Vec2 p = center + normal * offsets[i];
        const double t_hint = static_cast<double>(i) * ds /
            std::max(input.ego_speed, 1.0);
        const double obs =
            obstacleCost(p, t_hint, predictions,
                         config_.obstacle_cost_radius);

        std::vector<double> next(vn, inf);
        for (std::size_t k = 0; k < vn; ++k) {
            const double v = speed_of(k);
            // Prefer going fast (cost for being slow) unless blocked.
            double node = (config_.max_speed - v) +
                obs * (0.2 + v / config_.max_speed);
            if (v > input.speed_limit)
                node += 1e3; // above the segment limit
            for (std::size_t pk = 0; pk < vn; ++pk) {
                if (cost[pk] == inf)
                    continue;
                const double pv = speed_of(pk);
                const double avg = std::max(0.5 * (v + pv), 0.3);
                const double dt = ds / avg;
                const double accel = (v - pv) / dt;
                if (accel > config_.max_accel ||
                    accel < -config_.max_decel) {
                    continue;
                }
                const double total = cost[pk] + node;
                if (total < next[k]) {
                    next[k] = total;
                    back[i][k] = pk;
                }
            }
        }
        cost = std::move(next);
    }

    std::size_t k = static_cast<std::size_t>(
        std::min_element(cost.begin(), cost.end()) - cost.begin());
    std::vector<double> speeds(stations);
    for (std::size_t i = stations; i-- > 0;) {
        speeds[i] = speed_of(k);
        if (i > 0)
            k = back[i][k];
    }
    speeds[0] = input.ego_speed;
    return speeds;
}

EmPlan
EmPlanner::plan(const PlannerInput &input) const
{
    SOV_ASSERT(input.reference_path.size() >= 2);
    const auto predictions = predictObjects(input.objects, input.now);
    const auto [start_s, start_l] =
        input.reference_path.project(input.ego_pose.position);

    EmPlan plan;
    const auto dp = dpPath(input, start_s, start_l, predictions);
    plan.lateral_offsets = qpSmooth(dp, start_l);
    plan.speeds = dpSpeed(input, plan.lateral_offsets, start_s,
                          predictions);

    // Materialize the world-frame path.
    for (std::size_t i = 0; i < plan.lateral_offsets.size(); ++i) {
        const double s = start_s + static_cast<double>(i) *
            config_.station_step;
        const Vec2 center = input.reference_path.sample(s);
        const double heading = input.reference_path.headingAt(s);
        const Vec2 normal(-std::sin(heading), std::cos(heading));
        plan.path.append(center + normal * plan.lateral_offsets[i]);
    }

    // First-step command: curvature from the first two path segments,
    // acceleration from the first speed transition.
    plan.command.issued_at = input.now;
    if (plan.path.size() >= 3) {
        const double h0 = plan.path.headingAt(0.5 * config_.station_step);
        const double h1 = plan.path.headingAt(1.5 * config_.station_step);
        plan.command.steer_curvature =
            wrapAngle(h1 - h0) / config_.station_step;
    }
    if (plan.speeds.size() >= 2) {
        const double v0 = std::max(input.ego_speed, 0.3);
        const double dt = config_.station_step / v0;
        plan.command.acceleration =
            std::clamp((plan.speeds[1] - input.ego_speed) / dt,
                       -config_.max_decel, config_.max_accel);
    }
    return plan;
}

} // namespace sov
