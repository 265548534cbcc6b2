/**
 * @file
 * Point-to-point ICP: two code paths behind the three tiers of
 * IcpConfig::backend.
 *
 * Reference replays the original Matrix-based accumulation rounding
 * for rounding — per correspondence it forms J = [−skew(p) | I] in a
 * stack array and walks JᵀJ / Jᵀr in exactly the order (and with the
 * zero-skip) Matrix::operator* used, so results are bit-identical to
 * the historical implementation without its two heap-allocating
 * small-matrix multiplies per correspondence.
 *
 * Fast exploits the structure instead: with A = −skew(p),
 *   JᵀJ = [[ (pᵀp)I − ppᵀ , skew(p) ], [ skew(p)ᵀ, n·I ]],
 *   Jᵀr = [ p × r , r ],
 * so one pass of sufficient statistics (Σ p_a p_b, Σ p, Σ p×r, Σ r —
 * IcpStats) replaces the 3×6 Jacobian products entirely, and
 * correspondences come from KdTree::nearestBatch (iterative,
 * leaf-ordered SoA scans). Fast is an epsilon away from Reference
 * (reassociated sums); tests/pointcloud/test_icp_fast.cpp gates the
 * transforms against each other. Simd runs the Fast code, bit for
 * bit (icp.h says why).
 */
#include "pointcloud/icp.h"

#include <cmath>
#include <vector>

#include "core/logging.h"
#include "math/matrix.h"

namespace sov {

namespace {

/**
 * Sufficient statistics of one ICP Gauss-Newton pass: with
 * J_i = [−skew(p_i) | I] the normal equations depend only on these
 * sums (see the file comment). Field names: s<a><b> = Σ p_a·p_b,
 * sp = Σ p, sc = Σ p×r, sr = Σ r.
 */
struct IcpStats
{
    double sxx = 0.0, syy = 0.0, szz = 0.0;
    double sxy = 0.0, sxz = 0.0, syz = 0.0;
    double spx = 0.0, spy = 0.0, spz = 0.0;
    double scx = 0.0, scy = 0.0, scz = 0.0;
    double srx = 0.0, sry = 0.0, srz = 0.0;
};

/**
 * Accumulate @p n correspondences (transformed source point p,
 * residual r = p − q, SoA layout) into @p s, in index order.
 */
void
icpAccum(const double *px, const double *py, const double *pz,
         const double *rx, const double *ry, const double *rz,
         std::size_t n, IcpStats &s)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double x = px[i], y = py[i], z = pz[i];
        s.sxx += x * x;
        s.syy += y * y;
        s.szz += z * z;
        s.sxy += x * y;
        s.sxz += x * z;
        s.syz += y * z;
        s.spx += x;
        s.spy += y;
        s.spz += z;
        const double ex = rx[i], ey = ry[i], ez = rz[i];
        s.scx += y * ez - z * ey;
        s.scy += z * ex - x * ez;
        s.scz += x * ey - y * ex;
        s.srx += ex;
        s.sry += ey;
        s.srz += ez;
    }
}

/**
 * Solve the damped 6×6 normal equations and apply the pose update.
 * Shared verbatim by every tier so the tiers differ only in how the
 * normal equations were accumulated.
 * @return true when the update norm signals convergence.
 */
bool
solveAndApply(const double jtj[6][6], const double jtr[6],
              const IcpConfig &config, IcpResult &result)
{
    Matrix m = Matrix::zero(6, 6);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 6; ++c)
            m(r, c) = jtj[r][c];
    // Levenberg damping keeps the solve well-conditioned when the
    // geometry is thin (e.g., planar ground scans).
    for (std::size_t d = 0; d < 6; ++d)
        m(d, d) += 1e-6;

    Matrix rhs = Matrix::zero(6, 1);
    for (std::size_t d = 0; d < 6; ++d)
        rhs(d, 0) = jtr[d] * -1.0;

    const Matrix x = m.choleskySolve(rhs);
    const Vec3 theta(x.at(0), x.at(1), x.at(2));
    const Vec3 dt(x.at(3), x.at(4), x.at(5));

    result.transform.rotation =
        (Quat::fromAxisAngle(theta) * result.transform.rotation)
            .normalized();
    result.transform.translation += dt;
    return x.norm() < config.convergence_threshold;
}

IcpResult
icpAlignReference(const PointCloud &source, const PointCloud &target,
                  const KdTree &target_tree,
                  const RigidTransform &initial_guess,
                  const IcpConfig &config, MemTrace *trace)
{
    IcpResult result;
    result.transform = initial_guess;

    const double max_d2 = config.max_correspondence_distance *
        config.max_correspondence_distance;

    for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
        result.iterations = iter + 1;

        // Accumulate the normal equations J^T J x = -J^T r over all
        // correspondences; x = [theta(3); t(3)].
        double jtj[6][6] = {};
        double jtr[6] = {};
        double error_sum = 0.0;
        std::size_t inliers = 0;

        for (std::size_t i = 0; i < source.size(); ++i) {
            if (trace)
                trace->touchPoint(source.id(),
                                  static_cast<std::uint32_t>(i));
            const Vec3 p = result.transform.apply(source[i]);
            const auto nn = target_tree.nearest(p, trace);
            if (!nn || nn->squared_distance > max_d2)
                continue;
            const Vec3 q = target[nn->index];
            const Vec3 r = p - q;
            error_sum += std::sqrt(nn->squared_distance);
            ++inliers;

            // J = [-skew(p) | I] on the stack; the loops below retrace
            // the historical jt*j / jt*r Matrix products — same k
            // order, same zero-operand skip, same per-term rounding —
            // minus their allocations.
            const double j[3][6] = {
                {0.0, p.z(), -p.y(), 1.0, 0.0, 0.0},
                {-p.z(), 0.0, p.x(), 0.0, 1.0, 0.0},
                {p.y(), -p.x(), 0.0, 0.0, 0.0, 1.0},
            };
            const double rv[3] = {r.x(), r.y(), r.z()};
            double prod[6][6] = {};
            double prodr[6] = {};
            for (std::size_t row = 0; row < 6; ++row) {
                for (std::size_t k = 0; k < 3; ++k) {
                    const double a = j[k][row];
                    if (a == 0.0)
                        continue;
                    for (std::size_t c = 0; c < 6; ++c)
                        prod[row][c] += a * j[k][c];
                    prodr[row] += a * rv[k];
                }
            }
            for (std::size_t row = 0; row < 6; ++row) {
                for (std::size_t c = 0; c < 6; ++c)
                    jtj[row][c] += prod[row][c];
                jtr[row] += prodr[row];
            }
        }

        if (inliers < 3)
            break; // degenerate; keep the current estimate
        result.mean_error = error_sum / static_cast<double>(inliers);

        if (solveAndApply(jtj, jtr, config, result)) {
            result.converged = true;
            break;
        }
    }
    return result;
}

IcpResult
icpAlignFast(const PointCloud &source, const PointCloud &target,
             const KdTree &target_tree,
             const RigidTransform &initial_guess,
             const IcpConfig &config)
{
    IcpResult result;
    result.transform = initial_guess;

    const double max_d2 = config.max_correspondence_distance *
        config.max_correspondence_distance;

    const std::size_t n = source.size();

    // Transformed source points (SoA) — the batch query input — and
    // the correspondence batch (SoA) that feeds icpAccum: inlier
    // points p and residuals r = p − q. Sized once, reused across
    // iterations.
    std::vector<double> tx(n), ty(n), tz(n);
    std::vector<std::uint32_t> nn_index(n);
    std::vector<double> nn_d2(n);
    std::vector<double> px(n), py(n), pz(n), rx(n), ry(n), rz(n);

    // Warm-start seeds: each point's previous-iteration nearest
    // neighbor. The pose moves a little per iteration, so the old
    // correspondence is almost always within an ulp of optimal and
    // the seeded query prunes nearly the whole tree (kdtree.h).
    std::vector<std::uint32_t> seeds(n, KdTree::kNoSeed);

    for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
        result.iterations = iter + 1;

        double error_sum = 0.0;

        // One rotation matrix per iteration instead of a quaternion
        // rotate per point (Reference keeps the per-point rotate; the
        // ulp-level difference is inside the tiers' documented
        // reassociation epsilon).
        const Quat &qr = result.transform.rotation;
        const double qw = qr.w(), qx = qr.x(), qy = qr.y(),
                     qz = qr.z();
        const double R[3][3] = {
            {1.0 - 2.0 * (qy * qy + qz * qz), 2.0 * (qx * qy - qw * qz),
             2.0 * (qx * qz + qw * qy)},
            {2.0 * (qx * qy + qw * qz), 1.0 - 2.0 * (qx * qx + qz * qz),
             2.0 * (qy * qz - qw * qx)},
            {2.0 * (qx * qz - qw * qy), 2.0 * (qy * qz + qw * qx),
             1.0 - 2.0 * (qx * qx + qy * qy)}};
        const Vec3 &tr = result.transform.translation;

        for (std::size_t i = 0; i < n; ++i) {
            const Vec3 &s0 = source[i];
            tx[i] = R[0][0] * s0.x() + R[0][1] * s0.y() +
                R[0][2] * s0.z() + tr.x();
            ty[i] = R[1][0] * s0.x() + R[1][1] * s0.y() +
                R[1][2] * s0.z() + tr.y();
            tz[i] = R[2][0] * s0.x() + R[2][1] * s0.y() +
                R[2][2] * s0.z() + tr.z();
        }

        // All correspondences in one batch call; results are bitwise
        // what per-point nearestFast would return (kdtree.h).
        target_tree.nearestBatch(tx.data(), ty.data(), tz.data(), n,
                                 seeds.data(), nn_index.data(),
                                 nn_d2.data());

        std::size_t m = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (nn_index[i] == KdTree::kNoSeed)
                continue;
            seeds[i] = nn_index[i];
            if (nn_d2[i] > max_d2)
                continue;
            const Vec3 q = target[nn_index[i]];
            error_sum += std::sqrt(nn_d2[i]);
            px[m] = tx[i];
            py[m] = ty[i];
            pz[m] = tz[i];
            rx[m] = tx[i] - q.x();
            ry[m] = ty[i] - q.y();
            rz[m] = tz[i] - q.z();
            ++m;
        }

        const std::size_t inliers = m;
        if (inliers < 3)
            break; // degenerate; keep the current estimate
        result.mean_error =
            error_sum / static_cast<double>(inliers);

        IcpStats s;
        icpAccum(px.data(), py.data(), pz.data(), rx.data(), ry.data(),
                 rz.data(), inliers, s);

        // Closed-form assembly (see file comment): top-left
        // (pᵀp)I − ppᵀ, top-right Σ skew(p), bottom-right n·I.
        const double n = static_cast<double>(inliers);
        const double jtj[6][6] = {
            {s.syy + s.szz, -s.sxy, -s.sxz, 0.0, -s.spz, s.spy},
            {-s.sxy, s.sxx + s.szz, -s.syz, s.spz, 0.0, -s.spx},
            {-s.sxz, -s.syz, s.sxx + s.syy, -s.spy, s.spx, 0.0},
            {0.0, s.spz, -s.spy, n, 0.0, 0.0},
            {-s.spz, 0.0, s.spx, 0.0, n, 0.0},
            {s.spy, -s.spx, 0.0, 0.0, 0.0, n},
        };
        const double jtr[6] = {s.scx, s.scy, s.scz,
                               s.srx, s.sry, s.srz};

        if (solveAndApply(jtj, jtr, config, result)) {
            result.converged = true;
            break;
        }
    }
    return result;
}

} // namespace

IcpResult
icpAlign(const PointCloud &source, const PointCloud &target,
         const KdTree &target_tree, const RigidTransform &initial_guess,
         const IcpConfig &config, MemTrace *trace)
{
    SOV_ASSERT(!source.empty() && !target.empty());
    // MemTrace instrumentation lives on the Reference traversal only
    // (Fig. 4 measures the canonical access pattern), so traced runs
    // always go there.
    if (config.backend == KernelBackend::Reference || trace)
        return icpAlignReference(source, target, target_tree,
                                 initial_guess, config, trace);
    // Fast and Simd both run the Fast path (see IcpConfig::backend).
    return icpAlignFast(source, target, target_tree, initial_guess,
                        config);
}

} // namespace sov
