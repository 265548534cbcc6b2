/**
 * @file
 * Gated benchmark of the perception kernel backends (vision/kernels.h).
 *
 * Runs each hot kernel in both backends on the same rendered inputs and
 * enforces three hard gates (nonzero exit on any failure):
 *
 *  1. Equivalence — stereo inputs are quantized to multiples of 1/256
 *     (8-bit sensor data), where Fast must be bit-identical to the
 *     Reference oracle (checksum compare); the GEMM convolution must
 *     stay within a small relative tolerance of the naive loop nest;
 *     the planned FFT must be bit-identical to the ad-hoc fft2d; the
 *     Fast ICP transform must match Reference to reassociation
 *     epsilon; the Simd stereo/conv outputs must be bit-identical to
 *     Fast (element-wise kernels round identically at every level).
 *     ICP has no Simd row: its Simd tier runs the Fast code.
 *  2. Determinism — the Fast AND Simd stereo outputs must be
 *     bit-identical across ThreadPool sizes 1 / 2 / 8.
 *  3. Speed — Fast must beat Reference by at least the per-kernel
 *     floor (10x stereo, 2x conv forward, 3x ICP align, 2x planned
 *     FFT; lowered in smoke mode where tiny inputs amortize less). The
 *     icp_align floor races Fast against the historical Matrix-churn
 *     accumulation the de-churn satellite replaced (replicated
 *     locally, asserted bit-identical to the in-tree Reference every
 *     run); the icp_align_dechurn row races the same Fast run against
 *     the in-tree Reference at its own floor (1.2x). The Simd-vs-Fast
 *     stereo floor (1.2x, the rule a vector body must clear to stay)
 *     measures the AVX2 SAD alone, since both tiers share every other
 *     loop; it is enforced only when the host actually runs AVX2 — on
 *     lesser hosts and SOV_SIMD=OFF builds the Simd tier degrades to
 *     the Fast loops and only the equivalence gates apply. A
 *     sanitized build (SOV_SANITIZE) sets every speed floor to 0 and
 *     keeps gates 1 and 2.
 *
 * Each row's variants are timed interleaved, best of N
 * (bench::interleavedBestNs). Results (ns per call, speedup,
 * checksums) go to BENCH_kernels.json via the shared bench harness.
 *
 * Usage:
 *   bench_kernels [smoke=1] [reps>=1] [out=BENCH_kernels.json]
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "harness.h"
#include "math/fft_plan.h"
#include "math/matrix.h"
#include "pointcloud/icp.h"
#include "vision/cnn.h"
#include "vision/renderer.h"
#include "vision/stereo.h"

using namespace sov;
using bench::hex;
using bench::interleavedBestNs;

namespace {

std::uint64_t
fingerprint(const DisparityMap &map)
{
    std::uint64_t h = kFnv1aTruncatedOffset;
    h = bench::fnv1a(map.disparity.data().data(),
                     map.disparity.data().size() * sizeof(float), h);
    h = bench::fnv1a(&map.density, sizeof(map.density), h);
    return h;
}

std::uint64_t
fingerprint(const Tensor &t)
{
    return bench::fnv1a(t.data().data(), t.data().size() * sizeof(float));
}

/**
 * Verbatim replica of the pre-de-churn ICP accumulation — a 3×6
 * Matrix Jacobian with two heap-allocating small-matrix products per
 * correspondence per iteration. The icp_align row's 3× floor was set
 * against THIS loop; the in-tree Reference tier now replays its
 * rounding without the allocations (bit-identical transforms — the
 * row asserts that checksum equality every run), so the historical
 * cost has to be reproduced here to stay measurable.
 */
IcpResult
icpAlignHistorical(const PointCloud &source, const PointCloud &target,
                   const KdTree &target_tree, const IcpConfig &config)
{
    IcpResult result;
    const double max_d2 = config.max_correspondence_distance *
        config.max_correspondence_distance;

    for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
        result.iterations = iter + 1;
        Matrix jtj = Matrix::zero(6, 6);
        Matrix jtr = Matrix::zero(6, 1);
        double error_sum = 0.0;
        std::size_t inliers = 0;

        for (std::size_t i = 0; i < source.size(); ++i) {
            const Vec3 p = result.transform.apply(source[i]);
            const auto nn = target_tree.nearest(p);
            if (!nn || nn->squared_distance > max_d2)
                continue;
            const Vec3 q = target[nn->index];
            const Vec3 r = p - q;
            error_sum += std::sqrt(nn->squared_distance);
            ++inliers;

            const Matrix skew_p = Matrix::skew(p);
            Matrix j(3, 6);
            j.setBlock(0, 0, skew_p * -1.0);
            j.setBlock(0, 3, Matrix::identity(3));
            const Matrix jt = j.transpose();
            jtj += jt * j;
            jtr += jt * Matrix::columnVector({r.x(), r.y(), r.z()});
        }

        if (inliers < 3)
            break;
        result.mean_error = error_sum / static_cast<double>(inliers);

        for (std::size_t d = 0; d < 6; ++d)
            jtj(d, d) += 1e-6;

        const Matrix x = jtj.choleskySolve(jtr * -1.0);
        const Vec3 theta(x.at(0), x.at(1), x.at(2));
        const Vec3 dt(x.at(3), x.at(4), x.at(5));
        result.transform.rotation =
            (Quat::fromAxisAngle(theta) * result.transform.rotation)
                .normalized();
        result.transform.translation += dt;

        if (x.norm() < config.convergence_threshold) {
            result.converged = true;
            break;
        }
    }
    return result;
}

/** Snap to multiples of 1/256 — 8-bit sensor quantization, the domain
 *  where the stereo backends agree bit-for-bit. */
void
quantize256(Image &img)
{
    for (auto &v : img.data())
        v = std::round(v * 256.0f) / 256.0f;
}

/** Render a textured obstacle scene stereo pair. */
std::pair<Image, Image>
renderScene(const CameraIntrinsics &intr)
{
    World world;
    Obstacle obs;
    obs.cls = ObjectClass::Pedestrian; // high-frequency striped texture
    obs.footprint = OrientedBox2{Pose2{Vec2(10.0, 0.0), 0.0}, 0.5, 2.0};
    obs.height = 2.0;
    world.addObstacle(obs);
    Obstacle car;
    car.cls = ObjectClass::Car;
    car.footprint = OrientedBox2{Pose2{Vec2(14.0, 3.0), 0.3}, 1.8, 4.2};
    car.height = 1.5;
    world.addObstacle(car);

    const StereoRig rig = StereoRig::forwardFacing(intr, 0.5, 1.0);
    const Renderer renderer;
    const Pose2 body{Vec2(0, 0), 0.0};
    const CameraPose lp = rig.left.poseAt(body, 1.5);
    const CameraPose rp = rig.right.poseAt(body, 1.5);
    auto lf = renderer.render(world, rig.left, lp, Timestamp::origin());
    auto rf = renderer.render(world, rig.right, rp, Timestamp::origin());
    quantize256(lf.intensity);
    quantize256(rf.intensity);
    return {std::move(lf.intensity), std::move(rf.intensity)};
}

struct KernelRow
{
    std::string name;
    double ref_ns = 0.0;
    double fast_ns = 0.0;
    double speedup = 0.0;
    double floor = 0.0;
    std::uint64_t checksum_ref = 0;
    std::uint64_t checksum_fast = 0;
    bool equivalent = false;
    double max_rel_diff = 0.0; //!< 0 for bitwise-gated kernels
    bool pass = false;
};

double
maxRelDiff(const Tensor &a, const Tensor &b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double ra = a.data()[i];
        const double rb = b.data()[i];
        const double rel =
            std::fabs(ra - rb) / std::max(1.0, std::fabs(ra));
        worst = std::max(worst, rel);
    }
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config config = Config::fromArgs(argc, argv);
    const bool smoke = config.getBool("smoke", false);
    const std::int64_t reps = config.getInt("reps", smoke ? 3 : 5);
    const std::string out_path =
        config.getString("out", "BENCH_kernels.json");
    const char *const usage =
        "usage: bench_kernels [smoke=1] [reps>=1] [out=BENCH_kernels.json]";
    config.rejectUnread(usage);
    if (reps < 1) {
        std::fprintf(stderr, "%s\n", usage);
        return 2;
    }
    // Smoke inputs are small, so fixed per-frame costs amortize less.
    // A sanitized build gates equivalence and determinism only: its
    // host-clock speed says nothing about the kernels, so every speed
    // floor is 0 there.
    const bool timed = !bench::sanitizedBuild();
    const auto speedFloor = [&](double smoke_floor, double full_floor) {
        return timed ? (smoke ? smoke_floor : full_floor) : 0.0;
    };
    const double stereo_floor = speedFloor(5.0, 10.0);
    const double conv_floor = speedFloor(1.2, 2.0);
    const double icp_floor = speedFloor(1.3, 3.0);
    // Fast vs the in-tree (de-churned) Reference: the allocation fix
    // already closed most of the historical gap, so the honest floor
    // for what remains (warm-started NN + closed-form accumulator)
    // is well under the headline 3×.
    const double icp_dechurn_floor = speedFloor(1.1, 1.2);
    const double fft_floor = speedFloor(1.2, 2.0);
    // The Simd-vs-Fast floor only binds where the vector bodies
    // actually run; everywhere else the tier IS the Fast code.
    const SimdLevel simd_level = detectSimdLevel();
    const double simd_floor =
        simd_level == SimdLevel::Avx2 ? speedFloor(1.05, 1.2) : 0.0;

    std::printf("simd level: %s\n", simdLevelName(simd_level));

    std::vector<KernelRow> rows;
    bool thread_fingerprints_ok = true;

    // ------------------------------------------------------------ stereo
    {
        CameraIntrinsics intr;
        if (smoke) {
            intr.fx = intr.fy = 135.0;
            intr.cx = 80.0;
            intr.cy = 60.0;
            intr.width = 160;
            intr.height = 120;
        }
        const auto [left, right] = renderScene(intr);

        StereoConfig ref_cfg;
        ref_cfg.max_disparity = smoke ? 24 : 48;
        StereoConfig fast_cfg = ref_cfg;
        fast_cfg.backend = KernelBackend::Fast;
        StereoConfig simd_cfg = ref_cfg;
        simd_cfg.backend = KernelBackend::Simd;
        const StereoMatcher ref_matcher(ref_cfg);
        const StereoMatcher fast_matcher(fast_cfg);
        const StereoMatcher simd_matcher(simd_cfg);

        DisparityMap ref_map, fast_map, simd_map;
        const auto [ref_ns, fast_ns] = interleavedBestNs(
            reps, [&] { ref_map = ref_matcher.match(left, right); },
            [&] { fast_map = fast_matcher.match(left, right); });
        // Simd races Fast in a loop of its own: sharing the ~0.4 s
        // Reference's few reps, one noisy phase of a few seconds could
        // cover every Simd rep. Twenty cheap reps (~1 s) give the
        // best-of more chances to land outside such a phase.
        const auto [fast_base_ns, simd_ns] = interleavedBestNs(
            smoke ? 5 : 20,
            [&] { fast_map = fast_matcher.match(left, right); },
            [&] { simd_map = simd_matcher.match(left, right); });

        KernelRow row;
        row.name = "stereo_match";
        row.floor = stereo_floor;
        row.ref_ns = ref_ns;
        row.fast_ns = fast_ns;
        row.checksum_ref = fingerprint(ref_map);
        row.checksum_fast = fingerprint(fast_map);
        row.equivalent = row.checksum_ref == row.checksum_fast;
        row.speedup = row.ref_ns / row.fast_ns;
        row.pass = row.equivalent && row.speedup >= row.floor;
        rows.push_back(row);

        // Simd tier: the vectorized SAD rounds identically to the Fast
        // scalar loop, so the output must stay bit-identical to the
        // Reference oracle; the speed floor binds on AVX2 hosts only.
        KernelRow srow;
        srow.name = "stereo_match_simd";
        srow.floor = simd_floor;
        srow.ref_ns = fast_base_ns; // baseline is the Fast tier
        srow.fast_ns = simd_ns;
        srow.checksum_ref = row.checksum_ref;
        srow.checksum_fast = fingerprint(simd_map);
        srow.equivalent = srow.checksum_fast == srow.checksum_ref;
        srow.speedup = srow.ref_ns / srow.fast_ns;
        srow.pass = srow.equivalent && srow.speedup >= srow.floor;
        rows.push_back(srow);

        std::printf("stereo %zux%zu (max_disparity %d): density %.2f\n",
                    left.width(), left.height(), ref_cfg.max_disparity,
                    fast_map.density);

        // Determinism gate: the Fast and Simd outputs must not depend
        // on the thread pool size.
        const auto threadFingerprints = [&](const char *tier,
                                            const StereoConfig &cfg,
                                            std::uint64_t serial) {
            std::printf("  %s thread fingerprints:", tier);
            for (const std::size_t threads : {1u, 2u, 8u}) {
                ThreadPool pool(threads);
                StereoMatcher pooled(cfg);
                pooled.setThreadPool(&pool);
                const std::uint64_t fp =
                    fingerprint(pooled.match(left, right));
                std::printf(" %zu:%s", threads, hex(fp).c_str());
                if (fp != serial)
                    thread_fingerprints_ok = false;
            }
            std::printf(" serial:%s -> %s\n", hex(serial).c_str(),
                        thread_fingerprints_ok ? "identical" : "MISMATCH");
        };
        threadFingerprints("fast", fast_cfg, row.checksum_fast);
        threadFingerprints("simd", simd_cfg, srow.checksum_fast);
    }

    // ----------------------------------------------------------- conv2d
    {
        const std::size_t side = smoke ? 32 : 64;
        Rng wrng1(77), wrng2(77);
        Conv2d ref_conv(8, 16, 3, wrng1);
        Conv2d fast_conv(8, 16, 3, wrng2);
        fast_conv.setBackend(KernelBackend::Fast);

        Rng irng(78);
        Tensor input(8, side, side);
        for (auto &v : input.data())
            v = static_cast<float>(irng.uniform(-1.0, 1.0));
        Tensor grad_out(16, side, side);
        for (auto &v : grad_out.data())
            v = static_cast<float>(irng.uniform(-1.0, 1.0));

        // Simd forward: gemmF32's axpy micro-row is element-wise, so
        // the vectorized GEMM must reproduce the Fast output
        // bit-for-bit.
        Rng wrng3(77);
        Conv2d simd_conv(8, 16, 3, wrng3);
        simd_conv.setBackend(KernelBackend::Simd);

        // The floored forward row takes about 1 s of reps at full size:
        // a shared host can hold Fast conv in a slow phase (about 1.5x
        // its best) for longer than ten ~10 ms reps, and the best-of
        // must reach past such a phase.
        const int conv_fwd_reps = smoke ? 5 : 100;
        const int conv_reps = smoke ? 5 : 10;
        Tensor ref_out, fast_out, simd_out;
        const auto [ref_fwd_ns, fast_fwd_ns, simd_fwd_ns] =
            interleavedBestNs(
                conv_fwd_reps,
                [&] { ref_out = ref_conv.forward(Tensor(input), true); },
                [&] { fast_out = fast_conv.forward(Tensor(input), true); },
                [&] { simd_out = simd_conv.forward(Tensor(input), true); });
        KernelRow fwd;
        fwd.name = "conv2d_forward";
        fwd.floor = conv_floor;
        fwd.ref_ns = ref_fwd_ns;
        fwd.fast_ns = fast_fwd_ns;
        fwd.checksum_ref = fingerprint(ref_out);
        fwd.checksum_fast = fingerprint(fast_out);
        fwd.max_rel_diff = maxRelDiff(ref_out, fast_out);
        fwd.equivalent = fwd.max_rel_diff <= 1e-4;
        fwd.speedup = fwd.ref_ns / fwd.fast_ns;
        fwd.pass = fwd.equivalent && fwd.speedup >= fwd.floor;
        rows.push_back(fwd);

        // Backward: equivalence-gated, speedup reported but not floored
        // (the reference skips zero gradients, so its cost is
        // input-dependent).
        Tensor ref_grad, fast_grad;
        const auto [ref_bwd_ns, fast_bwd_ns] = interleavedBestNs(
            conv_reps,
            [&] {
                ref_grad = ref_conv.backward(grad_out);
                ref_conv.applyGradients(0.0f, 1); // rezero accumulators
            },
            [&] {
                fast_grad = fast_conv.backward(grad_out);
                fast_conv.applyGradients(0.0f, 1);
            });
        KernelRow bwd;
        bwd.name = "conv2d_backward";
        bwd.floor = 0.0;
        bwd.ref_ns = ref_bwd_ns;
        bwd.fast_ns = fast_bwd_ns;
        bwd.checksum_ref = fingerprint(ref_grad);
        bwd.checksum_fast = fingerprint(fast_grad);
        bwd.max_rel_diff = maxRelDiff(ref_grad, fast_grad);
        bwd.equivalent = bwd.max_rel_diff <= 1e-3;
        bwd.speedup = bwd.ref_ns / bwd.fast_ns;
        bwd.pass = bwd.equivalent;
        rows.push_back(bwd);

        // Simd speedup over Fast is reported, not floored — the
        // im2col/copy overhead around the GEMM caps it on small shapes.
        KernelRow sfwd;
        sfwd.name = "conv2d_forward_simd";
        sfwd.floor = 0.0;
        sfwd.ref_ns = fwd.fast_ns; // baseline is the Fast tier
        sfwd.fast_ns = simd_fwd_ns;
        sfwd.checksum_ref = fwd.checksum_fast;
        sfwd.checksum_fast = fingerprint(simd_out);
        sfwd.equivalent = sfwd.checksum_fast == sfwd.checksum_ref;
        sfwd.speedup = sfwd.ref_ns / sfwd.fast_ns;
        sfwd.pass = sfwd.equivalent;
        rows.push_back(sfwd);
    }

    // -------------------------------------------------------- fft2d plan
    {
        const std::size_t side = smoke ? 32 : 64;
        Rng rng(52);
        std::vector<Complex> signal(side * side);
        for (auto &c : signal)
            c = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));

        const int fft_reps = smoke ? 10 : 20;
        KernelRow row;
        row.name = "fft2d_plan";
        row.floor = fft_floor;

        std::vector<Complex> adhoc, planned;
        Fft2dPlan plan(side, side);
        const auto [adhoc_ns, planned_ns] = interleavedBestNs(
            fft_reps,
            [&] {
                adhoc = signal;
                fft2d(adhoc, side, side, false);
                fft2d(adhoc, side, side, true);
            },
            [&] {
                planned = signal;
                plan.forward(planned.data());
                plan.inverse(planned.data());
            });
        row.ref_ns = adhoc_ns;
        row.fast_ns = planned_ns;
        row.checksum_ref =
            bench::fnv1a(adhoc.data(), adhoc.size() * sizeof(Complex));
        row.checksum_fast =
            bench::fnv1a(planned.data(), planned.size() * sizeof(Complex));
        // The plan replays the ad-hoc twiddle rounding: bitwise gate.
        row.equivalent = row.checksum_ref == row.checksum_fast;
        row.speedup = row.ref_ns / row.fast_ns;
        row.pass = row.equivalent && row.speedup >= row.floor;
        rows.push_back(row);
    }

    // --------------------------------------------------------- icp align
    {
        Rng rng(41);
        PointCloud target(0);
        const int per_kind = smoke ? 120 : 400;
        for (int i = 0; i < per_kind; ++i) {
            target.add(Vec3(rng.uniform(0, 20), 0.0,
                            rng.uniform(0, 3)));
            target.add(Vec3(0.0, rng.uniform(0, 15),
                            rng.uniform(0, 3)));
            target.add(Vec3(rng.uniform(0, 20), rng.uniform(0, 15),
                            rng.uniform(0, 0.2)));
        }
        const Quat rot = Quat::fromYaw(0.06);
        const Vec3 t(0.3, -0.2, 0.04);
        const PointCloud source = target.transformed(
            rot.conjugate(), rot.conjugate().rotate(-t));
        const KdTree tree(target);

        const auto transformChecksum = [](const IcpResult &r) {
            const double v[7] = {
                r.transform.rotation.w(), r.transform.rotation.x(),
                r.transform.rotation.y(), r.transform.rotation.z(),
                r.transform.translation.x(),
                r.transform.translation.y(),
                r.transform.translation.z()};
            return bench::fnv1a(v, sizeof(v));
        };
        const auto transformDelta = [](const IcpResult &a,
                                       const IcpResult &b) {
            return std::max(
                a.transform.rotation.angularDistance(
                    b.transform.rotation),
                (a.transform.translation - b.transform.translation)
                    .norm());
        };

        // Each align is a few ms, so generous best-of reps are cheap —
        // and the icp_align floor has the thinnest margin of any row
        // on a noisy shared host, so the min must actually converge.
        const int icp_reps = smoke ? 3 : 15;
        IcpConfig ref_cfg;
        IcpConfig fast_cfg;
        fast_cfg.backend = KernelBackend::Fast;

        IcpResult hist_r, ref_r, fast_r;
        const auto [hist_ns, ref_ns, fast_ns] = interleavedBestNs(
            icp_reps,
            [&] {
                hist_r = icpAlignHistorical(source, target, tree, ref_cfg);
            },
            [&] { ref_r = icpAlign(source, target, tree, {}, ref_cfg); },
            [&] { fast_r = icpAlign(source, target, tree, {}, fast_cfg); });

        // The 3× floor row: Fast vs the historical Matrix-churn loop
        // this PR replaced (the in-tree Reference replays its rounding
        // allocation-free — asserted bitwise below — so the historical
        // cost is replicated locally to stay measurable).
        KernelRow row;
        row.name = "icp_align";
        row.floor = icp_floor;
        row.ref_ns = hist_ns;
        row.fast_ns = fast_ns;
        row.checksum_ref = transformChecksum(ref_r);
        row.checksum_fast = transformChecksum(fast_r);
        // Identical correspondences (nearestFast is exact); the normal
        // equations differ only in summation order, so the transforms
        // agree to reassociation epsilon. The historical replica must
        // agree with the de-churned Reference *bitwise*.
        row.max_rel_diff = transformDelta(ref_r, fast_r);
        row.equivalent = row.max_rel_diff <= 1e-9 &&
            transformChecksum(hist_r) == row.checksum_ref &&
            ref_r.iterations == fast_r.iterations &&
            ref_r.converged == fast_r.converged;
        row.speedup = row.ref_ns / row.fast_ns;
        row.pass = row.equivalent && row.speedup >= row.floor;
        rows.push_back(row);

        // The same Fast tier against the in-tree (de-churned)
        // Reference — a tighter race, since the satellite fix already
        // removed the baseline's allocations; the remaining win is
        // warm-started NN + the closed-form accumulator.
        KernelRow drow;
        drow.name = "icp_align_dechurn";
        drow.floor = icp_dechurn_floor;
        drow.ref_ns = ref_ns;
        drow.fast_ns = row.fast_ns;
        drow.checksum_ref = row.checksum_ref;
        drow.checksum_fast = row.checksum_fast;
        drow.max_rel_diff = row.max_rel_diff;
        drow.equivalent = row.equivalent;
        drow.speedup = drow.ref_ns / drow.fast_ns;
        drow.pass = drow.equivalent && drow.speedup >= drow.floor;
        rows.push_back(drow);
    }

    // ----------------------------------------------------------- report
    std::printf("\n%-16s %14s %14s %9s %7s %6s\n", "kernel",
                "reference [ns]", "fast [ns]", "speedup", "floor", "gate");
    for (const KernelRow &r : rows) {
        std::printf("%-16s %14.0f %14.0f %8.2fx %6.2fx %6s\n",
                    r.name.c_str(), r.ref_ns, r.fast_ns, r.speedup,
                    r.floor, r.pass ? "pass" : "FAIL");
        if (!r.pass) {
            if (!r.equivalent) {
                std::printf("  -> DIVERGENCE: checksum %s vs %s "
                            "(max rel diff %.3g)\n",
                            hex(r.checksum_ref).c_str(),
                            hex(r.checksum_fast).c_str(), r.max_rel_diff);
            }
            if (r.speedup < r.floor) {
                std::printf("  -> speedup %.2fx below floor %.2fx\n",
                            r.speedup, r.floor);
            }
        }
    }
    if (!thread_fingerprints_ok)
        std::printf("FAIL: fast stereo output differs across thread "
                    "counts\n");

    bench::BenchReport report("kernels");
    report.setSmoke(smoke);
    report.meta("thread_fingerprints_identical", thread_fingerprints_ok);
    for (const KernelRow &r : rows) {
        report.addRow("kernels")
            .set("name", r.name)
            .set("ref_ns_per_call", r.ref_ns)
            .set("fast_ns_per_call", r.fast_ns)
            .set("speedup", r.speedup)
            .set("floor", r.floor)
            .set("checksum_ref", hex(r.checksum_ref))
            .set("checksum_fast", hex(r.checksum_fast))
            .set("max_rel_diff", r.max_rel_diff)
            .set("equivalent", r.equivalent)
            .set("pass", r.pass);
        report.gate(r.name, r.pass,
                    r.pass ? "" : "equivalence or speed floor failed");
    }
    report.gate("thread_fingerprints", thread_fingerprints_ok,
                thread_fingerprints_ok
                    ? ""
                    : "fast stereo differs across thread counts");
    return report.write(out_path);
}
