/**
 * @file
 * Reproduces Sec. VI-B (tracking): replacing the KCF visual tracker
 * with radar tracking + spatial synchronization.
 *
 * The bench times the *real* compute of both paths on this host: a
 * full KCF update (windowed 2-D FFT correlation, 64x64) vs the
 * spatial-synchronization matcher (project + greedy match), plus a
 * radar-tracker scan update. Each row is a fixed batch of calls, and
 * the rows are timed interleaved, best of N
 * (bench::interleavedBestNs); a row's ns per call is its best sample
 * divided by its batch. Functional equivalence is shown by tracking a
 * crossing pedestrian with the radar path and reporting the velocity
 * estimate.
 *
 * Expected shape (paper): spatial sync ~1 ms on the CPU, ~100x
 * lighter than KCF; radar additionally provides radial velocity
 * "for free" and is robust to visual degradation.
 *
 * Usage:
 *   bench_sec6b_radar_tracking [smoke=1] [reps>=1]
 */
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/config.h"
#include "core/rng.h"
#include "harness.h"
#include "sensors/radar.h"
#include "tracking/radar_tracker.h"
#include "tracking/spatial_sync.h"
#include "vision/kcf.h"

using namespace sov;

namespace {

Image
trackingFrame(double cx, double cy)
{
    Rng rng(7);
    Image img(320, 240);
    for (auto &v : img.data())
        v = static_cast<float>(rng.uniform(0.35, 0.45));
    for (int dy = -10; dy <= 10; ++dy) {
        for (int dx = -10; dx <= 10; ++dx) {
            const long x = static_cast<long>(cx) + dx;
            const long y = static_cast<long>(cy) + dy;
            if (x < 0 || y < 0 || x >= 320 || y >= 240)
                continue;
            img(static_cast<std::size_t>(x), static_cast<std::size_t>(y)) =
                0.5f + 0.4f * static_cast<float>(
                    std::sin(dx * 0.8) * std::cos(dy * 0.6));
        }
    }
    return img;
}

/**
 * Times the three rows into the "micro" table. KCF: one sample is a
 * pass over 8 frames with a persistent tracker. Spatial sync: 1024
 * matches of 6 radar tracks against 6 detections. Radar tracker: 40
 * scans at 20 Hz from a fresh tracker and radar, so every sample
 * scans the same world while its 6 obstacles are still in range.
 */
void
microRows(bench::BenchReport &report, std::int64_t reps)
{
    constexpr int kKcfFrames = 8;
    KcfTracker kcf;
    kcf.init(trackingFrame(160, 120), 160, 120);
    std::vector<Image> frames;
    for (int i = 0; i < kKcfFrames; ++i)
        frames.push_back(trackingFrame(160 + 2.0 * i, 120 + i));

    constexpr int kSyncCalls = 1024;
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    const CameraPose pose = cam.poseAt(Pose2{Vec2(0, 0), 0.0}, 1.5);
    std::vector<RadarTrack> tracks;
    std::vector<Detection> detections;
    for (int i = 0; i < 6; ++i) {
        RadarTrack t;
        t.id = i;
        t.position = Vec2(10.0 + 3.0 * i, (i % 3) - 1.0);
        t.velocity = Vec2(-1.0, 0.2);
        tracks.push_back(t);
        Detection d;
        d.cls = ObjectClass::Pedestrian;
        d.confidence = 0.8;
        d.box = BoundingBox{40.0 * i + 20.0, 100.0, 25.0, 50.0};
        detections.push_back(d);
    }

    constexpr int kScans = 40;
    World world;
    Rng rng(9);
    for (int i = 0; i < 6; ++i) {
        Obstacle o;
        o.footprint = OrientedBox2{
            Pose2{Vec2(10.0 + 5.0 * i, (i % 3) - 1.0), 0.0}, 0.5, 0.5};
        o.velocity = Vec2(rng.uniform(-1, 1), rng.uniform(-1, 1));
        world.addObstacle(o);
    }
    RadarConfig radar_cfg;
    radar_cfg.detection_probability = 1.0;
    const Pose2 origin{Vec2(0, 0), 0.0};
    std::size_t scanned = 0;

    const auto best = bench::interleavedBestNs(
        reps,
        [&] {
            for (const Image &frame : frames)
                kcf.update(frame);
        },
        [&] {
            for (int i = 0; i < kSyncCalls; ++i)
                spatialSync(cam, pose, tracks, detections);
        },
        [&] {
            RadarModel radar(radar_cfg, Rng(10));
            RadarTracker tracker;
            scanned = 0;
            for (int k = 0; k < kScans; ++k) {
                const Timestamp t = Timestamp::seconds(k * 0.05);
                const auto dets = radar.scan(world, origin, Vec2(5.6, 0), t);
                scanned += dets.size();
                tracker.update(origin, dets, t);
            }
        });

    const double kcf_ns = best[0] / kKcfFrames;
    const double sync_ns = best[1] / kSyncCalls;
    const double scan_ns = best[2] / kScans;
    const double detections_per_scan =
        static_cast<double>(scanned) / kScans;
    std::printf("%-26s %14s %10s\n", "row", "ns per call", "calls");
    const auto row = [&](const char *name, double ns,
                         int batch) -> bench::Row & {
        std::printf("%-26s %14.1f %10lld\n", name, ns,
                    static_cast<long long>(reps * batch));
        return report.addRow("micro")
            .set("name", name)
            .set("real_ns_per_iter", ns)
            .set("iterations", reps * batch);
    };
    row("BM_KcfTrackingUpdate", kcf_ns, kKcfFrames);
    row("BM_RadarSpatialSync", sync_ns, kSyncCalls);
    row("BM_RadarTrackerScanUpdate", scan_ns, kScans)
        .set("detections_per_scan", detections_per_scan);
    std::printf("radar scans see %.1f detections each\n",
                detections_per_scan);

    report.meta("kcf_over_spatial_sync", kcf_ns / sync_ns);
    report.gate("spatial_sync_lighter_than_kcf", sync_ns < kcf_ns,
                "paper: spatial sync ~100x lighter than KCF");
    report.gate("radar_scan_sees_obstacles", detections_per_scan > 0.0,
                "the scan row must time scans with targets in range");
}

/** Functional demonstration printed before the micro-benchmarks. */
void
functionalDemo(bench::BenchReport &report)
{
    std::printf("=== Sec. VI-B: radar tracking replaces KCF ===\n\n");

    // A pedestrian crossing at 1.2 m/s tracked by the radar path.
    World world;
    Obstacle ped;
    ped.cls = ObjectClass::Pedestrian;
    ped.footprint = OrientedBox2{Pose2{Vec2(15.0, -5.0), 0.0}, 0.3, 0.3};
    ped.velocity = Vec2(0.0, 1.2);
    world.addObstacle(ped);

    RadarConfig cfg;
    cfg.detection_probability = 1.0;
    RadarModel radar(cfg, Rng(11));
    RadarTracker tracker;
    for (int i = 0; i < 80; ++i) {
        const Timestamp t = Timestamp::seconds(i * 0.05);
        tracker.update(Pose2{Vec2(0, 0), 0.0},
                       radar.scan(world, Pose2{Vec2(0, 0), 0.0},
                                  Vec2(0, 0), t),
                       t);
    }
    if (!tracker.tracks().empty()) {
        const auto &track = tracker.tracks().front();
        std::printf("crossing pedestrian: tracked velocity "
                    "(%.2f, %.2f) m/s, truth (0.00, 1.20)\n",
                    track.velocity.x(), track.velocity.y());
        report.meta("tracked_velocity_x", track.velocity.x());
        report.meta("tracked_velocity_y", track.velocity.y());
    }
    std::printf("micro-benchmarks below measure real host compute; the "
                "paper reports\nspatial sync at ~1 ms, ~100x lighter "
                "than KCF.\n\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Config config = Config::fromArgs(argc, argv);
    const bool smoke = config.getBool("smoke", false);
    const std::int64_t reps = config.getInt("reps", smoke ? 3 : 15);
    if (reps < 1) {
        std::fprintf(stderr, "usage: bench_sec6b_radar_tracking "
                             "[smoke=1] [reps>=1]\n");
        return 2;
    }

    bench::BenchReport report("sec6b_radar_tracking");
    report.setSmoke(smoke);
    functionalDemo(report);
    microRows(report, reps);
    return report.write();
}
