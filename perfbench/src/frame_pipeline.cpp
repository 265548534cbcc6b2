#include "frame_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/logging.h"
#include "fleet/fuzzer.h"
#include "pointcloud/lidar_model.h"
#include "vision/renderer.h"

using namespace sov;

namespace perfbench {

namespace {

constexpr double kFrameDt = 0.1;     //!< 10 Hz pipeline cadence
constexpr double kDriveSpeed = 5.0;  //!< m/s along the route
constexpr std::size_t kMaxTracks = 4;
constexpr double kTrackGatePx = 16.0;

/** The odometry prior's error, which ICP localization removes. */
const RigidTransform &
priorError()
{
    static const RigidTransform t{Quat::fromYaw(0.02), Vec3(0.25, -0.15, 0.0)};
    return t;
}

void
quantize256(Image &img)
{
    for (float &v : img.data())
        v = std::round(v * 256.0f) / 256.0f;
}

LidarConfig
lidarConfig()
{
    LidarConfig c;
    c.azimuth_steps = 450;
    return c;
}

StereoConfig
stereoConfig(KernelBackend backend)
{
    StereoConfig c;
    c.max_disparity = 48;
    c.backend = backend;
    return c;
}

IcpConfig
icpConfig(KernelBackend backend)
{
    IcpConfig c;
    c.backend = backend;
    return c;
}

const Polyline2 &
route()
{
    static const Polyline2 r({Vec2(0.0, 0.0), Vec2(300.0, 0.0)});
    return r;
}

} // namespace

StereoRig
frameRig()
{
    return StereoRig::forwardFacing(CameraIntrinsics{}, 0.5, 1.0);
}

FrameRing
renderRing(const std::vector<fleet::WorldPreset> &worlds,
           std::size_t frames_per_world, std::uint64_t seed,
           SpanRecorder &rec)
{
    const std::uint32_t n_render = rec.intern("sensors.render");
    const std::uint32_t n_scan = rec.intern("sensors.lidar_scan");
    const StereoRig rig = frameRig();
    const Renderer renderer;
    FrameRing ring;
    std::uint32_t cloud_id = 0;
    for (std::size_t w = 0; w < worlds.size(); ++w) {
        World world;
        Rng rng = Rng(seed).fork(worlds[w].name);
        worlds[w].build(world, rng);
        world.scatterLandmarks(worlds[w].route, 160, 10.0, 4.0, rng);
        LidarModel lidar(lidarConfig(), Rng(seed).fork("lidar/" +
                                                       worlds[w].name));
        const double x0 = 2.0;

        auto map = std::make_unique<DriveMap>();
        for (double dx : {0.0, 3.0}) {
            const PointCloud part = lidar.scan(
                world, Pose2{Vec2(x0 + dx, 0.0), 0.0}, Timestamp::origin(),
                cloud_id++);
            for (const Vec3 &p : part.points())
                map->cloud.add(p);
        }
        map->tree = std::make_unique<KdTree>(map->cloud);
        ring.maps.push_back(std::move(map));

        for (std::size_t f = 0; f < frames_per_world; ++f) {
            const double t_s = kFrameDt * static_cast<double>(f);
            const Timestamp t = Timestamp::origin() + Duration::seconds(t_s);
            const Pose2 pose{Vec2(x0 + kDriveSpeed * t_s, 0.0), 0.0};
            world.advanceTo(t, pose, kDriveSpeed);
            FrameInput in;
            in.pose = pose;
            in.speed = kDriveSpeed;
            in.map = w;
            in.agents = world.numObstacles();
            {
                SpanScope s(rec, n_render, ring.frames.size());
                in.left = renderer.render(world, rig.left,
                                          rig.left.poseAt(pose, 1.5), t)
                              .intensity;
            }
            {
                SpanScope s(rec, n_render, ring.frames.size());
                in.right = renderer.render(world, rig.right,
                                           rig.right.poseAt(pose, 1.5), t)
                               .intensity;
            }
            quantize256(in.left);
            quantize256(in.right);
            {
                SpanScope s(rec, n_scan, ring.frames.size());
                in.scan = lidar.scan(world, pose, t, cloud_id++);
            }
            for (std::size_t i = 0; i < in.scan.size(); ++i)
                in.scan[i] = priorError().apply(in.scan[i]);
            ring.frames.push_back(std::move(in));
        }
    }
    return ring;
}

ObjectDetector
trainDetector(std::uint64_t seed, KernelBackend backend)
{
    // Site-specific training (Sec. IV): a busy fuzzed world of the same
    // generator the drives come from.
    fleet::FuzzRanges busy;
    busy.max_pedestrians = 7;
    busy.max_cyclists = 3;
    busy.max_vehicles = 2;
    const fleet::WorldPreset site =
        fleet::fuzzWorldPreset(seed * 1000 + 999, 20.0, busy);
    World world;
    Rng rng = Rng(seed).fork("detector");
    site.build(world, rng);
    world.scatterLandmarks(site.route, 160, 10.0, 4.0, rng);
    DetectorConfig cfg;
    cfg.backend = backend;
    cfg.min_confidence = 0.4;
    return trainSiteDetector(
        world, CameraModel(CameraIntrinsics{}, Vec3(1.0, 0.0, 0.0)), 16, 4,
        rng, cfg);
}

FramePipeline::FramePipeline(const ObjectDetector &detector,
                             KernelBackend backend, SpanRecorder &rec)
    : detector_(detector), backend_(backend), rec_(rec), rig_(frameRig()),
      matcher_(stereoConfig(backend))
{
    kcf_config_.backend = backend;
    n_frame_ = rec_.intern("frame");
    n_stereo_ = rec_.intern("vision.stereo");
    n_detect_ = rec_.intern("vision.detect");
    n_kcf_ = rec_.intern("vision.kcf");
    n_kcf_init_ = rec_.intern("vision.kcf_init");
    n_icp_ = rec_.intern("pointcloud.icp");
    n_mpc_ = rec_.intern("planning.mpc_plan");
    for (const char *stage :
         {"depth", "detection", "tracking", "localization", "planning"})
        n_stage_.push_back(rec_.intern(std::string("runtime.stage.") + stage));

    const auto sense = graph_.addKernel("sensing", "sensor",
                                        [](std::size_t) {});
    const auto depth = graph_.addKernel(
        "depth", "scene", [this](std::size_t) { depthStage(); }, {sense});
    const auto det = graph_.addKernel(
        "detection", "scene", [this](std::size_t) { detectStage(); },
        {sense});
    const auto track = graph_.addKernel(
        "tracking", "cpu", [this](std::size_t) { trackStage(); }, {det});
    const auto loc = graph_.addKernel(
        "localization", "loc", [this](std::size_t) { localizeStage(); },
        {sense});
    graph_.addKernel("planning", "cpu",
                     [this](std::size_t) { planStage(); },
                     {depth, track, loc});
    exec_ = std::make_unique<runtime::DataflowExecutor>(sim_, graph_);
    exec_->setKeepTraces(false);
}

FrameResult
FramePipeline::run(const FrameInput &in, const DriveMap &map,
                   std::uint64_t op)
{
    SpanScope frame(rec_, n_frame_, op);
    in_ = &in;
    map_ = &map;
    op_ = op;
    result_ = FrameResult{};
    bool done = false;
    exec_->releaseFrame(
        [&done](const runtime::FrameTrace &) { done = true; });
    sim_.run();
    SOV_ASSERT(done);
    return std::move(result_);
}

void
FramePipeline::depthStage()
{
    SpanScope stage(rec_, n_stage_[0], op_);
    SpanScope s(rec_, n_stereo_, op_);
    result_.disparity = matcher_.match(in_->left, in_->right);
}

void
FramePipeline::detectStage()
{
    SpanScope stage(rec_, n_stage_[1], op_);
    SpanScope s(rec_, n_detect_, op_);
    detections_ = detector_.detect(in_->left);
    result_.detections = detections_.size();
}

void
FramePipeline::trackStage()
{
    SpanScope stage(rec_, n_stage_[2], op_);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < trackers_.size(); ++i) {
        KcfStatus st;
        {
            SpanScope s(rec_, n_kcf_, op_);
            st = trackers_[i].update(in_->left);
        }
        if (!st.confident)
            continue;
        if (kept != i)
            trackers_[kept] = std::move(trackers_[i]);
        ++kept;
    }
    trackers_.resize(kept);
    for (const Detection &d : detections_) {
        if (trackers_.size() >= kMaxTracks)
            break;
        const double cx = d.box.centerX();
        const double cy = d.box.centerY();
        const bool tracked =
            std::any_of(trackers_.begin(), trackers_.end(),
                        [&](const KcfTracker &t) {
                            return std::hypot(t.x() - cx, t.y() - cy) <
                                   kTrackGatePx;
                        });
        if (tracked)
            continue;
        trackers_.emplace_back(kcf_config_);
        SpanScope s(rec_, n_kcf_init_, op_);
        trackers_.back().init(in_->left, cx, cy);
    }
    result_.live_tracks = trackers_.size();
}

void
FramePipeline::localizeStage()
{
    SpanScope stage(rec_, n_stage_[3], op_);
    SpanScope s(rec_, n_icp_, op_);
    result_.icp = icpAlign(in_->scan, map_->cloud, *map_->tree, {},
                           icpConfig(backend_));
}

void
FramePipeline::planStage()
{
    SpanScope stage(rec_, n_stage_[4], op_);
    const Image &disp = result_.disparity.disparity;
    // Ego position: the odometry prior corrected by the ICP estimate.
    const Vec3 prior = priorError().apply(
        Vec3(in_->pose.position.x(), in_->pose.position.y(), 0.0));
    const Vec3 corrected = result_.icp.transform.apply(prior);
    PlannerInput input;
    input.now = Timestamp::origin() + Duration::seconds(kFrameDt);
    input.ego_pose =
        Pose2{Vec2(corrected.x(), corrected.y()), in_->pose.heading};
    input.ego_speed = in_->speed;
    input.reference_path = route();
    input.speed_limit = 5.6;
    const CameraPose cam = rig_.left.poseAt(in_->pose, 1.5);
    for (std::size_t i = 0; i < detections_.size(); ++i) {
        const Detection &d = detections_[i];
        std::vector<float> valid;
        const auto x0 = static_cast<std::size_t>(std::max(0.0, d.box.x));
        const auto y0 = static_cast<std::size_t>(std::max(0.0, d.box.y));
        const std::size_t x1 = std::min<std::size_t>(
            disp.width(), static_cast<std::size_t>(d.box.x + d.box.w));
        const std::size_t y1 = std::min<std::size_t>(
            disp.height(), static_cast<std::size_t>(d.box.y + d.box.h));
        for (std::size_t y = y0; y < y1; ++y)
            for (std::size_t x = x0; x < x1; ++x)
                if (disp(x, y) > 0.0f)
                    valid.push_back(disp(x, y));
        if (valid.empty())
            continue;
        std::nth_element(valid.begin(), valid.begin() + valid.size() / 2,
                         valid.end());
        const double depth =
            rig_.depthFromDisparity(valid[valid.size() / 2]);
        const Vec3 p = rig_.left.backproject(
            cam, Pixel{d.box.centerX(), d.box.centerY()}, depth);
        FusedObject obj;
        obj.track_id = static_cast<std::uint32_t>(i);
        obj.position = Vec2(p.x(), p.y());
        obj.cls = d.cls;
        obj.confidence = d.confidence;
        obj.box = d.box;
        input.objects.push_back(obj);
    }
    SpanScope s(rec_, n_mpc_, op_);
    result_.plan = planner_.plan(input);
}

bool
checkAgainstReference(const FrameInput &in, const DriveMap &map,
                      const FrameResult &got)
{
    const StereoMatcher ref_matcher(stereoConfig(KernelBackend::Reference));
    const DisparityMap ref = ref_matcher.match(in.left, in.right);
    const std::vector<float> &a = ref.disparity.data();
    const std::vector<float> &b = got.disparity.disparity.data();
    if (a.size() != b.size() ||
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0)
        return false;
    const IcpResult ref_icp = icpAlign(in.scan, map.cloud, *map.tree, {},
                                       icpConfig(KernelBackend::Reference));
    return ref_icp.iterations == got.icp.iterations &&
           ref_icp.transform.rotation.angularDistance(
               got.icp.transform.rotation) <= kIcpTolerance &&
           (ref_icp.transform.translation - got.icp.transform.translation)
                   .norm() <= kIcpTolerance;
}

} // namespace perfbench
