/**
 * @file
 * One real-kernel perception frame on the Fig. 5 graph: stereo depth
 * -> CNN detection -> KCF tracking -> ICP localization -> MPC, each a
 * KernelExecutor stage of a runtime::DataflowExecutor, one frame at a
 * time on the calling thread. Shared by the frame workload and the
 * frame probe of the other workloads' traced runs.
 */
#pragma once

#include <memory>
#include <vector>

#include "core/kernels.h"
#include "fleet/scenario.h"
#include "measure.h"
#include "planning/mpc.h"
#include "pointcloud/icp.h"
#include "pointcloud/kdtree.h"
#include "runtime/dataflow.h"
#include "sim/simulator.h"
#include "vision/camera_model.h"
#include "vision/detector.h"
#include "vision/kcf.h"
#include "vision/stereo.h"

namespace perfbench {

/** Rendered inputs of one frame (ready before the frame is timed). */
struct FrameInput
{
    sov::Image left;
    sov::Image right;
    sov::PointCloud scan;       //!< world frame, offset by the prior error
    sov::Pose2 pose;            //!< true ego pose
    double speed = 0.0;
    std::size_t map = 0;        //!< index of the localization map
    std::size_t agents = 0;     //!< agents in the frame's world
};

/** A prebuilt localization map (the tree references the cloud). */
struct DriveMap
{
    sov::PointCloud cloud;
    std::unique_ptr<sov::KdTree> tree;
};

/** A ring of consecutive inputs along drives through several worlds. */
struct FrameRing
{
    std::vector<FrameInput> frames;
    std::vector<std::unique_ptr<DriveMap>> maps;
};

/** The rig every frame is rendered and matched with. */
sov::StereoRig frameRig();

/**
 * Render @p frames_per_world consecutive frames (10 Hz) of a drive
 * through each world of @p worlds: stereo pair (8-bit quantized, the
 * domain where the stereo tiers agree bit for bit) plus a LiDAR scan
 * and a localization map per world. Spans: sensors.render,
 * sensors.lidar_scan.
 */
FrameRing renderRing(const std::vector<sov::fleet::WorldPreset> &worlds,
                     std::size_t frames_per_world, std::uint64_t seed,
                     SpanRecorder &rec);

/** Train the site detector the frames are detected with. */
sov::ObjectDetector trainDetector(std::uint64_t seed,
                                  sov::KernelBackend backend);

/** What one frame produced. */
struct FrameResult
{
    sov::DisparityMap disparity;
    std::size_t detections = 0;
    std::size_t live_tracks = 0;
    sov::IcpResult icp;
    sov::MpcOutput plan;
};

/** The Fig. 5 graph over real kernels, run one frame at a time. */
class FramePipeline
{
  public:
    FramePipeline(const sov::ObjectDetector &detector,
                  sov::KernelBackend backend, SpanRecorder &rec);

    FramePipeline(const FramePipeline &) = delete;
    FramePipeline &operator=(const FramePipeline &) = delete;

    /** Run one frame; @p op tags its spans. */
    FrameResult run(const FrameInput &in, const DriveMap &map,
                    std::uint64_t op);

    /** Drop every live track (start of a new drive). */
    void resetTracks() { trackers_.clear(); }

  private:
    void depthStage();
    void detectStage();
    void trackStage();
    void localizeStage();
    void planStage();

    const sov::ObjectDetector &detector_;
    sov::KernelBackend backend_;
    SpanRecorder &rec_;
    sov::StereoRig rig_;
    sov::StereoMatcher matcher_;
    sov::MpcPlanner planner_;
    sov::KcfConfig kcf_config_;
    std::vector<sov::KcfTracker> trackers_;

    sov::Simulator sim_;
    sov::runtime::StageGraph graph_;
    std::unique_ptr<sov::runtime::DataflowExecutor> exec_;

    // Per-frame state the stage kernels read and write.
    const FrameInput *in_ = nullptr;
    const DriveMap *map_ = nullptr;
    std::uint64_t op_ = 0;
    std::vector<sov::Detection> detections_;
    FrameResult result_;

    std::uint32_t n_frame_, n_stereo_, n_detect_, n_kcf_, n_kcf_init_,
        n_icp_, n_mpc_;
    std::vector<std::uint32_t> n_stage_; //!< runtime.stage.<name>
};

/** Reference-backend check of a frame's stereo (bitwise) and ICP
 *  (kIcpTolerance) outputs; false on any mismatch. */
bool checkAgainstReference(const FrameInput &in, const DriveMap &map,
                           const FrameResult &got);

/** ICP transform tolerance against the Reference tier: the tiers share
 *  exact correspondences and differ only in summation order (the bound
 *  tests/pointcloud/test_icp_fast.cpp asserts). */
inline constexpr double kIcpTolerance = 1e-9;

} // namespace perfbench
