/**
 * @file
 * Point-to-point ICP — the LiDAR localization algorithm of the
 * Sec. III-D case-study. Registration of a live scan against a
 * reference map estimates the sensor pose; its neighbor-search inner
 * loop is what makes LiDAR localization memory-irregular (Fig. 4).
 */
#pragma once

#include <cstddef>

#include "core/kernels.h"
#include "math/quat.h"
#include "memsim/mem_trace.h"
#include "pointcloud/kdtree.h"
#include "pointcloud/point_cloud.h"

namespace sov {

/** Rigid transform estimated by ICP. */
struct RigidTransform
{
    Quat rotation;
    Vec3 translation{0.0, 0.0, 0.0};

    Vec3 apply(const Vec3 &p) const { return rotation.rotate(p) + translation; }
};

/** Configuration of the ICP solver. */
struct IcpConfig
{
    std::size_t max_iterations = 30;
    /** Correspondences farther than this are rejected (meters). */
    double max_correspondence_distance = 2.0;
    /** Stop when the update norm falls below this. */
    double convergence_threshold = 1e-6;
    /**
     * Implementation tier (core/kernels.h). Reference accumulates the
     * normal equations term-by-term; Fast batches correspondences
     * through KdTree::nearestBatch and a closed-form JᵀJ/Jᵀr
     * assembly. Simd runs the Fast code: vector leaf scans and
     * accumulation measured about 1.1× over Fast, below the 1.2× a
     * Simd tier must clear. Runs with a MemTrace always take the
     * Reference path — the Fig. 4 experiments need its touch hooks.
     */
    KernelBackend backend = KernelBackend::Reference;
};

/** Result of an ICP run. */
struct IcpResult
{
    RigidTransform transform;
    std::size_t iterations = 0;
    double mean_error = 0.0; //!< mean correspondence distance (m)
    bool converged = false;
};

/**
 * Align @p source onto @p target starting from @p initial_guess.
 *
 * Gauss-Newton on the 6-DoF pose with small-angle linearization of the
 * rotation; correspondences from a kd-tree over the target.
 *
 * @param trace Optional memory-trace instrumentation (Fig. 4a/4b).
 */
IcpResult icpAlign(const PointCloud &source, const PointCloud &target,
                   const KdTree &target_tree,
                   const RigidTransform &initial_guess = {},
                   const IcpConfig &config = {},
                   MemTrace *trace = nullptr);

} // namespace sov
