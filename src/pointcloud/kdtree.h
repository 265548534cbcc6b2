/**
 * @file
 * 3-D kd-tree for neighbor search — the irregular kernel at the heart
 * of LiDAR processing (Sec. III-D: "LiDAR processing relies on
 * irregular kernels (e.g., neighbor search)").
 *
 * All queries optionally report the points and tree nodes they touch
 * to a MemTrace, which is how Fig. 4a (reuse irregularity) and Fig. 4b
 * (off-chip traffic) are measured.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "memsim/mem_trace.h"
#include "pointcloud/point_cloud.h"

namespace sov {

/** Result of a nearest-neighbor query. */
struct Neighbor
{
    std::uint32_t index;
    double squared_distance;
};

/** Static kd-tree over a point cloud (median split, leaf size 16). */
class KdTree
{
  public:
    /**
     * Build from a cloud. The cloud must outlive the tree.
     * @param tree_id Identifier for address-trace purposes.
     */
    KdTree(const PointCloud &cloud, std::uint32_t tree_id = 0);

    /** Nearest neighbor of @p query; nullopt on an empty cloud. */
    std::optional<Neighbor> nearest(const Vec3 &query,
                                    MemTrace *trace = nullptr) const;

    /**
     * Cache-friendly nearest for ICP's Fast tier: iterative traversal
     * (explicit stack, no recursion or trace branches) over
     * leaf-ordered SoA coordinates, so leaf scans run contiguously
     * instead of chasing indices into the cloud. The traversal visits
     * nodes in exactly the order the recursive oracle does and the
     * distances round identically, so the result is bit-identical to
     * nearest() — ties included.
     *
     * @param seed_index Warm start: a point index whose distance seeds
     *        the best before the descent, letting the traversal prune
     *        far subtrees immediately. The result is still the exact
     *        nearest distance (a seed can only tighten the bound);
     *        only tie-breaking may differ from the unseeded query.
     *        ICP passes each point's previous-iteration correspondence.
     */
    std::optional<Neighbor>
    nearestFast(const Vec3 &query, std::uint32_t seed_index = kNoSeed) const;

    /** Sentinel for nearestFast's seed_index: no warm start. */
    static constexpr std::uint32_t kNoSeed = 0xffffffffu;

    /**
     * Batch nearest for ICP-style callers: answers @p n queries in one
     * call over SoA inputs, through nearestFast's own per-query body,
     * so results are bitwise identical to calling nearestFast per
     * query — ties included. (Software-interleaving several traversals
     * was tried here and measured ~2× slower than the sequential
     * descent, whose whole state stays in registers.)
     *
     * @param seeds Per-query warm-start indices (kNoSeed entries or
     *        nullptr disable seeding; see nearestFast).
     * @param out_index / @param out_d2 Receive each query's neighbor;
     *        on an empty tree out_index is filled with kNoSeed.
     */
    void nearestBatch(const double *qx, const double *qy,
                      const double *qz, std::size_t n,
                      const std::uint32_t *seeds,
                      std::uint32_t *out_index, double *out_d2) const;

    /** All points within @p radius of @p query (unsorted). */
    std::vector<Neighbor> radiusSearch(const Vec3 &query, double radius,
                                       MemTrace *trace = nullptr) const;

    /** The k nearest neighbors, closest first. */
    std::vector<Neighbor> kNearest(const Vec3 &query, std::size_t k,
                                   MemTrace *trace = nullptr) const;

    std::size_t numNodes() const { return nodes_.size(); }

    /** The cloud this tree indexes (results index into it). */
    const PointCloud &cloud() const { return cloud_; }

  private:
    struct Node
    {
        // Internal node: split dimension/value and children.
        // Leaf: begin/end range into indices_.
        std::int32_t left = -1;
        std::int32_t right = -1;
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
        float split = 0.0f;
        std::uint8_t dim = 0;
        bool leaf = false;
    };

    /**
     * One ancestor plane on a leaf's root path, deepest first. A
     * seeded query replays these as a branch-free linear scan instead
     * of a root→leaf pointer chase: the far-sibling subtree is
     * searched only when the query sits on its side of the plane or
     * the plane is closer than the current best — exactly the
     * subtrees the top-down traversal could not prune either.
     */
    struct PathEntry
    {
        double split = 0.0;
        std::int32_t far = -1;    // sibling subtree off the path
        std::uint16_t dim = 0;
        /** 1 when the path continues into the LEFT child (query side
         *  consistent ⇔ delta ≤ 0). */
        std::uint16_t via_left = 0;
    };

    std::int32_t build(std::uint32_t begin, std::uint32_t end, int depth);
    void buildLeafPaths();

    void searchNearest(std::int32_t node, const Vec3 &query,
                       Neighbor &best, MemTrace *trace) const;
    /** Strictly closest point of @p leaf to @p qc, tightening @p best
     *  in place — the one leaf scan of the nearestFast path. */
    void scanLeaf(const Node &leaf, const double qc[3],
                  Neighbor &best) const;
    /** Iterative top-down nearest over the subtree at @p node_id,
     *  tightening @p best in place (the nearestFast core loop). */
    void descendNearest(std::int32_t node_id, const double qc[3],
                        Neighbor &best) const;
    /** nearestFast's per-query body on a non-empty tree (shared with
     *  nearestBatch). */
    Neighbor nearestOne(const double qc[3], std::uint32_t seed_index) const;
    void searchRadius(std::int32_t node, const Vec3 &query, double radius2,
                      std::vector<Neighbor> &out, MemTrace *trace) const;
    void searchKNearest(std::int32_t node, const Vec3 &query, std::size_t k,
                        std::vector<Neighbor> &heap, MemTrace *trace) const;

    const PointCloud &cloud_;
    std::uint32_t tree_id_;
    std::vector<std::uint32_t> indices_;
    std::vector<Node> nodes_;
    std::int32_t root_ = -1;
    /** Leaf-ordered SoA copies of the coordinates (indices_ order),
     *  so nearestFast scans leaves without indirection. */
    std::vector<double> leaf_x_;
    std::vector<double> leaf_y_;
    std::vector<double> leaf_z_;
    /** Point index → id of the leaf node holding it (warm starts jump
     *  straight to the seed's leaf). */
    std::vector<std::int32_t> leaf_of_point_;
    /** Concatenated per-leaf ancestor paths (deepest plane first);
     *  path_begin_/path_count_ are indexed by leaf node id. */
    std::vector<PathEntry> path_entries_;
    std::vector<std::uint32_t> path_begin_;
    std::vector<std::uint32_t> path_count_;

    /** Leaf size trades scan width against tree depth: with the leaf
     *  scan inlined over SoA doubles the compiler vectorizes it, so
     *  wide leaves are nearly free while every level removed shortens
     *  both the cold descent and the warm-start replay path. 16
     *  measured fastest on the ICP workload (≈15% over 8; 32 is flat). */
    static constexpr std::uint32_t kLeafSize = 16;
};

} // namespace sov
