#include "pointcloud/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/logging.h"

namespace sov {

KdTree::KdTree(const PointCloud &cloud, std::uint32_t tree_id)
    : cloud_(cloud), tree_id_(tree_id)
{
    indices_.resize(cloud.size());
    std::iota(indices_.begin(), indices_.end(), 0u);
    if (!cloud.empty())
        root_ = build(0, static_cast<std::uint32_t>(cloud.size()), 0);

    // Leaf-ordered SoA mirror for nearestFast: one sequential pass at
    // build time buys contiguous (and vectorizable) leaf scans on
    // every query.
    leaf_x_.resize(cloud.size());
    leaf_y_.resize(cloud.size());
    leaf_z_.resize(cloud.size());
    for (std::size_t i = 0; i < indices_.size(); ++i) {
        const Vec3 &p = cloud_[indices_[i]];
        leaf_x_[i] = p.x();
        leaf_y_[i] = p.y();
        leaf_z_[i] = p.z();
    }

    buildLeafPaths();
}

void
KdTree::buildLeafPaths()
{
    leaf_of_point_.assign(cloud_.size(), -1);
    path_begin_.assign(nodes_.size(), 0);
    path_count_.assign(nodes_.size(), 0);
    if (root_ < 0)
        return;

    // DFS carrying the ancestor-plane path; at each leaf, flush the
    // path (deepest plane first — tightest prune first on replay) and
    // record the leaf id for every point it holds.
    std::vector<PathEntry> path; // ancestors of the current node
    const auto dfs = [&](const auto &self, std::int32_t node_id) -> void {
        const Node &node = nodes_[node_id];
        if (node.leaf) {
            path_begin_[node_id] =
                static_cast<std::uint32_t>(path_entries_.size());
            path_count_[node_id] =
                static_cast<std::uint32_t>(path.size());
            for (auto it = path.rbegin(); it != path.rend(); ++it)
                path_entries_.push_back(*it);
            for (std::uint32_t i = node.begin; i < node.end; ++i)
                leaf_of_point_[indices_[i]] = node_id;
            return;
        }
        PathEntry entry;
        entry.split = node.split;
        entry.dim = node.dim;
        entry.far = node.right;
        entry.via_left = 1;
        path.push_back(entry);
        self(self, node.left);
        path.back().far = node.left;
        path.back().via_left = 0;
        self(self, node.right);
        path.pop_back();
    };
    dfs(dfs, root_);
}

std::int32_t
KdTree::build(std::uint32_t begin, std::uint32_t end, int depth)
{
    Node node;
    if (end - begin <= kLeafSize) {
        node.leaf = true;
        node.begin = begin;
        node.end = end;
        nodes_.push_back(node);
        return static_cast<std::int32_t>(nodes_.size() - 1);
    }

    // Split on the widest dimension of this subset's bounding box.
    Vec3 lo = cloud_[indices_[begin]];
    Vec3 hi = lo;
    for (std::uint32_t i = begin; i < end; ++i) {
        const Vec3 &p = cloud_[indices_[i]];
        for (std::size_t d = 0; d < 3; ++d) {
            lo[d] = std::min(lo[d], p[d]);
            hi[d] = std::max(hi[d], p[d]);
        }
    }
    std::uint8_t dim = 0;
    double widest = hi[0] - lo[0];
    for (std::uint8_t d = 1; d < 3; ++d) {
        if (hi[d] - lo[d] > widest) {
            widest = hi[d] - lo[d];
            dim = d;
        }
    }

    const std::uint32_t mid = (begin + end) / 2;
    std::nth_element(indices_.begin() + begin, indices_.begin() + mid,
                     indices_.begin() + end,
                     [this, dim](std::uint32_t a, std::uint32_t b) {
                         return cloud_[a][dim] < cloud_[b][dim];
                     });

    node.dim = dim;
    node.split = static_cast<float>(cloud_[indices_[mid]][dim]);
    nodes_.push_back(node);
    const std::int32_t self = static_cast<std::int32_t>(nodes_.size() - 1);
    const std::int32_t left = build(begin, mid, depth + 1);
    const std::int32_t right = build(mid, end, depth + 1);
    nodes_[self].left = left;
    nodes_[self].right = right;
    return self;
}

std::optional<Neighbor>
KdTree::nearest(const Vec3 &query, MemTrace *trace) const
{
    if (root_ < 0)
        return std::nullopt;
    Neighbor best{0, std::numeric_limits<double>::max()};
    searchNearest(root_, query, best, trace);
    return best;
}

void
KdTree::searchNearest(std::int32_t node_id, const Vec3 &query,
                      Neighbor &best, MemTrace *trace) const
{
    const Node &node = nodes_[node_id];
    if (trace)
        trace->touchNode(tree_id_, static_cast<std::uint32_t>(node_id));

    if (node.leaf) {
        for (std::uint32_t i = node.begin; i < node.end; ++i) {
            const std::uint32_t idx = indices_[i];
            if (trace)
                trace->touchPoint(cloud_.id(), idx);
            const double d2 = (cloud_[idx] - query).squaredNorm();
            if (d2 < best.squared_distance)
                best = Neighbor{idx, d2};
        }
        return;
    }

    const double delta = query[node.dim] - node.split;
    const std::int32_t near = delta <= 0.0 ? node.left : node.right;
    const std::int32_t far = delta <= 0.0 ? node.right : node.left;
    searchNearest(near, query, best, trace);
    if (delta * delta < best.squared_distance)
        searchNearest(far, query, best, trace);
}

inline void
KdTree::scanLeaf(const Node &leaf, const double qc[3], Neighbor &best) const
{
    // Contiguous SoA doubles, left-associated like Vec3::squaredNorm,
    // strict improvement: the same rounding and tie rule as the
    // recursive oracle's leaf loop.
    const double *xs = leaf_x_.data() + leaf.begin;
    const double *ys = leaf_y_.data() + leaf.begin;
    const double *zs = leaf_z_.data() + leaf.begin;
    const std::size_t n = leaf.end - leaf.begin;
    double best_d2 = best.squared_distance;
    std::size_t best_off = n; // n: nothing beat the incoming bound
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = xs[i] - qc[0];
        const double dy = ys[i] - qc[1];
        const double dz = zs[i] - qc[2];
        const double d2 = dx * dx + dy * dy + dz * dz;
        if (d2 < best_d2) {
            best_d2 = d2;
            best_off = i;
        }
    }
    if (best_off != n)
        best = Neighbor{
            indices_[leaf.begin + static_cast<std::uint32_t>(best_off)],
            best_d2};
}

void
KdTree::descendNearest(std::int32_t node_id, const double qc[3],
                       Neighbor &best) const
{
    // Deferred far subtrees, deepest on top — popping them after the
    // near descent replays the recursive near/far visit order exactly,
    // and each pop re-tests its split distance against the *current*
    // best, just like the recursion does on unwind.
    struct Deferred
    {
        std::int32_t node;
        double delta2;
    };
    Deferred stack[64];
    std::size_t top = 0;

    for (;;) {
        const Node &node = nodes_[node_id];
        if (!node.leaf) {
            const double delta = qc[node.dim] - node.split;
            const double delta2 = delta * delta;
            const std::int32_t far =
                delta <= 0.0 ? node.right : node.left;
            // Defer the far child only while it is still reachable:
            // the prune test is strict and best only shrinks, so a
            // subtree failing it now would fail it on unwind too —
            // skipping the push changes nothing but the stack traffic
            // (the big win for warm-started queries, whose tight
            // initial best rejects nearly every far subtree here).
            if (delta2 < best.squared_distance) {
                SOV_ASSERT(top < sizeof(stack) / sizeof(stack[0]));
                stack[top++] = Deferred{far, delta2};
            }
            node_id = delta <= 0.0 ? node.left : node.right;
            continue;
        }

        scanLeaf(node, qc, best);

        // Unwind: first deferred subtree still worth visiting.
        for (;;) {
            if (top == 0)
                return;
            const Deferred d = stack[--top];
            if (d.delta2 < best.squared_distance) {
                node_id = d.node;
                break;
            }
        }
    }
}

inline Neighbor
KdTree::nearestOne(const double qc[3], std::uint32_t seed_index) const
{
    Neighbor best{0, std::numeric_limits<double>::max()};
    if (seed_index == kNoSeed || seed_index >= cloud_.size()) {
        descendNearest(root_, qc, best);
        return best;
    }

    // Warm start — bottom-up from the seed's leaf. Seeding best with
    // a known-good candidate can only tighten the pruning bound, so
    // the returned distance is still the exact nearest; scans replace
    // only on strict improvement, so a tie keeps the seed. Only
    // tie-breaking may differ from the unseeded query. Instead of
    // chasing root→leaf pointers, jump straight to the seed's leaf,
    // scan it, then replay its precomputed ancestor planes (deepest
    // first): the far sibling is descended only when the query sits
    // on its side of the plane (the pose moved the point across a
    // split, so the subtree may hold arbitrarily close points) or the
    // plane is nearer than the current best — exactly the subtrees a
    // top-down traversal could not prune. For a tight seed this is a
    // branch-free linear scan that prunes everything.
    {
        const Vec3 &s = cloud_[seed_index];
        const double dx = s.x() - qc[0];
        const double dy = s.y() - qc[1];
        const double dz = s.z() - qc[2];
        best = Neighbor{seed_index, dx * dx + dy * dy + dz * dz};
    }

    const std::int32_t leaf_id = leaf_of_point_[seed_index];
    scanLeaf(nodes_[leaf_id], qc, best);

    const PathEntry *entry = path_entries_.data() + path_begin_[leaf_id];
    const PathEntry *end = entry + path_count_[leaf_id];
    for (; entry != end; ++entry) {
        const double delta = qc[entry->dim] - entry->split;
        // Query on the sibling's side of the plane (delta > 0 leads
        // right; ties lead left, like the recursion's near choice)?
        const bool wrong_side =
            entry->via_left ? delta > 0.0 : delta <= 0.0;
        if (wrong_side || delta * delta < best.squared_distance)
            descendNearest(entry->far, qc, best);
    }
    return best;
}

std::optional<Neighbor>
KdTree::nearestFast(const Vec3 &query, std::uint32_t seed_index) const
{
    if (root_ < 0)
        return std::nullopt;
    const double qc[3] = {query.x(), query.y(), query.z()};
    return nearestOne(qc, seed_index);
}

void
KdTree::nearestBatch(const double *qx, const double *qy,
                     const double *qz, std::size_t n,
                     const std::uint32_t *seeds,
                     std::uint32_t *out_index, double *out_d2) const
{
    if (root_ < 0) {
        for (std::size_t i = 0; i < n; ++i) {
            out_index[i] = kNoSeed;
            out_d2[i] = std::numeric_limits<double>::max();
        }
        return;
    }

    // A lone descent keeps its whole state — current node, best, the
    // deferred stack — in registers; measured against that, software
    // round-robin interleaving of several traversals spills every
    // lane's state to the stack and runs ~2× slower per query. So the
    // batch runs nearestFast's per-query body back to back, without
    // its Vec3 and optional round trips.
    for (std::size_t i = 0; i < n; ++i) {
        const double qc[3] = {qx[i], qy[i], qz[i]};
        const Neighbor best = nearestOne(qc, seeds ? seeds[i] : kNoSeed);
        out_index[i] = best.index;
        out_d2[i] = best.squared_distance;
    }
}

std::vector<Neighbor>
KdTree::radiusSearch(const Vec3 &query, double radius,
                     MemTrace *trace) const
{
    std::vector<Neighbor> out;
    if (root_ >= 0)
        searchRadius(root_, query, radius * radius, out, trace);
    return out;
}

void
KdTree::searchRadius(std::int32_t node_id, const Vec3 &query,
                     double radius2, std::vector<Neighbor> &out,
                     MemTrace *trace) const
{
    const Node &node = nodes_[node_id];
    if (trace)
        trace->touchNode(tree_id_, static_cast<std::uint32_t>(node_id));

    if (node.leaf) {
        for (std::uint32_t i = node.begin; i < node.end; ++i) {
            const std::uint32_t idx = indices_[i];
            if (trace)
                trace->touchPoint(cloud_.id(), idx);
            const double d2 = (cloud_[idx] - query).squaredNorm();
            if (d2 <= radius2)
                out.push_back(Neighbor{idx, d2});
        }
        return;
    }

    const double delta = query[node.dim] - node.split;
    const std::int32_t near = delta <= 0.0 ? node.left : node.right;
    const std::int32_t far = delta <= 0.0 ? node.right : node.left;
    searchRadius(near, query, radius2, out, trace);
    if (delta * delta <= radius2)
        searchRadius(far, query, radius2, out, trace);
}

std::vector<Neighbor>
KdTree::kNearest(const Vec3 &query, std::size_t k, MemTrace *trace) const
{
    std::vector<Neighbor> heap; // max-heap on squared distance
    if (root_ >= 0 && k > 0)
        searchKNearest(root_, query, k, heap, trace);
    std::sort(heap.begin(), heap.end(),
              [](const Neighbor &a, const Neighbor &b) {
                  return a.squared_distance < b.squared_distance;
              });
    return heap;
}

void
KdTree::searchKNearest(std::int32_t node_id, const Vec3 &query,
                       std::size_t k, std::vector<Neighbor> &heap,
                       MemTrace *trace) const
{
    const auto cmp = [](const Neighbor &a, const Neighbor &b) {
        return a.squared_distance < b.squared_distance;
    };
    const Node &node = nodes_[node_id];
    if (trace)
        trace->touchNode(tree_id_, static_cast<std::uint32_t>(node_id));

    if (node.leaf) {
        for (std::uint32_t i = node.begin; i < node.end; ++i) {
            const std::uint32_t idx = indices_[i];
            if (trace)
                trace->touchPoint(cloud_.id(), idx);
            const double d2 = (cloud_[idx] - query).squaredNorm();
            if (heap.size() < k) {
                heap.push_back(Neighbor{idx, d2});
                std::push_heap(heap.begin(), heap.end(), cmp);
            } else if (d2 < heap.front().squared_distance) {
                std::pop_heap(heap.begin(), heap.end(), cmp);
                heap.back() = Neighbor{idx, d2};
                std::push_heap(heap.begin(), heap.end(), cmp);
            }
        }
        return;
    }

    const double delta = query[node.dim] - node.split;
    const std::int32_t near = delta <= 0.0 ? node.left : node.right;
    const std::int32_t far = delta <= 0.0 ? node.right : node.left;
    searchKNearest(near, query, k, heap, trace);
    const double worst = heap.size() < k
        ? std::numeric_limits<double>::max()
        : heap.front().squared_distance;
    if (delta * delta < worst)
        searchKNearest(far, query, k, heap, trace);
}

} // namespace sov
