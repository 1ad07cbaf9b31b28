// Match counts computed apart from the engine. Triangles and 4-cycles come
// from the benchmark's own CSR and counters; the other patterns come from
// the program's single-threaded Oracle with the kernel policy pinned to the
// scalar merge and bitmap routing off, so no routed or vector kernel sits
// on both sides of a comparison.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "engine/intersect.h"
#include "graph/graph.h"
#include "inputs.h"
#include "oracle/oracle.h"
#include "query/query_graph.h"

namespace perfbench {

/// The benchmark's own undirected CSR: sorted, deduplicated, no self-loops.
struct Adjacency {
  std::vector<uint64_t> offsets;
  std::vector<VertexId> nbrs;

  VertexId NumVertices() const {
    return static_cast<VertexId>(offsets.size() - 1);
  }
  uint64_t NumEdges() const { return nbrs.size() / 2; }
  const VertexId* begin(VertexId v) const { return nbrs.data() + offsets[v]; }
  const VertexId* end(VertexId v) const {
    return nbrs.data() + offsets[v + 1];
  }
};

inline Adjacency BuildAdjacency(VertexId n, const EdgeList& edges) {
  std::vector<std::pair<VertexId, VertexId>> arcs;
  arcs.reserve(2 * edges.size());
  for (auto [u, v] : edges) {
    if (u == v) continue;
    arcs.emplace_back(u, v);
    arcs.emplace_back(v, u);
  }
  std::sort(arcs.begin(), arcs.end());
  arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  Adjacency a;
  a.offsets.assign(static_cast<size_t>(n) + 1, 0);
  a.nbrs.reserve(arcs.size());
  for (auto [u, v] : arcs) {
    ++a.offsets[u + 1];
    a.nbrs.push_back(v);
  }
  for (VertexId v = 0; v < n; ++v) a.offsets[v + 1] += a.offsets[v];
  return a;
}

inline constexpr int kAnyLabel = -1;

/// Triangles by sorted merge over higher-numbered neighbours. With a
/// label, counts (triangle, corner with that label) pairs: the matches of a
/// triangle whose one query vertex carries the label.
inline uint64_t CountTriangles(const Adjacency& a,
                               const std::vector<uint8_t>& labels, int label) {
  auto weight = [&](VertexId x, VertexId y, VertexId z) -> uint64_t {
    if (label == kAnyLabel) return 1;
    return (labels[x] == label) + (labels[y] == label) + (labels[z] == label);
  };
  uint64_t total = 0;
  for (VertexId u = 0; u < a.NumVertices(); ++u) {
    const VertexId* ub = std::upper_bound(a.begin(u), a.end(u), u);
    for (const VertexId* pv = ub; pv != a.end(u); ++pv) {
      const VertexId v = *pv;
      const VertexId* x = pv + 1;  // w > v among u's neighbours
      const VertexId* y = std::upper_bound(a.begin(v), a.end(v), v);
      while (x != a.end(u) && y != a.end(v)) {
        if (*x < *y) {
          ++x;
        } else if (*y < *x) {
          ++y;
        } else {
          total += weight(u, v, *x);
          ++x;
          ++y;
        }
      }
    }
  }
  return total;
}

/// 4-cycles from co-degrees: S(u) = sum over v != u of C(codeg(u, v), 2)
/// counts the 4-cycles through u once each, so #C4 = 1/4 sum_u S(u)
/// (= 1/2 sum_{u<v} C(codeg(u,v), 2)). With a label, counts (cycle, corner
/// with that label) pairs: sum of S(u) over vertices u with the label.
inline uint64_t CountSquares(const Adjacency& a,
                             const std::vector<uint8_t>& labels, int label) {
  const VertexId n = a.NumVertices();
  std::vector<uint32_t> codeg(n, 0);
  std::vector<VertexId> touched;
  uint64_t total = 0;
  for (VertexId u = 0; u < n; ++u) {
    if (label != kAnyLabel && labels[u] != label) continue;
    for (const VertexId* pw = a.begin(u); pw != a.end(u); ++pw) {
      for (const VertexId* pv = a.begin(*pw); pv != a.end(*pw); ++pv) {
        if (*pv == u) continue;
        if (codeg[*pv]++ == 0) touched.push_back(*pv);
      }
    }
    for (VertexId v : touched) {
      const uint64_t c = codeg[v];
      total += c * (c - 1) / 2;
      codeg[v] = 0;
    }
    touched.clear();
  }
  return label == kAnyLabel ? total / 4 : total;
}

/// The Oracle's count with scalar kernels pinned; `seconds` receives its
/// single-threaded run time. The previous policy is restored afterwards.
inline uint64_t OracleCount(const huge::Graph& g, const huge::QueryGraph& q,
                            double* seconds) {
  const huge::IntersectKernel kernel = huge::GetIntersectKernelPolicy();
  const uint32_t density = huge::GetBitmapDensityPolicy();
  huge::SetIntersectKernelPolicy(huge::IntersectKernel::kScalarMerge);
  huge::SetBitmapDensityPolicy(0);
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t count = huge::Oracle::Count(g, q);
  *seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  huge::SetIntersectKernelPolicy(kernel);
  huge::SetBitmapDensityPolicy(density);
  return count;
}

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
