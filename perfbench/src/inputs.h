// Seeded input generators of the benchmark. They live here, not in the
// program, so a change to the program's own generators cannot change what
// the benchmark measures: the same seed gives the same edge list forever.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"

namespace perfbench {

using huge::VertexId;
using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/// splitmix64: a fixed, portable stream (std:: distributions are not).
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Derives an independent stream per (seed, purpose) so that adding a use
/// of randomness never shifts another one.
inline uint64_t Stream(uint64_t seed, uint64_t purpose) {
  SplitMix m(seed * 0x100000001B3ULL + purpose);
  return m.Next();
}

/// Chung–Lu power-law graph: vertex i has expected degree proportional to
/// (i+1)^(-1/(exponent-1)), scaled to mean `avg_degree`. The weights do not
/// depend on the seed; only the sampled edges do, so graphs of one class
/// differ across seeds by sampling noise alone.
inline EdgeList ChungLu(VertexId n, double avg_degree, double exponent,
                        uint64_t seed) {
  const double gamma = 1.0 / (exponent - 1.0);
  std::vector<double> cum(n);
  double acc = 0;
  for (VertexId i = 0; i < n; ++i) {
    acc += std::pow(static_cast<double>(i) + 1.0, -gamma);
    cum[i] = acc;
  }
  SplitMix rng(seed);
  auto draw = [&] {
    const double x = rng.Uniform() * acc;
    return static_cast<VertexId>(
        std::lower_bound(cum.begin(), cum.end(), x) - cum.begin());
  };
  const auto m = static_cast<uint64_t>(avg_degree * n / 2.0);
  EdgeList edges;
  edges.reserve(m);
  for (uint64_t i = 0; i < m; ++i) {
    const VertexId u = draw();
    const VertexId v = draw();
    if (u != v) edges.emplace_back(u, v);
  }
  return edges;
}

/// Road-network stand-in: a side x side grid plus `shortcuts` random edges.
inline EdgeList RoadGrid(uint32_t side, uint64_t shortcuts, uint64_t seed) {
  const VertexId n = side * side;
  EdgeList edges;
  edges.reserve(2 * static_cast<size_t>(n) + shortcuts);
  for (uint32_t r = 0; r < side; ++r) {
    for (uint32_t c = 0; c < side; ++c) {
      const VertexId v = r * side + c;
      if (c + 1 < side) edges.emplace_back(v, v + 1);
      if (r + 1 < side) edges.emplace_back(v, v + side);
    }
  }
  SplitMix rng(seed);
  for (uint64_t i = 0; i < shortcuts; ++i) {
    const auto u = static_cast<VertexId>(rng.Below(n));
    const auto v = static_cast<VertexId>(rng.Below(n));
    if (u != v) edges.emplace_back(u, v);
  }
  return edges;
}

/// Uniform labels from an alphabet of `alphabet` values.
inline std::vector<uint8_t> Labels(VertexId n, int alphabet, uint64_t seed) {
  SplitMix rng(seed);
  std::vector<uint8_t> labels(n);
  for (auto& l : labels) l = static_cast<uint8_t>(rng.Below(alphabet));
  return labels;
}

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
