// Direction decisions for frontier-adaptive (hybrid) traversal.
//
// The phase driver in core/hybrid_traversal.hpp knows each wave exactly
// (it applies every wave itself between phases), so Beamer/Buluç-style
// top-down vs bottom-up switching (docs/hybrid_traversal.md) needs only the
// two classic questions, asked at each wave boundary:
//
//   go_bottom_up:    m_f * alpha > m_u   -- the queued frontier's edges
//                    outnumber 1/alpha of the unexplored edges, so scanning
//                    unvisited vertices' in-edges (with early exit) is
//                    cheaper than pushing every out-edge of the frontier.
//   stay_bottom_up:  n_f * beta > n     -- the frontier is still a large
//                    fraction of all vertices; once it shrinks below n/beta
//                    the per-sweep O(V) scan stops paying for itself and
//                    the driver flips back to asynchronous top-down.
//
// alpha/beta defaults follow the direction-optimizing BFS literature
// (alpha=14, beta=24); both are exposed as --hybrid-alpha / --hybrid-beta
// through traversal_options::from_flags.
#pragma once

#include <cstdint>

namespace asyncgt {

class frontier_estimator {
 public:
  frontier_estimator() = default;
  frontier_estimator(double alpha, double beta) : alpha_(alpha), beta_(beta) {}

  double alpha() const noexcept { return alpha_; }
  double beta() const noexcept { return beta_; }

  /// Driver-side alpha test: switch into bottom-up sweeps when the frontier's
  /// forward edge count `frontier_edges` (m_f) exceeds 1/alpha of the edges
  /// still reachable from unvisited vertices `unvisited_edges` (m_u).
  bool go_bottom_up(std::uint64_t frontier_edges,
                    std::uint64_t unvisited_edges) const noexcept {
    return static_cast<double>(frontier_edges) * alpha_ >
           static_cast<double>(unvisited_edges);
  }

  /// Driver-side beta test: keep sweeping bottom-up while the current wave
  /// `frontier_vertices` (n_f) is still larger than num_vertices/beta.
  bool stay_bottom_up(std::uint64_t frontier_vertices,
                      std::uint64_t num_vertices) const noexcept {
    return static_cast<double>(frontier_vertices) * beta_ >
           static_cast<double>(num_vertices);
  }

 private:
  double alpha_ = 14.0;
  double beta_ = 24.0;
};

}  // namespace asyncgt
