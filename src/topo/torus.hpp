// 3D torus topology with dimension-ordered routing.
//
// Gemini builds "a three-dimensional torus of connected nodes" (paper §II-A).
// We auto-factor a node count into X*Y*Z dimensions (as close to cubic as
// possible, matching how XE6 jobs see a folded torus slice), enumerate the
// six directional links per node, and produce deterministic dimension-ordered
// routes.  The network model layers link occupancy on top of these routes.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

namespace ugnirt::topo {

struct Coord {
  int x = 0;
  int y = 0;
  int z = 0;

  bool operator==(const Coord&) const = default;
};

/// Identifies one directional link: the link leaving `node` along dimension
/// `dim` (0=x, 1=y, 2=z) in direction `positive`.
struct LinkId {
  std::int32_t node = 0;
  std::uint8_t dim = 0;
  bool positive = true;

  bool operator==(const LinkId&) const = default;
};

/// Dense index for a LinkId, suitable for vector-indexed occupancy tables.
/// There are exactly 6 directional links per node.
constexpr std::size_t link_index(const LinkId& l) {
  return static_cast<std::size_t>(l.node) * 6 +
         static_cast<std::size_t>(l.dim) * 2 + (l.positive ? 1 : 0);
}

class Torus3D {
 public:
  /// Build a torus with the given dimensions (each >= 1).
  Torus3D(int dim_x, int dim_y, int dim_z);

  /// Build a torus for `nodes` nodes, factored as close to cubic as possible.
  /// The product of the dimensions always equals `nodes`.
  static Torus3D for_nodes(int nodes);

  int nodes() const { return dims_[0] * dims_[1] * dims_[2]; }
  std::array<int, 3> dims() const { return dims_; }
  std::size_t total_links() const {
    return static_cast<std::size_t>(nodes()) * 6;
  }

  Coord coord_of(int node) const {
    assert(node >= 0 && node < nodes());
    return coords_[static_cast<std::size_t>(node)];
  }
  int node_of(const Coord& c) const;

  /// Minimal hop count between two nodes (shortest wrap-aware distance
  /// summed over dimensions).
  int hops(int from, int to) const;

  /// Walk the minimal route from `from` to `to` that corrects dimensions in
  /// the given permutation of {0, 1, 2}, calling `f(LinkId)` for each
  /// directional link in traversal order.  Every permutation yields exactly
  /// hops(from, to) links, none when from == to.  Allocation-free: the
  /// network model reserves links straight from this walk.
  template <typename F>
  void for_each_link(int from, int to, const std::array<int, 3>& order,
                     F&& f) const {
    if (from == to) return;
    const Coord a = coord_of(from);
    const Coord b = coord_of(to);
    int pos[3] = {a.x, a.y, a.z};
    const int delta[3] = {ring_delta(a.x, b.x, dims_[0]),
                          ring_delta(a.y, b.y, dims_[1]),
                          ring_delta(a.z, b.z, dims_[2])};
    const int stride[3] = {1, dims_[0], dims_[0] * dims_[1]};
    int cur = from;
    for (int dim : order) {
      const int d = delta[dim];
      const bool positive = d > 0;
      const int wrap = (dims_[dim] - 1) * stride[dim];
      for (int step = 0; step < (positive ? d : -d); ++step) {
        f(LinkId{cur, static_cast<std::uint8_t>(dim), positive});
        if (positive) {
          if (++pos[dim] == dims_[dim]) {
            pos[dim] = 0;
            cur -= wrap;
          } else {
            cur += stride[dim];
          }
        } else if (pos[dim] == 0) {
          pos[dim] = dims_[dim] - 1;
          cur += wrap;
        } else {
          --pos[dim];
          cur -= stride[dim];
        }
      }
    }
    assert(cur == to);
  }

  /// Dimension-ordered (x, then y, then z) minimal route; returns the
  /// sequence of directional links traversed.  Empty when from == to.
  std::vector<LinkId> route(int from, int to) const {
    return route_order(from, to, {0, 1, 2});
  }

  /// The links for_each_link visits, collected.  Congestion-aware adaptive
  /// routing picks among the six orders by estimated link load.
  std::vector<LinkId> route_order(int from, int to,
                                  const std::array<int, 3>& order) const {
    std::vector<LinkId> links;
    for_each_link(from, to, order,
                  [&links](const LinkId& l) { links.push_back(l); });
    return links;
  }

  /// Neighbor of `node` along `dim` in direction `positive`.
  int neighbor(int node, int dim, bool positive) const;

  /// Network diameter (max over dimension half-spans).
  int diameter() const;

 private:
  /// Signed shortest displacement from a to b along a ring of size n,
  /// preferring the positive direction on ties (deterministic routes).
  static int ring_delta(int a, int b, int n) {
    int fwd = b - a;  // hops going positive
    if (fwd < 0) fwd += n;
    const int bwd = n - fwd;  // hops going negative
    if (fwd == 0) return 0;
    return (fwd <= bwd) ? fwd : -bwd;
  }

  std::array<int, 3> dims_;
  std::vector<Coord> coords_;  // coord_of table, indexed by node
};

}  // namespace ugnirt::topo
