// Subtree cost models for the parallel N-Queens search.
//
// Below the parallelization threshold each task solves its subtree
// sequentially.  Both models solve their subtrees ahead of the run, spread
// over one host thread per core (parallel_for.hpp); every result lands in
// its own slot, so the tables do not depend on the thread count.  For
// board sizes whose full enumeration is too slow even then (the 18-Queens
// depth-5 table takes about a minute on four cores), a *sampled* model
// solves a deterministic sample of threshold-depth subtrees exactly
// and assigns every unsampled subtree a draw from the resulting empirical
// distribution, keyed by a hash of the prefix.  This preserves the two
// properties the scaling experiment depends on: total work magnitude and
// the heavy-tailed per-task cost distribution that causes the end-of-run
// load imbalance in the paper's Figure 12.  The exact model solves every
// threshold subtree, once per left-right mirror pair (a prefix and its
// mirror image root congruent subtrees).  The library never reads the
// environment; the N-Queens benches pick a model per board size (see
// bench/nqueens_bench_util.hpp and DESIGN.md).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/nqueens/solver.hpp"
#include "util/rng.hpp"

namespace ugnirt::apps::nqueens {

class SubtreeCostModel {
 public:
  virtual ~SubtreeCostModel() = default;

  /// Work (nodes) and solutions for the subtree under the given prefix.
  virtual SolveResult subtree(int n, int row, std::uint32_t cols,
                              std::uint32_t diag_l,
                              std::uint32_t diag_r) const = 0;

  /// True when subtree() returns exact values (totals will verify against
  /// known_solutions()).
  virtual bool exact() const = 0;
};

/// Exact results for every threshold-depth subtree, solved ahead of time.
/// A prefix and its mirror image (columns reversed) root congruent search
/// trees with equal `nodes` and `solutions`, so the table holds one entry
/// per distinct prefix state up to mirroring, keyed by the smaller packed
/// state of the pair.
class ExactModel final : public SubtreeCostModel {
 public:
  /// Enumerate all prefixes of depth `threshold` and solve each distinct
  /// key once.  The packed key needs 3n bits: n <= 21.
  static std::unique_ptr<ExactModel> build(int n, int threshold);

  SolveResult subtree(int n, int row, std::uint32_t cols,
                      std::uint32_t diag_l,
                      std::uint32_t diag_r) const override;
  bool exact() const override { return true; }

  /// Subtrees solved: distinct prefix states up to mirroring.
  std::size_t table_size() const { return table_.size(); }

 private:
  int n_ = 0;
  int threshold_ = 0;
  // Sorted by canonical key.
  std::vector<std::pair<std::uint64_t, SolveResult>> table_;
};

/// Deterministic sampling model (see file comment).
class SampledModel final : public SubtreeCostModel {
 public:
  /// Enumerate all prefixes of depth `threshold`, exactly solve a sample of
  /// `samples` of them, and fit the empirical distribution.
  static std::unique_ptr<SampledModel> build(int n, int threshold,
                                             int samples,
                                             std::uint64_t seed = 0xA11CE);

  SolveResult subtree(int n, int row, std::uint32_t cols,
                      std::uint32_t diag_l,
                      std::uint32_t diag_r) const override;
  bool exact() const override { return false; }

  std::uint64_t prefix_count() const { return prefix_count_; }
  /// Estimated totals for the whole board (sample mean * prefix count).
  std::uint64_t est_total_nodes() const { return est_nodes_; }
  std::uint64_t est_total_solutions() const { return est_solutions_; }

 private:
  int n_ = 0;
  int threshold_ = 0;
  std::uint64_t prefix_count_ = 0;
  std::uint64_t est_nodes_ = 0;
  std::uint64_t est_solutions_ = 0;
  // Exact results for sampled prefixes, keyed by packed prefix state.
  std::vector<std::pair<std::uint64_t, SolveResult>> sampled_;
  // Empirical distribution (sorted by nodes) used for unsampled prefixes.
  std::vector<SolveResult> empirical_;
};

/// Packed key for a prefix state (n, row, masks).
std::uint64_t prefix_key(int row, std::uint32_t cols, std::uint32_t diag_l,
                         std::uint32_t diag_r);

/// The attack masks of a partial placement.
struct Prefix {
  std::uint32_t cols = 0;
  std::uint32_t diag_l = 0;
  std::uint32_t diag_r = 0;
};

/// All valid placements of the first `depth` rows of an n-wide board.
std::vector<Prefix> enumerate_prefixes(int n, int depth);

/// The left-right mirror image of `p` on an n-wide board: every mask is
/// bit-reversed, and the two diagonal directions swap.
Prefix mirror(int n, const Prefix& p);

}  // namespace ugnirt::apps::nqueens
