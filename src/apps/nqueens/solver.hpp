// Sequential bitmask N-Queens solver.
//
// The classic three-bitmask backtracking kernel: `cols` marks occupied
// columns, `diag_l`/`diag_r` the occupied diagonals shifted per row.  It
// walks an explicit stack instead of recursing and counts the last row of
// each branch with one popcount.  Used
// (a) to solve subtrees below the parallelization threshold, (b) to count
// nodes so task compute cost can be charged in virtual time, and (c) to
// build the exact and sampled subtree-cost models (see subtree_model.hpp
// and DESIGN.md).
#pragma once

#include <cstdint>

namespace ugnirt::apps::nqueens {

struct SolveResult {
  std::uint64_t solutions = 0;
  std::uint64_t nodes = 0;  // search-tree nodes visited (cost proxy)
};

/// Count all completions of a partial placement.  `row` rows are already
/// placed; the masks describe their attacks.  O(tree size), no allocation.
SolveResult solve(int n, int row, std::uint32_t cols, std::uint32_t diag_l,
                  std::uint32_t diag_r);

/// Full-board convenience: solve(n, 0, 0, 0, 0).
SolveResult solve_all(int n);

/// Known solution counts for validation (n in [1, 18]).
std::uint64_t known_solutions(int n);

}  // namespace ugnirt::apps::nqueens
