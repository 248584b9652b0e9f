#include "apps/nqueens/solver.hpp"

#include <bit>
#include <cassert>

namespace ugnirt::apps::nqueens {

SolveResult solve(int n, int row, std::uint32_t cols, std::uint32_t diag_l,
                  std::uint32_t diag_r) {
  assert(n >= 1 && n < 32);
  assert(row >= 0 && row <= n);
  const std::uint32_t all = (n == 31) ? 0x7fffffffu : ((1u << n) - 1);
  cols &= all;
  diag_l &= all;
  diag_r &= all;
  const int rows_left = n - row;

  // Every placement visited is one node, the root included; a placement
  // of the last row is also one solution.  The children of a node one row
  // from the bottom are all leaves, so that row is counted with one
  // popcount instead of being descended into.
  SolveResult r;
  r.nodes = 1;
  if (rows_left == 0) {
    r.solutions = 1;
    return r;
  }
  std::uint32_t free = all & ~(cols | diag_l | diag_r);
  if (rows_left == 1) {
    const auto leaves = static_cast<std::uint64_t>(std::popcount(free));
    r.nodes += leaves;
    r.solutions = leaves;
    return r;
  }

  // Depth-first walk over the interior rows (rows_left >= 2 here).  The
  // node being expanded lives in locals; descending pushes it, with the
  // columns it has yet to try, onto an explicit stack, and an exhausted
  // node pops its parent back.  Level d has rows_left - d rows to place.
  struct Level {
    std::uint32_t free, cols, diag_l, diag_r;
  };
  Level stack[32];
  const int last = rows_left - 2;  // deepest level expanded
  int d = 0;
  for (;;) {
    if (free == 0) {
      if (d == 0) break;
      const Level& up = stack[--d];
      free = up.free;
      cols = up.cols;
      diag_l = up.diag_l;
      diag_r = up.diag_r;
      continue;
    }
    const std::uint32_t bit = free & (0u - free);  // lowest set bit
    free ^= bit;
    ++r.nodes;
    const std::uint32_t c = cols | bit;
    const std::uint32_t l = ((diag_l | bit) << 1) & all;
    const std::uint32_t rr = (diag_r | bit) >> 1;
    const std::uint32_t child_free = all & ~(c | l | rr);
    if (d == last) {
      const auto leaves =
          static_cast<std::uint64_t>(std::popcount(child_free));
      r.nodes += leaves;
      r.solutions += leaves;
    } else if (child_free != 0) {  // a dead end is a node, not a level
      stack[d++] = Level{free, cols, diag_l, diag_r};
      free = child_free;
      cols = c;
      diag_l = l;
      diag_r = rr;
    }
  }
  return r;
}

SolveResult solve_all(int n) { return solve(n, 0, 0, 0, 0); }

std::uint64_t known_solutions(int n) {
  // OEIS A000170.
  static constexpr std::uint64_t kCounts[] = {
      0,          1,         0,        0,       2,       10,
      4,          40,        92,       352,     724,     2680,
      14200,      73712,     365596,   2279184, 14772512, 95815104,
      666090624};
  assert(n >= 1 && n <= 18);
  return kCounts[n];
}

}  // namespace ugnirt::apps::nqueens
