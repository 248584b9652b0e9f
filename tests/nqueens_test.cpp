#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "apps/nqueens/parallel.hpp"
#include "apps/nqueens/parallel_for.hpp"
#include "apps/nqueens/solver.hpp"
#include "apps/nqueens/subtree_model.hpp"

namespace ugnirt::apps::nqueens {
namespace {

using converse::LayerKind;
using converse::MachineOptions;

MachineOptions opts(int pes, LayerKind layer = LayerKind::kUgni) {
  MachineOptions o;
  o.pes = pes;
  o.layer = layer;
  return o;
}

// ---------------------------------------------------------------- solver ----

TEST(Solver, MatchesKnownCountsSmall) {
  for (int n = 1; n <= 11; ++n) {
    EXPECT_EQ(solve_all(n).solutions, known_solutions(n)) << "n=" << n;
  }
}

TEST(Solver, MatchesKnownCountsMedium) {
  EXPECT_EQ(solve_all(12).solutions, 14200u);
  EXPECT_EQ(solve_all(13).solutions, 73712u);
}

TEST(Solver, SubtreeDecompositionIsExact) {
  // Sum over all depth-2 prefixes must equal the full count.
  const int n = 10;
  const std::uint32_t all = (1u << n) - 1;
  std::uint64_t total = 0;
  for (int c0 = 0; c0 < n; ++c0) {
    std::uint32_t b0 = 1u << c0;
    std::uint32_t cols = b0, dl = (b0 << 1) & all, dr = b0 >> 1;
    for (int c1 = 0; c1 < n; ++c1) {
      std::uint32_t b1 = 1u << c1;
      if (b1 & (cols | dl | dr)) continue;
      total += solve(n, 2, cols | b1, ((dl | b1) << 1) & all,
                     (dr | b1) >> 1).solutions;
    }
  }
  EXPECT_EQ(total, known_solutions(n));
}

TEST(Solver, PinnedSolutionsAndNodes) {
  // {solutions, nodes} of the full board, root included in the nodes.
  // Every N-Queens run charges the node count in virtual time, so any
  // kernel must reproduce these exactly.
  const SolveResult want[] = {
      {1, 2},         {0, 3},         {0, 6},          {2, 17},
      {10, 54},       {4, 153},       {40, 552},       {92, 2057},
      {352, 8394},    {724, 35539},   {2680, 166926},  {14200, 856189},
      {73712, 4674890}};
  for (int n = 1; n <= 13; ++n) {
    const SolveResult got = solve_all(n);
    EXPECT_EQ(got.solutions, want[n - 1].solutions) << "n=" << n;
    EXPECT_EQ(got.nodes, want[n - 1].nodes) << "n=" << n;
  }
}

/// The textbook recursive kernel: one call per node visited.
void reference_descend(std::uint32_t all, int rows_left, std::uint32_t cols,
                       std::uint32_t diag_l, std::uint32_t diag_r,
                       SolveResult& r) {
  ++r.nodes;
  if (rows_left == 0) {
    ++r.solutions;
    return;
  }
  std::uint32_t free = all & ~(cols | diag_l | diag_r);
  while (free) {
    const std::uint32_t bit = free & (0u - free);
    free ^= bit;
    reference_descend(all, rows_left - 1, cols | bit,
                      ((diag_l | bit) << 1) & all, (diag_r | bit) >> 1, r);
  }
}

TEST(Solver, MatchesRecursiveReferenceForEveryPrefix) {
  for (int n = 1; n <= 11; ++n) {
    const std::uint32_t all = (1u << n) - 1;
    for (int row = 0; row <= n; ++row) {
      for (const Prefix& p : enumerate_prefixes(n, row)) {
        SolveResult want;
        reference_descend(all, n - row, p.cols, p.diag_l, p.diag_r, want);
        const SolveResult got = solve(n, row, p.cols, p.diag_l, p.diag_r);
        ASSERT_EQ(got.nodes, want.nodes) << "n=" << n << " row=" << row;
        ASSERT_EQ(got.solutions, want.solutions)
            << "n=" << n << " row=" << row;
      }
    }
  }
}

TEST(Solver, NodesGrowWithBoardSize) {
  EXPECT_GT(solve_all(10).nodes, solve_all(8).nodes);
  EXPECT_GT(solve_all(12).nodes, 10 * solve_all(10).nodes / 2);
}

// ----------------------------------------------------------- parallel_for ----

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kChunk = kParallelForChunk;
  for (unsigned workers = 1; workers <= 8; ++workers) {
    for (std::size_t count :
         {std::size_t{0}, std::size_t{1}, kChunk - 1, kChunk, kChunk + 1,
          8 * kChunk, 37 * kChunk + 5}) {
      std::vector<std::atomic<int>> visits(count);
      parallel_for(
          count, [&](std::size_t i) { visits[i].fetch_add(1); }, workers);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(visits[i].load(), 1)
            << "i=" << i << " count=" << count << " workers=" << workers;
      }
    }
  }
  EXPECT_GE(hardware_workers(), 1u);
}

// ------------------------------------------------------------ cost model ----

TEST(SampledModel, ExactForSampledPrefixesAndPlausibleTotals) {
  // Sample everything: estimates must be exact.
  auto full = SampledModel::build(10, 3, 1 << 20);
  EXPECT_EQ(full->est_total_solutions(), known_solutions(10));
  auto exact = solve_all(10);
  EXPECT_EQ(full->est_total_nodes() + /* interior nodes not in subtrees */ 0,
            full->est_total_nodes());
  EXPECT_LE(full->est_total_nodes(), exact.nodes);

  // Partial sample: totals within a loose factor of truth.
  auto part = SampledModel::build(12, 4, 300);
  double ratio = static_cast<double>(part->est_total_solutions()) /
                 static_cast<double>(known_solutions(12));
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(Mirror, SubtreesOfMirroredPrefixesAreIdentical) {
  for (int n = 8; n <= 12; ++n) {
    for (int threshold = 2; threshold <= 5; ++threshold) {
      for (const Prefix& p : enumerate_prefixes(n, threshold)) {
        const Prefix m = mirror(n, p);
        const SolveResult a = solve(n, threshold, p.cols, p.diag_l, p.diag_r);
        const SolveResult b = solve(n, threshold, m.cols, m.diag_l, m.diag_r);
        ASSERT_EQ(a.nodes, b.nodes) << "n=" << n << " t=" << threshold;
        ASSERT_EQ(a.solutions, b.solutions) << "n=" << n << " t=" << threshold;
      }
    }
  }
}

TEST(Mirror, IsAnInvolutionThatReflectsColumns) {
  const int n = 10;
  for (const Prefix& p : enumerate_prefixes(n, 3)) {
    const Prefix m = mirror(n, p);
    const Prefix back = mirror(n, m);
    EXPECT_EQ(back.cols, p.cols);
    EXPECT_EQ(back.diag_l, p.diag_l);
    EXPECT_EQ(back.diag_r, p.diag_r);
  }
  // One queen in column 0 of row 0: the mirror holds column n-1, and the
  // attacked diagonals below it swap direction.
  const Prefix p{1u, 2u, 0u};
  const Prefix m = mirror(n, p);
  EXPECT_EQ(m.cols, 1u << (n - 1));
  EXPECT_EQ(m.diag_l, 0u);
  EXPECT_EQ(m.diag_r, 1u << (n - 2));
}

TEST(ExactModel, TableMatchesSolveForEveryPrefix) {
  for (int n = 1; n <= 13; ++n) {
    for (int threshold : {0, 1, 3, 4}) {
      if (threshold > n) continue;
      auto model = ExactModel::build(n, threshold);
      const std::vector<Prefix> prefixes = enumerate_prefixes(n, threshold);
      EXPECT_LE(model->table_size(), prefixes.size());
      std::uint64_t solutions = 0;
      for (const Prefix& p : prefixes) {
        const SolveResult want =
            solve(n, threshold, p.cols, p.diag_l, p.diag_r);
        const SolveResult got =
            model->subtree(n, threshold, p.cols, p.diag_l, p.diag_r);
        ASSERT_EQ(got.nodes, want.nodes) << "n=" << n << " t=" << threshold;
        ASSERT_EQ(got.solutions, want.solutions)
            << "n=" << n << " t=" << threshold;
        solutions += got.solutions;
      }
      EXPECT_EQ(solutions, known_solutions(n))
          << "n=" << n << " t=" << threshold;
    }
  }
  // One entry per distinct state up to mirroring: the 4,080 depth-4
  // prefixes of a 12-wide board reduce to 2,036 keys.
  EXPECT_EQ(ExactModel::build(12, 4)->table_size(), 2036u);
  EXPECT_TRUE(ExactModel::build(12, 4)->exact());
}

TEST(SampledModel, DeterministicDraws) {
  auto m1 = SampledModel::build(11, 3, 50);
  auto m2 = SampledModel::build(11, 3, 50);
  // Same prefix -> same draw across independently built models.
  auto r1 = m1->subtree(11, 3, 0x7, (0x7 << 1) & 0x7ff, 0x7 >> 1);
  auto r2 = m2->subtree(11, 3, 0x7, (0x7 << 1) & 0x7ff, 0x7 >> 1);
  EXPECT_EQ(r1.nodes, r2.nodes);
  EXPECT_EQ(r1.solutions, r2.solutions);
}

// --------------------------------------------------------------- parallel ----

class NQueensBothLayers : public ::testing::TestWithParam<LayerKind> {};

TEST_P(NQueensBothLayers, FindsAllSolutionsExactMode) {
  for (int pes : {1, 7, 32}) {
    NQueensConfig cfg;
    cfg.n = 10;
    cfg.threshold = 3;
    NQueensResult r = run_nqueens(opts(pes, GetParam()), cfg);
    EXPECT_EQ(r.solutions, known_solutions(10)) << "pes=" << pes;
    EXPECT_GT(r.tasks, 100u);
    EXPECT_GT(r.elapsed, 0);
  }
}

TEST_P(NQueensBothLayers, ThresholdControlsTaskCount) {
  NQueensConfig shallow;
  shallow.n = 10;
  shallow.threshold = 2;
  NQueensConfig deep = shallow;
  deep.threshold = 4;
  auto layer = GetParam();
  NQueensResult rs = run_nqueens(opts(8, layer), shallow);
  NQueensResult rd = run_nqueens(opts(8, layer), deep);
  EXPECT_GT(rd.tasks, 5 * rs.tasks);
  EXPECT_EQ(rs.solutions, rd.solutions);
}

INSTANTIATE_TEST_SUITE_P(Layers, NQueensBothLayers,
                         ::testing::Values(LayerKind::kUgni, LayerKind::kMpi),
                         [](const auto& info) {
                           return info.param == LayerKind::kUgni ? "uGNI"
                                                                 : "MPI";
                         });

TEST(NQueensParallel, SpeedupGrowsWithPes) {
  NQueensConfig cfg;
  cfg.n = 12;
  cfg.threshold = 4;
  NQueensResult r4 = run_nqueens(opts(4), cfg);
  NQueensResult r32 = run_nqueens(opts(32), cfg);
  EXPECT_EQ(r4.solutions, known_solutions(12));
  EXPECT_EQ(r32.solutions, known_solutions(12));
  EXPECT_GT(r32.speedup, 2.0 * r4.speedup);
  EXPECT_LE(r32.speedup, 32.01);
}

TEST(NQueensParallel, UgniFasterThanMpiAtScale) {
  // The paper's headline N-Queens result: many tiny messages favor the
  // uGNI layer (Fig 11 / Table I).
  NQueensConfig cfg;
  cfg.n = 12;
  cfg.threshold = 4;
  NQueensResult ug = run_nqueens(opts(64, LayerKind::kUgni), cfg);
  NQueensResult mp = run_nqueens(opts(64, LayerKind::kMpi), cfg);
  EXPECT_EQ(ug.solutions, mp.solutions);
  EXPECT_LT(ug.elapsed, mp.elapsed);
}

/// Solves each leaf subtree on demand: the reference for the built table.
class PerLeafSolve final : public SubtreeCostModel {
 public:
  SolveResult subtree(int n, int row, std::uint32_t cols,
                      std::uint32_t diag_l,
                      std::uint32_t diag_r) const override {
    return solve(n, row, cols, diag_l, diag_r);
  }
  bool exact() const override { return true; }
};

TEST_P(NQueensBothLayers, BuiltTableRunMatchesPerLeafSolving) {
  NQueensConfig cfg;
  cfg.n = 12;
  cfg.threshold = 4;
  const NQueensResult table = run_nqueens(opts(24, GetParam()), cfg);
  const PerLeafSolve per_leaf;
  cfg.model = &per_leaf;
  const NQueensResult reference = run_nqueens(opts(24, GetParam()), cfg);
  EXPECT_EQ(table.elapsed, reference.elapsed);
  EXPECT_EQ(table.nodes, reference.nodes);
  EXPECT_EQ(table.tasks, reference.tasks);
  EXPECT_EQ(table.solutions, reference.solutions);
  EXPECT_EQ(table.solutions, known_solutions(12));
}

TEST(NQueensParallel, SampledModelRunsAndEstimates) {
  auto model = SampledModel::build(13, 4, 200);
  NQueensConfig cfg;
  cfg.n = 13;
  cfg.threshold = 4;
  cfg.model = model.get();
  NQueensResult r = run_nqueens(opts(16), cfg);
  double ratio = static_cast<double>(r.solutions) /
                 static_cast<double>(known_solutions(13));
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  EXPECT_GT(r.tasks, 500u);
}

TEST(NQueensParallel, DeterministicAcrossRuns) {
  NQueensConfig cfg;
  cfg.n = 9;
  cfg.threshold = 3;
  NQueensResult a = run_nqueens(opts(8), cfg);
  NQueensResult b = run_nqueens(opts(8), cfg);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.solutions, b.solutions);
}

TEST(NQueensParallel, TracerProducesUtilizationProfile) {
  trace::Tracer tracer(50'000);  // 50us bins
  NQueensConfig cfg;
  cfg.n = 11;
  cfg.threshold = 3;
  NQueensResult r = run_nqueens(opts(8), cfg, &tracer);
  EXPECT_EQ(r.solutions, known_solutions(11));
  EXPECT_GT(tracer.bins(), 0u);
  // Utilization percentages are sane and the run did useful work.
  EXPECT_GT(tracer.total_app_pct(), 10.0);
  EXPECT_LE(tracer.total_app_pct() + tracer.total_overhead_pct() +
                tracer.total_idle_pct(),
            100.5);
}

}  // namespace
}  // namespace ugnirt::apps::nqueens
