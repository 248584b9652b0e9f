// Parallel N-Queens over the CHARM++ layer (paper §V-C).
//
// Task-based state-space search in the ParSSSE style: a task owns a partial
// placement; above the threshold depth it expands children and fires them
// as seeds at random PEs (the seed balancer); at the threshold it solves
// its subtree sequentially.  Completion is detected by quiescence
// detection, after which solution counts are totaled.
//
// Each task message is 88 bytes — the size the paper reports ("the size of
// messages are quite small (around 88 bytes), but the number of messages is
// large").
#pragma once

#include <cstdint>

#include "apps/nqueens/subtree_model.hpp"
#include "converse/machine.hpp"
#include "trace/tracer.hpp"

namespace ugnirt::apps::nqueens {

struct NQueensConfig {
  int n = 12;
  int threshold = 4;
  /// Sequential node cost; 13 ns/node calibrates the 2.1 GHz Magny-Cours
  /// running ParSSSE against the paper's Table I absolute times.
  SimTime ns_per_node = 13;
  /// Cost model for threshold subtrees; nullptr = an ExactModel built for
  /// this run (n <= 21).
  const SubtreeCostModel* model = nullptr;
};

struct NQueensResult {
  std::uint64_t solutions = 0;
  std::uint64_t nodes = 0;
  std::uint64_t tasks = 0;       // task messages spawned
  SimTime elapsed = 0;           // virtual time to quiescence
  int qd_waves = 0;
  double speedup = 0;            // vs nodes * ns_per_node on one core
};

/// Run the search on a machine built from `options`; optionally tracing
/// per-bin utilization into `tracer` (for the Figure 12 profiles).
NQueensResult run_nqueens(const converse::MachineOptions& options,
                          const NQueensConfig& config,
                          trace::Tracer* tracer = nullptr);

}  // namespace ugnirt::apps::nqueens
