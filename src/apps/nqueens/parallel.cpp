#include "apps/nqueens/parallel.hpp"

#include <cassert>
#include <cstring>
#include <memory>
#include <vector>

#include "charm/charm.hpp"
#include "lrts/runtime.hpp"

namespace ugnirt::apps::nqueens {

namespace {

/// 56-byte task payload: with the 24-byte Converse envelope and the 8-byte
/// task head this makes each seed exactly 88 bytes on the wire.
struct TaskPayload {
  std::uint8_t n;
  std::uint8_t threshold;
  std::uint8_t depth;
  std::uint8_t pad0;
  std::uint32_t cols;
  std::uint32_t diag_l;
  std::uint32_t diag_r;
  std::uint8_t pad[40];
};
static_assert(sizeof(TaskPayload) == 56);

}  // namespace

NQueensResult run_nqueens(const converse::MachineOptions& options,
                          const NQueensConfig& config,
                          trace::Tracer* tracer) {
  // Solve the threshold subtrees before the machine exists, so the
  // table's build scratch is gone before the machine's memory peaks.
  std::unique_ptr<ExactModel> exact_model;
  if (!config.model) {
    exact_model = ExactModel::build(config.n, config.threshold);
  }
  const SubtreeCostModel& model =
      config.model ? *config.model : *exact_model;

  auto machine = lrts::make_machine(options.layer, options);
  if (tracer) {
    tracer->set_pe_count(options.pes);
    machine->set_tracer(tracer);
  }
  charm::Charm charm(*machine);

  const std::uint32_t all = (1u << config.n) - 1;

  std::vector<std::uint64_t> solutions(
      static_cast<std::size_t>(options.pes), 0);
  std::vector<std::uint64_t> nodes(static_cast<std::size_t>(options.pes), 0);
  std::uint64_t tasks_spawned = 0;

  NQueensResult result;

  int task_id = -1;
  task_id = charm.register_task([&](const void* payload, std::uint32_t len) {
    assert(len == sizeof(TaskPayload));
    (void)len;
    TaskPayload t;
    std::memcpy(&t, payload, sizeof(t));
    int pe = converse::CmiMyPe();

    if (t.depth >= t.threshold) {
      // Leaf: look up the subtree's work and solutions in the cost model
      // and charge the modeled sequential time.
      SolveResult r = model.subtree(t.n, t.depth, t.cols, t.diag_l, t.diag_r);
      converse::CmiChargeWork(static_cast<SimTime>(r.nodes) *
                              config.ns_per_node);
      solutions[static_cast<std::size_t>(pe)] += r.solutions;
      nodes[static_cast<std::size_t>(pe)] += r.nodes;
      return;
    }

    // Interior: expand one row, fire children at random PEs.
    nodes[static_cast<std::size_t>(pe)] += 1;
    converse::CmiChargeWork(config.ns_per_node);
    std::uint32_t free = all & ~(t.cols | t.diag_l | t.diag_r);
    while (free) {
      std::uint32_t bit = free & (0u - free);
      free ^= bit;
      TaskPayload child{};
      child.n = t.n;
      child.threshold = t.threshold;
      child.depth = static_cast<std::uint8_t>(t.depth + 1);
      child.cols = t.cols | bit;
      child.diag_l = ((t.diag_l | bit) << 1) & all;
      child.diag_r = (t.diag_r | bit) >> 1;
      ++tasks_spawned;
      charm.seed_task(task_id, &child, sizeof(child));
    }
  });

  SimTime t_start = 0;
  SimTime t_done = -1;
  machine->start(0, [&] {
    t_start = machine->current_pe().ctx().now();
    TaskPayload root{};
    root.n = static_cast<std::uint8_t>(config.n);
    root.threshold = static_cast<std::uint8_t>(config.threshold);
    root.depth = 0;
    ++tasks_spawned;
    charm.seed_task_to(0, task_id, &root, sizeof(root));
    charm.start_quiescence([&] {
      t_done = machine->current_pe().ctx().now();
    });
  });
  machine->run();
  assert(t_done >= 0 && "quiescence was never detected");

  for (int pe = 0; pe < options.pes; ++pe) {
    result.solutions += solutions[static_cast<std::size_t>(pe)];
    result.nodes += nodes[static_cast<std::size_t>(pe)];
  }
  result.tasks = tasks_spawned;
  result.elapsed = t_done - t_start;
  result.qd_waves = charm.qd_waves();
  double seq = static_cast<double>(result.nodes) *
               static_cast<double>(config.ns_per_node);
  result.speedup =
      result.elapsed > 0 ? seq / static_cast<double>(result.elapsed) : 0;
  if (tracer) tracer->finalize(t_done);
  return result;
}

}  // namespace ugnirt::apps::nqueens
