// Sequential discrete-event engine with deterministic replay.
//
// Everything in the reproduction runs on virtual time: simulated PEs,
// the Gemini NIC model, and the runtime protocol state machines schedule
// callbacks here.  The engine holds ONE pending-event set (a
// sim::EventQueue — the binary-heap oracle or the O(1) calendar queue)
// and executes it on one thread in global (time, seq) order: events with
// equal timestamps fire in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes every run bit-reproducible.
// That is the paper's runtime in miniature — one message-driven loop per
// PE, interleaved here in one replay order.
//
// The hot path is allocation-free: a slab-recycling EventArena
// (event_arena.hpp) owns EventRecords — a SmallFn callback plus
// cancellation state — and the queue moves 24-byte POD Events that point
// into it.  schedule_at acquires a record from the freelist, pop releases
// it back; the heap is touched only when the pending set grows past
// every slab ever carved.
//
// Scheduling-facing code never sees this class: protocol state machines
// hold the concrete sim::Scheduler handle (scheduler.hpp) minted by
// scheduler().
#pragma once

#include <cstdint>
#include <memory>

#include "sim/event_arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/small_fn.hpp"
#include "util/units.hpp"

namespace ugnirt::sim {

/// Explicit engine construction knobs.  There is deliberately no
/// env-sniffing default Engine constructor: a default-constructed
/// EngineOptions is the hermetic heap-backed engine, and the one place
/// that reads the environment is from_env() — call sites choose which
/// they mean.
struct EngineOptions {
  /// Pending-set backend (UGNIRT_SIM_QUEUE).
  QueueKind queue = QueueKind::kHeap;

  /// Options with UGNIRT_SIM_QUEUE applied over the defaults.
  static EngineOptions from_env();
};

class Engine final {
 public:
  explicit Engine(const EngineOptions& options);
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- scheduling surface ----
  /// Virtual time of the last executed event (or the run_until horizon).
  SimTime now() const { return now_; }
  /// Schedule `fn` at absolute virtual time `when` (clamped to now()).
  EventHandle schedule_at(SimTime when, SmallFn fn);
  EventHandle schedule_after(SimTime delay, SmallFn fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  /// The Scheduler handle protocol code holds: what Machine::scheduler()
  /// and the network model hand out.
  Scheduler& scheduler() { return sched_; }

  // ---- driving ----
  /// Run until the pending set drains or stop() is called.
  /// Returns the number of events executed.
  std::uint64_t run() { return run_until(kNever); }
  /// Run until virtual time exceeds `until` (events at exactly `until`
  /// run).
  std::uint64_t run_until(SimTime until);
  /// Request run()/run_until() to return after the current event.
  void stop() { stopped_ = true; }

  // ---- introspection ----
  bool empty() const { return pending() == 0; }
  /// Live scheduled events only: cancelled-but-unpopped tombstones are
  /// excluded (they are not pending work — idle-flush heuristics must not
  /// see them).
  std::size_t pending() const {
    return *live_ > 0 ? static_cast<std::size_t>(*live_) : 0;
  }
  std::uint64_t executed() const { return executed_; }
  QueueKind queue_kind() const { return queue_kind_; }
  /// Arena occupancy, for tests and the micro bench.
  const EventArena& arena() const { return arena_; }

 private:
  bool pop_and_run();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  bool stopped_ = false;
  QueueKind queue_kind_;
  std::unique_ptr<EventQueue> queue_;
  // Live-event count.  Doubles as the EventHandle liveness guard: handles
  // hold it weakly, so one that outlives the engine never touches the
  // (freed) record.  Declared before the arena so it outlives the
  // callbacks the slabs destroy at teardown.
  std::shared_ptr<std::int64_t> live_;
  EventArena arena_;
  Scheduler sched_;
};

}  // namespace ugnirt::sim
