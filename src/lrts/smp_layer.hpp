// SMP-mode uGNI machine layer — the paper's §VII future work, built out.
//
// "Although optimized, the intra-node communication via POSIX shared
// memory is still quite slow due to memory copy.  We plan to investigate
// the SMP mode of CHARM++ on uGNI to further optimize the intra-node
// communication."
//
// In SMP mode one *process* spans a node: worker PEs share the node's
// address space and a single NIC driven by a dedicated communication
// thread (modeled as an independent actor with its own virtual-time
// cursor).  Consequences, all realized here:
//
//   * intra-node messages pass by pointer between workers — zero copies,
//     no pxshm, no NIC loopback;
//   * SMSG mailboxes exist per node *pair*, not per PE pair — mailbox
//     memory shrinks by (cores/node)^2;
//   * network work (protocol handling, CQ polling, rendezvous GETs) runs
//     on the comm thread, overlapping with worker compute — workers pay
//     only a lock-and-enqueue cost to send;
//   * the comm thread is a serialization point: at high message rates it
//     saturates before independent per-PE NICs would (the known SMP-mode
//     trade-off; see ablation_smp).
//
// The wire protocol is the one UgniLayer speaks (lrts/protocol.hpp): this
// layer is its routed policy.  The comm thread owns the node's endpoint
// and pays every protocol charge; deliveries land in the worker's
// scheduler queue.  Flow control and tenancy QoS apply as in UgniLayer,
// with the governor keyed by the receiving worker PE.  What only this
// layer has: the comm-thread actor (comm_wake/comm_step and the worker
// outq), the intra-node pointer handoff and the 4-byte worker-route
// prefix on data messages.  Persistent messages are not supported.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "converse/machine.hpp"
#include "lrts/layer_stats.hpp"
#include "lrts/protocol.hpp"

namespace ugnirt::lrts {

class SmpLayer final : public converse::MachineLayer,
                       private ProtocolCore<SmpLayer> {
 public:
  SmpLayer();
  ~SmpLayer() override;

  const char* name() const override { return "uGNI-SMP"; }

  void init_pe(converse::Pe& pe) override;
  void* alloc(sim::Context& ctx, converse::Pe& pe, std::size_t bytes) override;
  void free_msg(sim::Context& ctx, converse::Pe& pe, void* msg) override;
  void submit(sim::Context& ctx, converse::Pe& src, int dest_pe,
              converse::MsgView msg,
              const converse::SendOptions& opts) override;
  std::uint32_t recommended_batch_bytes(converse::Pe& src,
                                        int dest_pe) const override;
  void advance(sim::Context& ctx, converse::Pe& pe) override;
  bool has_backlog(const converse::Pe& pe) const override;

  /// Snapshot of this layer's registry-backed counters (zeros before the
  /// first init_pe binds them).
  LayerStats stats() const;

  void collect_metrics(trace::MetricsRegistry& reg) override;

  /// Mailbox memory across the job: grows with node pairs, not PE pairs.
  using ProtocolBase::total_mailbox_bytes;

  /// The injection governor (keyed by worker PE), or nullptr when flow
  /// control is disabled.
  flowcontrol::InjectionGovernor* governor() override {
    return governor_.get();
  }

 private:
  friend class ProtocolCore<SmpLayer>;
  struct NodeState;

  // ---- protocol policy (see lrts/protocol.hpp) ----
  static constexpr bool kRouted = true;
  void release(sim::Context& ctx, Endpoint& e, void* msg);
  /// No-op: comm_step re-arms the thread past a backlog's retry instant.
  void wake(Endpoint&, SimTime) {}
  void deliver(sim::Context& ctx, Endpoint& e, int pe, void* msg);
  void on_data(sim::Context& ctx, Endpoint& e, const void* bytes,
               SimTime arrival);

  NodeState& node_state(int node) {
    return *nodes_[static_cast<std::size_t>(node)];
  }
  void ensure_domain(converse::Machine& m);
  void comm_wake(NodeState& n, SimTime t);
  void comm_step(NodeState& n, SimTime t);

  std::vector<std::unique_ptr<NodeState>> nodes_;

  // Counters of the comm thread and the pointer handoff (the protocol's
  // own live in ProtocolBase).
  trace::Counter* c_intra_node_ptr_msgs_ = nullptr;
  trace::Counter* c_comm_thread_sends_ = nullptr;
  trace::Counter* c_comm_thread_busy_defers_ = nullptr;
};

}  // namespace ugnirt::lrts
