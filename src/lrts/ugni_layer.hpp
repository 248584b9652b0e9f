// The uGNI-based LRTS machine layer — the paper's primary contribution.
//
// Every PE owns its NIC endpoint: the protocol itself (SMSG with credit
// backlog, the GET rendezvous of Fig 5, governor admission, CQ recovery)
// lives in lrts/protocol.hpp, and this layer is its unrouted policy:
//
//   * charges land on the PE's own clock, and deliveries go straight into
//     its scheduler queue (Pe::enqueue);
//   * buffers come from the PE's pool (§IV-B, Fig 7b) or the modeled
//     malloc, and return there through free_msg.
//
// What only this layer has:
//
//   * Persistent messages (§IV-A, Fig 7a): the receiver pre-allocates a
//     registered landing buffer; sends become a single PUT followed by a
//     PERSISTENT_TAG notification: Tcost = Trdma + Tsmsg.
//   * Intra-node pxshm (§IV-C): POSIX-shared-memory style queues between
//     PEs of one node, in double-copy or sender-side single-copy mode;
//     disabled, intra-node traffic goes through the NIC (the "original"
//     curve of Fig 8c).
//   * MSGQ mode: small messages through the per-NIC shared queue instead
//     of per-pair mailboxes (the §II-B memory trade).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "converse/machine.hpp"
#include "lrts/layer_stats.hpp"
#include "lrts/protocol.hpp"

namespace ugnirt::lrts {

class UgniLayer final : public converse::MachineLayer,
                        private ProtocolCore<UgniLayer> {
 public:
  UgniLayer();
  ~UgniLayer() override;

  const char* name() const override { return "uGNI"; }

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

  converse::PersistentHandle create_persistent(
      sim::Context& ctx, converse::Pe& src, int dest_pe,
      std::uint32_t max_bytes) override;

  /// Snapshot of this layer's registry-backed counters (zeros before the
  /// first init_pe binds them).
  LayerStats stats() const;

  void collect_metrics(trace::MetricsRegistry& reg) override;

  /// Job-wide SMSG payload cap (depends on PE count; paper §III-C).
  using ProtocolBase::smsg_cap;
  /// Total SMSG mailbox memory committed across the job — the linear-in-
  /// peers cost of §II-B.
  using ProtocolBase::total_mailbox_bytes;

  /// The injection governor, or nullptr when flow control is disabled
  /// (the tenancy subsystem installs per-job QoS through it).
  flowcontrol::InjectionGovernor* governor() override {
    return governor_.get();
  }

 private:
  friend class ProtocolCore<UgniLayer>;
  struct PeState;
  struct NodeShm;

  // ---- protocol policy (see lrts/protocol.hpp) ----
  static constexpr bool kRouted = false;
  void release(sim::Context& ctx, Endpoint& e, void* msg);
  void wake(Endpoint& e, SimTime t);
  void deliver(sim::Context& ctx, Endpoint& e, int pe, void* msg);
  void on_data(sim::Context& ctx, Endpoint& e, const void* bytes,
               SimTime arrival);
  /// PERSISTENT_TAG: the PUT landed in a receiver-side channel buffer.
  void on_extra_tag(sim::Context& ctx, Endpoint& e, std::uint8_t tag,
                    const void* bytes, SimTime arrival);
  /// A persistent PUT completed locally.
  void on_extra_completion(sim::Context& ctx, Endpoint& e,
                           ugni::gni_post_descriptor_t* desc);

  PeState& state(converse::Pe& pe);
  PeState& state_of(int pe_id);

  void ensure_domain(converse::Machine& m);

  /// Single PUT + notification down a pre-negotiated channel (Fig 7a).
  void persistent_send(sim::Context& ctx, converse::Pe& src,
                       converse::PersistentHandle handle, std::uint32_t size,
                       void* msg);

  void pxshm_send(sim::Context& ctx, converse::Pe& src, int dest_pe,
                  std::uint32_t size, void* msg);
  void pxshm_poll(sim::Context& ctx, converse::Pe& pe);

  std::vector<PeState*> states_;  // borrowed; owned by Pe::layer_state
  std::vector<std::unique_ptr<NodeShm>> node_shm_;

  // Counters of the persistent and pxshm paths (the protocol's own live
  // in ProtocolBase).
  trace::Counter* c_persistent_puts_ = nullptr;
  trace::Counter* c_pxshm_msgs_ = nullptr;
};

}  // namespace ugnirt::lrts
