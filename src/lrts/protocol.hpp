// The uGNI machine-layer protocol, written once for both endpoint owners.
//
// The paper's machine layer speaks one protocol (§III-C, Fig 5): small
// messages go eagerly through SMSG mailboxes under per-channel credits,
// large ones through a GET rendezvous (INIT -> GET -> ACK) on pooled or
// registered buffers.  SMP mode (§VII) changes only who drives the NIC:
// each PE in UgniLayer, one communication thread per node in SmpLayer.
// That driver is the *endpoint owner*.  An Endpoint holds what the
// protocol keeps per owner (NIC, CQs, mempool, credit backlog, rendezvous
// tables, deferred GETs) and ProtocolCore runs it: SMSG sends with
// retry/backoff and starvation demotion, INIT/GET/ACK with the
// receiver's FMA-vs-BTE choice, governor admission, CQ draining with
// overrun recovery, span marks and the retry/fallback counters.
//
// The layer is the policy.  It derives from ProtocolCore<Layer> (static
// dispatch: no per-message virtual call) and supplies:
//
//   kRouted      true when an owner serves several PEs (SMP): endpoints
//                are keyed by node, a data message carries its worker PE
//                as a 4-byte prefix, and INIT names the receiving worker
//                instead of the sender;
//   release      free a buffer the wire no longer needs;
//   wake         make the owner progress again at a backlog retry instant;
//   deliver      hand a received message to its PE;
//   on_data      a kTagData arrival (copy out of the mailbox, deliver);
//   on_extra_tag, on_extra_completion
//                tags and local completions beyond the rendezvous protocol
//                (unrouted layers only).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "converse/machine.hpp"
#include "fault/retry.hpp"
#include "flowcontrol/flowcontrol.hpp"
#include "lrts/layer_stats.hpp"
#include "lrts/span_marks.hpp"
#include "mempool/mempool.hpp"
#include "trace/events.hpp"
#include "trace/spans.hpp"
#include "ugni/msgq.hpp"
#include "ugni/ugni.hpp"
#include "util/log.hpp"

namespace ugnirt::lrts {

// SMSG tags of the machine-layer protocol (paper Fig 5 / Fig 7).
inline constexpr std::uint8_t kTagData = 1;         // whole small message
inline constexpr std::uint8_t kTagInit = 2;         // INIT_TAG: rendezvous
inline constexpr std::uint8_t kTagAck = 3;          // ACK_TAG: sender may free
inline constexpr std::uint8_t kTagPersistData = 4;  // PERSISTENT_TAG (uGNI)

/// INIT_TAG payload: everything the receiver needs to GET the message.
struct InitCtrl {
  std::uint64_t send_id = 0;
  std::uint64_t addr = 0;
  ugni::gni_mem_handle_t hndl{};
  std::uint32_t size = 0;
  /// Unrouted: the sending PE.  Routed: the worker the message is for.
  std::int32_t pe = -1;
  std::uint32_t span = 0;  // lifecycle-span id (unrouted wire format only)
};
// The unrouted INIT is 48 B on the wire; the routed one stops before
// `span` at 40 B.
static_assert(sizeof(InitCtrl) == 48 && offsetof(InitCtrl, span) == 40);

struct AckCtrl {
  std::uint64_t send_id = 0;
};

/// The protocol state of one endpoint owner.  There is no per-peer map:
/// the NIC's peer table, filled lazily by ugni::Nic::get_or_connect, is
/// the single source of truth for endpoints.
struct Endpoint {
  int pe = -1;  // the owning PE; -1 for a node's communication thread
  int node = -1;
  ugni::gni_nic_handle_t nic = nullptr;
  ugni::gni_cq_handle_t rx_cq = nullptr;  // SMSG arrivals
  ugni::gni_cq_handle_t tx_cq = nullptr;  // FMA/BTE local completions
  std::unique_ptr<mempool::MemPool> pool;  // null when use_mempool = false

  // In-flight rendezvous sends: waiting for ACK_TAG.
  struct LargeSend {
    void* msg = nullptr;
    ugni::gni_mem_handle_t hndl{};
    bool registered = false;  // true when we must deregister on ACK
  };
  std::unordered_map<std::uint64_t, LargeSend> sends;
  std::uint64_t next_send_id = 1;

  // In-flight rendezvous receives: GET posted (or deferred), waiting for
  // its completion.
  struct LargeRecv {
    void* buf = nullptr;
    std::unique_ptr<ugni::gni_post_descriptor_t> desc;
    std::uint64_t send_id = 0;
    std::int32_t peer = -1;  // the sender's endpoint instance
    std::int32_t pe = -1;    // where the message lands; the governor key
    std::uint32_t span = 0;  // lifecycle-span id from the INIT control
    bool registered = false;
    ugni::gni_mem_handle_t local_hndl{};
  };
  std::unordered_map<std::uint64_t, LargeRecv> recvs;
  std::uint64_t next_recv_id = 1;

  // Credit-stalled SMSG sends, flushed in order.
  struct Pending {
    std::int32_t peer = -1;
    std::int32_t pe = -1;  // destination PE (the route of routed data)
    std::uint8_t tag = 0;
    std::vector<std::uint8_t> ctrl;  // control payload (ctrl tags)
    void* msg = nullptr;             // data payload (kTagData), owned
  };
  std::deque<Pending> backlog;
  int backlog_attempts = 0;      // consecutive failed flush attempts
  SimTime backlog_retry_at = 0;  // no flush retry before this instant

  // Rendezvous GETs admitted into `recvs` but deferred by the injection
  // governor (AIMD window full).
  std::deque<std::uint64_t> deferred_gets;

  /// Deferred work the owner still has to progress.
  bool stalled() const { return !backlog.empty() || !deferred_gets.empty(); }

  Endpoint() = default;
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;
  ~Endpoint();  // frees data messages still queued in the backlog
};

/// The non-template half of the core: machine bindings, counters, NIC
/// setup and the helpers that need no layer hook.
class ProtocolBase {
 public:
  /// Job-wide SMSG payload cap (depends on the endpoint count; §III-C).
  std::uint32_t smsg_cap() const { return smsg_cap_; }

  /// SMSG mailbox memory committed across the job.
  std::uint64_t total_mailbox_bytes() const;

 protected:
  /// Bind to the machine: counters (rendezvous GETs under
  /// `rendezvous_gets_key`), retry policy, governor, uGNI domain.
  void bind(converse::Machine& m, std::uint32_t smsg_cap,
            const char* rendezvous_gets_key);

  /// Attach `e`'s NIC as instance `inst` on `node` with both CQs and the
  /// SMSG mailbox geometry; `notify` runs on every CQ push and credit
  /// return.
  void attach(Endpoint& e, int inst, int node,
              const std::function<void(SimTime)>& notify);

  /// Endpoint to `peer` via ugni::Nic::get_or_connect, which owns channel
  /// creation and its first-touch cost; counts the two mailbox
  /// registrations when a channel is established.
  ugni::gni_ep_handle_t connect(Endpoint& e, int peer);

  /// A message buffer from `e`'s pool, or from the modeled malloc when
  /// there is no pool or it cannot grow (counted as a heap fallback,
  /// traced against `fallback_peer`).
  void* alloc_buffer(sim::Context& ctx, Endpoint& e, std::size_t bytes,
                     int fallback_peer, bool* pooled = nullptr);
  /// Return an alloc_buffer() buffer to the pool its header names (any
  /// endpoint's: pxshm single copy frees buffers a peer's pool lent), or
  /// a heap-fallback buffer to the modeled heap.
  void free_buffer(sim::Context& ctx, void* msg);

  /// GNI_MemRegister with backoff on transient resource exhaustion.
  void register_buffer(sim::Context& ctx, Endpoint& e, const void* buf,
                       std::uint64_t len, ugni::gni_mem_handle_t* hndl);
  /// GNI_PostFma / GNI_PostRdma with backoff on transaction errors.
  void post(sim::Context& ctx, ugni::gni_ep_handle_t ep,
            ugni::gni_post_descriptor_t* desc);

  /// Post the (fully prepared) rendezvous GET `rid`.
  void issue_get(sim::Context& ctx, Endpoint& e, std::uint64_t rid);

  /// Poll `cq` dry, handing each event to `on_event`.  A CQ overrun
  /// (ERROR_RESOURCE) is recovered and counted, not latched dead.
  template <typename OnEvent>
  void drain_cq(ugni::gni_cq_handle_t cq, OnEvent on_event);

  /// Shared counters of the LayerStats snapshot.
  LayerStats core_stats() const;

  /// Domain, governor and job-wide "mempool.*" metrics over any range of
  /// (possibly null) endpoint holders.
  template <typename Range>
  void collect_core_metrics(trace::MetricsRegistry& reg,
                            const Range& owners) const;

  converse::Machine* machine_ = nullptr;
  std::unique_ptr<ugni::Domain> domain_;
  std::uint32_t smsg_cap_ = 1024;
  bool use_msgq_ = false;  // SMSG over the per-NIC MSGQ (uGNI only)
  fault::RetryPolicy retry_{};
  /// AIMD injection pacing + adaptive thresholds; null when flow control
  /// is off (the hot paths then cost exactly one pointer test).
  std::unique_ptr<flowcontrol::InjectionGovernor> governor_;

  // Hot-path counters bound to the machine registry (std::map node
  // addresses are stable, so the pointers stay valid).
  trace::Counter* c_smsg_sends_ = nullptr;
  trace::Counter* c_rendezvous_gets_ = nullptr;
  trace::Counter* c_credit_stalls_ = nullptr;
  trace::Counter* c_registrations_ = nullptr;
  trace::Counter* c_retry_smsg_ = nullptr;
  trace::Counter* c_retry_post_ = nullptr;
  trace::Counter* c_retry_mem_register_ = nullptr;
  trace::Counter* c_retry_escalations_ = nullptr;
  trace::Counter* c_fallback_rendezvous_ = nullptr;
  trace::Counter* c_fallback_heap_ = nullptr;
  trace::Counter* c_cq_recovered_ = nullptr;
};

template <class Layer>
class ProtocolCore : public ProtocolBase {
 protected:
  /// Send a tagged SMSG (control or data) from `e` to endpoint `peer` for
  /// PE `pe`, queueing on credit exhaustion.  `owned_msg` (data only) is
  /// released once the mailbox holds a copy.
  void smsg_send(sim::Context& ctx, Endpoint& e, int peer, int pe,
                 std::uint8_t tag, const void* bytes, std::uint32_t len,
                 void* owned_msg);
  void flush_backlog(sim::Context& ctx, Endpoint& e);
  /// Start the rendezvous protocol for `msg` (register or pool-resolve,
  /// then send/queue the INIT control message).
  void begin_rendezvous(sim::Context& ctx, Endpoint& e, int peer, int pe,
                        std::uint32_t size, void* msg);

  /// Drain SMSG arrivals / FMA-BTE completions.
  void drain_rx(sim::Context& ctx, Endpoint& e);
  void drain_tx(sim::Context& ctx, Endpoint& e);
  /// Re-try governor admission for deferred GETs as completions free
  /// window slots.
  void drain_deferred_gets(sim::Context& ctx, Endpoint& e);

  /// Protocol demux for a small message that arrived via SMSG or MSGQ
  /// from endpoint `src_inst` at virtual instant `arrival`.
  void handle_protocol_msg(sim::Context& ctx, Endpoint& e, int src_inst,
                           std::uint8_t tag, const void* bytes,
                           SimTime arrival);

 private:
  static constexpr std::uint32_t init_bytes() {
    return Layer::kRouted ? offsetof(InitCtrl, span) : sizeof(InitCtrl);
  }
  Layer& layer() { return static_cast<Layer&>(*this); }
  ugni::gni_return_t send_wire(Endpoint& e, ugni::gni_ep_handle_t ep,
                               int peer, int pe, std::uint8_t tag,
                               const void* bytes, std::uint32_t len);
  /// A send left the owner: count it and release its data buffer.
  void sent(sim::Context& ctx, Endpoint& e, void* msg);
  /// Convert the backlog's front kTagData entry to a rendezvous INIT
  /// (credit-free path) after sustained SMSG starvation.
  bool demote_front_to_rendezvous(sim::Context& ctx, Endpoint& e);
  void on_init(sim::Context& ctx, Endpoint& e, int src_inst,
               const void* bytes, SimTime arrival);
  void on_ack(sim::Context& ctx, Endpoint& e, const void* bytes);
  void on_completion(sim::Context& ctx, Endpoint& e,
                     const ugni::gni_cq_entry_t& ev);
};

// ---------------------------------------------------------------------------
// ProtocolBase inline members (per-message paths) and templates
// ---------------------------------------------------------------------------

inline void ProtocolBase::free_buffer(sim::Context& ctx, void* msg) {
  if (mempool::MemPool* pool = mempool::MemPool::pool_of(msg)) {
    pool->free(msg);
    return;
  }
  ctx.charge(machine_->options().mc.free_base_ns);
  mempool::MemPool::free_heap(msg);
}

template <typename OnEvent>
void ProtocolBase::drain_cq(ugni::gni_cq_handle_t cq, OnEvent on_event) {
  for (;;) {
    ugni::gni_cq_entry_t ev;
    ugni::gni_return_t rc = ugni::GNI_CqGetEvent(cq, &ev);
    if (rc == ugni::GNI_RC_ERROR_RESOURCE) {
      std::uint32_t resynthesized = 0;
      ugni::check(ugni::GNI_CqErrorRecover(cq, &resynthesized),
                  "GNI_CqErrorRecover");
      c_cq_recovered_->inc();
      continue;
    }
    if (rc != ugni::GNI_RC_SUCCESS) return;
    on_event(ev);
  }
}

template <typename Range>
void ProtocolBase::collect_core_metrics(trace::MetricsRegistry& reg,
                                        const Range& owners) const {
  if (domain_) domain_->collect_metrics(reg);
  if (governor_) governor_->collect_metrics(reg);
  mempool::MemPoolStats pool;
  for (const auto& o : owners) {
    if (!o || !o->pool) continue;
    const mempool::MemPoolStats& p = o->pool->stats();
    pool.allocs += p.allocs;
    pool.frees += p.frees;
    pool.expansions += p.expansions;
    pool.slab_bytes += p.slab_bytes;
    pool.outstanding += p.outstanding;
    pool.freelist_hits += p.freelist_hits;
    pool.bin_lookups += p.bin_lookups;
  }
  reg.counter("mempool.allocs").set(pool.allocs);
  reg.counter("mempool.frees").set(pool.frees);
  reg.counter("mempool.expansions").set(pool.expansions);
  reg.counter("mempool.freelist_hits").set(pool.freelist_hits);
  reg.counter("mempool.bin_lookups").set(pool.bin_lookups);
  reg.gauge("mempool.slab_bytes").set(static_cast<double>(pool.slab_bytes));
  reg.gauge("mempool.outstanding").set(static_cast<double>(pool.outstanding));
}

// ---------------------------------------------------------------------------
// SMSG with backlog
// ---------------------------------------------------------------------------

template <class Layer>
ugni::gni_return_t ProtocolCore<Layer>::send_wire(
    Endpoint& e, ugni::gni_ep_handle_t ep, int peer, int pe,
    std::uint8_t tag, const void* bytes, std::uint32_t len) {
  if (use_msgq_) {
    return ugni::GNI_MsgqSend(e.nic, peer, bytes, len, nullptr, 0, tag);
  }
  if (Layer::kRouted && tag == kTagData) {
    // The remote comm thread must know which worker to hand off to: the
    // 4-byte worker PE rides ahead of the Converse envelope.
    const std::int32_t route = pe;
    return ugni::GNI_SmsgSendWTag(ep, &route, sizeof(route), bytes, len, 0,
                                  tag);
  }
  return ugni::GNI_SmsgSendWTag(ep, bytes, len, nullptr, 0, 0, tag);
}

template <class Layer>
void ProtocolCore<Layer>::sent(sim::Context& ctx, Endpoint& e, void* msg) {
  c_smsg_sends_->inc();
  if (!msg) return;
  if (trace::spans_enabled()) {
    mark_msg_spans(msg, trace::Stage::kTransportPost, e.pe, ctx.now());
  }
  layer().release(ctx, e, msg);
}

template <class Layer>
void ProtocolCore<Layer>::smsg_send(sim::Context& ctx, Endpoint& e,
                                    int peer, int pe, std::uint8_t tag,
                                    const void* bytes, std::uint32_t len,
                                    void* owned_msg) {
  ugni::gni_ep_handle_t ep = use_msgq_ ? nullptr : connect(e, peer);
  if (e.backlog.empty()) {
    ugni::gni_return_t rc = send_wire(e, ep, peer, pe, tag, bytes, len);
    if (rc == ugni::GNI_RC_SUCCESS) {
      sent(ctx, e, owned_msg);
      return;
    }
    // NOT_DONE: out of credits or a starvation window; ERROR_RESOURCE: an
    // injected transient send failure.  Both queue and retry from
    // flush_backlog; anything else is a contract violation.
    ugni::check(rc, "GNI_SmsgSendWTag", ugni::GNI_RC_NOT_DONE,
                ugni::GNI_RC_ERROR_RESOURCE);
  }
  // Out of credits (or draining in order behind earlier stalls): queue.
  c_credit_stalls_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kCreditStall, ctx.now(), 0, peer, len);
  }
  UGNIRT_TRACELOG("smsg credit stall -> " << peer << " (" << len
                                          << " B queued)");
  Endpoint::Pending p;
  p.peer = peer;
  p.pe = pe;
  p.tag = tag;
  if (owned_msg) {
    p.msg = owned_msg;  // payload lives in the message itself
  } else {
    p.ctrl.assign(static_cast<const std::uint8_t*>(bytes),
                  static_cast<const std::uint8_t*>(bytes) + len);
  }
  e.backlog.push_back(std::move(p));
}

template <class Layer>
void ProtocolCore<Layer>::flush_backlog(sim::Context& ctx, Endpoint& e) {
  if (e.backlog.empty()) return;
  // With a fault plan active the backlog retries under the RetryPolicy:
  // stalls may be injected starvation windows that consume no credits, so
  // the credit-return notify alone cannot be relied on to wake us.
  // Without faults, stalls are genuine credit exhaustion and the notify
  // is the precise (and cheapest) wake.
  const bool faulty = machine_->fault_injector() != nullptr;
  if (faulty && ctx.now() < e.backlog_retry_at) {
    layer().wake(e, e.backlog_retry_at);
    return;
  }
  while (!e.backlog.empty()) {
    Endpoint::Pending& p = e.backlog.front();
    const void* bytes = p.msg ? p.msg : p.ctrl.data();
    const std::uint32_t len =
        p.msg ? converse::header_of(p.msg)->size
              : static_cast<std::uint32_t>(p.ctrl.size());
    ugni::gni_ep_handle_t ep = use_msgq_ ? nullptr : connect(e, p.peer);
    ugni::gni_return_t rc = send_wire(e, ep, p.peer, p.pe, p.tag, bytes, len);
    if (rc != ugni::GNI_RC_SUCCESS) {  // still stalled
      ugni::check(rc, "GNI_SmsgSendWTag (backlog)", ugni::GNI_RC_NOT_DONE,
                  ugni::GNI_RC_ERROR_RESOURCE);
      if (!faulty) return;
      ++e.backlog_attempts;
      c_retry_smsg_->inc();
      if (e.backlog_attempts == retry_.max_retries + 1) {
        c_retry_escalations_->inc();
        UGNIRT_WARN((e.pe >= 0 ? "pe " : "node ")
                    << (e.pe >= 0 ? e.pe : e.node)
                    << ": smsg backlog still stalled after "
                    << retry_.max_retries
                    << " retries; continuing at capped backoff");
      }
      // After sustained starvation, stop competing for SMSG credits:
      // demote the stalled data message to the credit-free rendezvous
      // path (large-message protocol, any size).
      if (e.backlog_attempts >= retry_.demote_after &&
          demote_front_to_rendezvous(ctx, e)) {
        e.backlog_attempts = 0;
        continue;
      }
      const SimTime pause = retry_.backoff_for(e.backlog_attempts);
      if (trace::enabled()) {
        trace::emit(trace::Ev::kRetryBackoff, ctx.now(), pause, p.pe,
                    static_cast<std::uint32_t>(e.backlog_attempts));
      }
      e.backlog_retry_at = ctx.now() + pause;
      layer().wake(e, e.backlog_retry_at);
      return;
    }
    e.backlog_attempts = 0;
    sent(ctx, e, p.msg);
    e.backlog.pop_front();
  }
}

template <class Layer>
bool ProtocolCore<Layer>::demote_front_to_rendezvous(sim::Context& ctx,
                                                     Endpoint& e) {
  Endpoint::Pending& p = e.backlog.front();
  // Only whole data messages can demote; control messages ARE the
  // rendezvous protocol and must stay on the SMSG path.
  if (!p.msg || p.tag != kTagData) return false;
  void* msg = p.msg;
  const int peer = p.peer;
  const int pe = p.pe;
  const std::uint32_t size = converse::header_of(msg)->size;
  e.backlog.pop_front();
  c_fallback_rendezvous_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kFallback, ctx.now(), 0, pe, size);
  }
  UGNIRT_TRACELOG("smsg starvation: demoting " << size << " B -> pe " << pe
                                               << " to rendezvous");
  begin_rendezvous(ctx, e, peer, pe, size, msg);
  return true;
}

// ---------------------------------------------------------------------------
// Rendezvous (Fig 5)
// ---------------------------------------------------------------------------

template <class Layer>
void ProtocolCore<Layer>::begin_rendezvous(sim::Context& ctx, Endpoint& e,
                                           int peer, int pe,
                                           std::uint32_t size, void* msg) {
  Endpoint::LargeSend ls;
  ls.msg = msg;
  if (e.pool && mempool::MemPool::pool_of(msg) == e.pool.get()) {
    ls.hndl = e.pool->handle_of(msg);
  } else {
    // Not in this NIC's pool (no pool, a heap-fallback buffer, or one a
    // peer's pool lent): register it, and deregister when the ACK arrives.
    register_buffer(ctx, e, msg, size, &ls.hndl);
    ls.registered = true;
    c_registrations_->inc();
  }
  const std::uint64_t id = e.next_send_id++;
  e.sends.emplace(id, ls);
  if (trace::enabled()) {
    trace::emit(trace::Ev::kRdvInit, ctx.now(), 0, pe, size);
  }

  InitCtrl ctrl;
  ctrl.send_id = id;
  ctrl.addr = reinterpret_cast<std::uint64_t>(msg);
  ctrl.hndl = ls.hndl;
  ctrl.size = size;
  ctrl.pe = Layer::kRouted ? pe : e.pe;
  ctrl.span = converse::header_of(msg)->span_id;
  smsg_send(ctx, e, peer, pe, kTagInit, &ctrl, init_bytes(), nullptr);
}

template <class Layer>
void ProtocolCore<Layer>::on_init(sim::Context& ctx, Endpoint& e,
                                  int src_inst, const void* bytes,
                                  SimTime arrival) {
  const auto& mc = machine_->options().mc;
  InitCtrl ctrl;
  std::memcpy(static_cast<void*>(&ctrl), bytes, init_bytes());
  // `peer` is the endpoint to GET from and ACK; `pe` receives the message.
  const int peer = Layer::kRouted ? src_inst : ctrl.pe;
  const int pe = Layer::kRouted ? ctrl.pe : e.pe;
  if (trace::spans_enabled() && ctrl.span != 0) {
    trace::span_mark(ctrl.span, trace::Stage::kRxArrive, pe, arrival);
  }

  Endpoint::LargeRecv lr;
  lr.send_id = ctrl.send_id;
  lr.peer = peer;
  lr.pe = pe;
  lr.span = ctrl.span;
  bool pooled = false;
  lr.buf = alloc_buffer(ctx, e, ctrl.size, ctrl.pe, &pooled);
  if (pooled) {
    lr.local_hndl = e.pool->handle_of(lr.buf);
  } else {
    register_buffer(ctx, e, lr.buf, ctrl.size, &lr.local_hndl);
    lr.registered = true;
    c_registrations_->inc();
  }
  lr.desc = std::make_unique<ugni::gni_post_descriptor_t>();
  // A hot NIC switches to the offloaded BTE engine earlier, freeing the
  // CPU to drain completions (stock threshold when flow is off).
  const std::uint32_t rdma_thr =
      governor_ ? governor_->rdma_threshold(mc.rdma_threshold, e.node)
                : mc.rdma_threshold;
  lr.desc->type = ctrl.size < rdma_thr ? ugni::GNI_POST_FMA_GET
                                       : ugni::GNI_POST_RDMA_GET;
  lr.desc->local_addr = reinterpret_cast<std::uint64_t>(lr.buf);
  lr.desc->local_mem_hndl = lr.local_hndl;
  lr.desc->remote_addr = ctrl.addr;
  lr.desc->remote_mem_hndl = ctrl.hndl;
  lr.desc->length = ctrl.size;
  const std::uint64_t rid = e.next_recv_id++;
  lr.desc->post_id = rid;
  e.recvs.emplace(rid, std::move(lr));

  // AIMD admission: a full window defers the GET (the sender's buffer
  // stays pinned behind the INIT/ACK protocol, so deferral is safe);
  // drain_deferred_gets re-admits as completions free slots.
  if (governor_ && !governor_->try_acquire(pe, peer, ctrl.size, ctx.now())) {
    if (trace::spans_enabled() && ctrl.span != 0) {
      trace::span_mark(ctrl.span, trace::Stage::kGovDefer, pe, ctx.now());
    }
    e.deferred_gets.push_back(rid);
    return;
  }
  if (governor_ && trace::spans_enabled() && ctrl.span != 0) {
    trace::span_mark(ctrl.span, trace::Stage::kGovAdmit, pe, ctx.now());
  }
  issue_get(ctx, e, rid);
}

template <class Layer>
void ProtocolCore<Layer>::on_ack(sim::Context& ctx, Endpoint& e,
                                 const void* bytes) {
  AckCtrl ack;
  std::memcpy(&ack, bytes, sizeof(ack));
  auto it = e.sends.find(ack.send_id);
  assert(it != e.sends.end());
  Endpoint::LargeSend& ls = it->second;
  if (ls.registered) ugni::GNI_MemDeregister(e.nic, &ls.hndl);
  layer().release(ctx, e, ls.msg);
  e.sends.erase(it);
}

template <class Layer>
void ProtocolCore<Layer>::drain_deferred_gets(sim::Context& ctx,
                                              Endpoint& e) {
  std::deque<std::uint64_t>& q = e.deferred_gets;
  if (q.empty()) return;
  // The span gate is run-constant; test it once per pass.
  const bool spans = trace::spans_enabled();
  // Tenancy QoS weighted admission: a bulk/scavenger PE re-admits only
  // while this pass has re-admitted fewer than its `quota` GETs (0 =
  // stock unbounded drain), so a storm's backlog trickles out instead of
  // bursting the moment the window opens.  GETs stay FIFO per PE: an
  // unrouted owner is one PE, so its first refusal ends the pass; a
  // routed owner skips a refused worker's GETs and keeps draining the
  // others', so one job's full window cannot block another's.
  std::uint32_t admitted = 0;
  std::size_t kept = 0;
  std::size_t i = 0;
  for (; i < q.size(); ++i) {
    const std::uint64_t rid = q[i];
    Endpoint::LargeRecv& lr = e.recvs.at(rid);
    const std::uint32_t quota = governor_->drain_quota(lr.pe);
    // would_admit first: drain retries must not inflate the stall count
    // (each deferral already recorded its kInjectionStall at INIT time).
    if ((quota != 0 && admitted >= quota) ||
        !governor_->would_admit(lr.pe)) {
      if (!Layer::kRouted) break;
      q[kept++] = rid;
      continue;
    }
    governor_->try_acquire(lr.pe, lr.peer,
                           static_cast<std::uint32_t>(lr.desc->length),
                           ctx.now());
    if (spans && lr.span != 0) {
      trace::span_mark(lr.span, trace::Stage::kGovAdmit, lr.pe, ctx.now());
    }
    issue_get(ctx, e, rid);
    ++admitted;
  }
  q.erase(q.begin() + static_cast<std::ptrdiff_t>(kept),
          q.begin() + static_cast<std::ptrdiff_t>(i));
}

// ---------------------------------------------------------------------------
// Progress: CQ draining and the protocol demux
// ---------------------------------------------------------------------------

template <class Layer>
void ProtocolCore<Layer>::drain_rx(sim::Context& ctx, Endpoint& e) {
  drain_cq(e.rx_cq, [&](const ugni::gni_cq_entry_t& ev) {
    if (ev.type != ugni::CqEventType::kSmsg) return;
    ugni::gni_ep_handle_t ep = e.nic->ep_for_peer(ev.source_inst);
    assert(ep && "SMSG event from a peer with no endpoint");
    void* data = nullptr;
    std::uint8_t tag = 0;
    SimTime arrival = ctx.now();
    if (ugni::GNI_SmsgGetNextWTag(ep, &data, &tag, &arrival) !=
        ugni::GNI_RC_SUCCESS) {
      return;
    }
    handle_protocol_msg(ctx, e, ev.source_inst, tag, data, arrival);
    ugni::GNI_SmsgRelease(ep);
  });
}

template <class Layer>
void ProtocolCore<Layer>::drain_tx(sim::Context& ctx, Endpoint& e) {
  drain_cq(e.tx_cq, [&](const ugni::gni_cq_entry_t& ev) {
    if (ev.type == ugni::CqEventType::kPostLocal) on_completion(ctx, e, ev);
  });
}

template <class Layer>
void ProtocolCore<Layer>::handle_protocol_msg(sim::Context& ctx, Endpoint& e,
                                              int src_inst, std::uint8_t tag,
                                              const void* bytes,
                                              SimTime arrival) {
  switch (tag) {
    case kTagData:
      layer().on_data(ctx, e, bytes, arrival);
      return;
    case kTagInit:
      on_init(ctx, e, src_inst, bytes, arrival);
      return;
    case kTagAck:
      on_ack(ctx, e, bytes);
      return;
    default:
      if constexpr (Layer::kRouted) {
        assert(false && "unknown SMSG tag");
      } else {
        layer().on_extra_tag(ctx, e, tag, bytes, arrival);
      }
  }
}

template <class Layer>
void ProtocolCore<Layer>::on_completion(sim::Context& ctx, Endpoint& e,
                                        const ugni::gni_cq_entry_t& ev) {
  ugni::gni_post_descriptor_t* desc = nullptr;
  ugni::check(ugni::GNI_GetCompleted(e.tx_cq, ev, &desc),
              "GNI_GetCompleted");
  auto it = e.recvs.find(desc->post_id);
  if (it == e.recvs.end()) {
    if constexpr (Layer::kRouted) {
      assert(false && "completion for unknown descriptor");
    } else {
      layer().on_extra_completion(ctx, e, desc);
    }
    return;
  }
  // Our GET finished: ACK the sender, deliver the message (Fig 5).
  Endpoint::LargeRecv& lr = it->second;
  if (governor_) governor_->on_complete(lr.pe, e.node, ctx.now());
  if (trace::spans_enabled() && lr.span != 0) {
    trace::span_mark(lr.span, trace::Stage::kCqComplete, lr.pe, ctx.now());
  }
  AckCtrl ack{lr.send_id};
  if (trace::enabled()) {
    trace::emit(trace::Ev::kRdvAck, ctx.now(), 0, lr.peer,
                static_cast<std::uint32_t>(desc->length));
  }
  // A routed ACK names the first PE of the sender's node: only the node
  // matters, and the ACK carries no route prefix.
  const int ack_pe =
      Layer::kRouted
          ? lr.peer * machine_->options().effective_pes_per_node()
          : lr.peer;
  smsg_send(ctx, e, lr.peer, ack_pe, kTagAck, &ack, sizeof(ack), nullptr);
  if (lr.registered) ugni::GNI_MemDeregister(e.nic, &lr.local_hndl);
  layer().deliver(ctx, e, lr.pe, lr.buf);
  e.recvs.erase(it);
}

}  // namespace ugnirt::lrts
