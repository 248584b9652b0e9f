#include "lrts/smp_layer.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "lrts/pool_metrics.hpp"
#include "lrts/span_marks.hpp"
#include "trace/events.hpp"
#include "trace/spans.hpp"
#include "util/log.hpp"

namespace ugnirt::lrts {

using converse::CmiMsgHeader;
using converse::header_of;

namespace {

// Protocol tags, mirroring the non-SMP layer's rendezvous (paper Fig 5).
constexpr std::uint8_t kTagData = 1;
constexpr std::uint8_t kTagInit = 2;
constexpr std::uint8_t kTagAck = 3;

struct InitCtrl {
  std::uint64_t send_id = 0;
  std::uint64_t addr = 0;
  ugni::gni_mem_handle_t hndl{};
  std::uint32_t size = 0;
  std::int32_t dest_pe = -1;  // final worker on the receiving node
};

struct AckCtrl {
  std::uint64_t send_id = 0;
};

/// Worker-side cost of handing a message to the comm thread (lock + queue).
constexpr SimTime kSmpEnqueueNs = 120;
/// Comm-thread cost per handled item (dequeue + dispatch).
constexpr SimTime kSmpDequeueNs = 90;
/// Worker-to-worker pointer handoff (lock + enqueue into peer scheduler).
constexpr SimTime kSmpPtrSendNs = 150;

}  // namespace

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// One node: NIC + comm-thread actor + node-shared message pool.
struct SmpLayer::NodeState {
  int node = -1;
  ugni::gni_nic_handle_t nic = nullptr;
  ugni::gni_cq_handle_t rx_cq = nullptr;
  ugni::gni_cq_handle_t tx_cq = nullptr;
  // Per-remote-node endpoints live in the NIC's peer table (lazy,
  // first-touch; see ugni::Nic::get_or_connect) — no N-sized map here.
  std::unique_ptr<mempool::MemPool> pool;  // node-shared, pre-registered

  // The communication thread: an actor with its own virtual-time cursor.
  std::unique_ptr<sim::Context> comm_ctx;
  bool comm_scheduled = false;
  SimTime comm_sched_at = 0;
  SimTime comm_pending_wake = kNever;
  sim::EventHandle comm_event;
  SimTime comm_avail = 0;

  // Outgoing messages queued by workers, in enqueue order.
  struct Out {
    int dest_pe = -1;
    void* msg = nullptr;
    std::uint32_t size = 0;
    SimTime ready = 0;  // when the worker finished enqueueing
  };
  std::deque<Out> outq;

  // Credit-stalled control/data messages (per remote-node channel).
  struct Pending {
    int dest_node = -1;
    int dest_pe = -1;
    std::uint8_t tag = 0;
    std::vector<std::uint8_t> ctrl;
    void* msg = nullptr;
  };
  std::deque<Pending> backlog;
  int backlog_attempts = 0;      // consecutive failed flush attempts
  SimTime backlog_retry_at = 0;  // no flush retry before this instant

  // Rendezvous bookkeeping (node-level).
  struct LargeSend {
    void* msg = nullptr;
  };
  std::unordered_map<std::uint64_t, LargeSend> sends;
  std::uint64_t next_send_id = 1;

  struct LargeRecv {
    void* buf = nullptr;
    std::unique_ptr<ugni::gni_post_descriptor_t> desc;
    std::uint64_t send_id = 0;
    std::int32_t src_node = -1;
    std::int32_t dest_pe = -1;
  };
  std::unordered_map<std::uint64_t, LargeRecv> recvs;
  std::uint64_t next_recv_id = 1;
};

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

SmpLayer::SmpLayer() = default;
SmpLayer::~SmpLayer() = default;

void SmpLayer::ensure_domain(converse::Machine& m) {
  if (domain_) return;
  machine_ = &m;
  trace::MetricsRegistry& reg = m.metrics();
  c_intra_node_ptr_msgs_ = &reg.counter("smp.intra_node_ptr_msgs");
  c_comm_thread_sends_ = &reg.counter("smp.comm_thread_sends");
  c_rendezvous_gets_ = &reg.counter("smp.rendezvous_gets");
  c_comm_thread_busy_defers_ = &reg.counter("smp.comm_thread_busy_defers");
  c_retry_smsg_ = &reg.counter("retry_smsg");
  c_retry_post_ = &reg.counter("retry_post");
  c_retry_mem_register_ = &reg.counter("retry_mem_register");
  c_retry_escalations_ = &reg.counter("retry_escalations");
  c_fallback_rendezvous_ = &reg.counter("fallback_rendezvous");
  c_fallback_heap_ = &reg.counter("fallback_heap_send");
  c_cq_recovered_ = &reg.counter("cq_overrun_recovered");
  retry_ = m.options().retry;
  domain_ = std::make_unique<ugni::Domain>(m.network());
  smsg_cap_ = m.options().mc.smsg_max_for_job(m.options().nodes());
  const std::uint32_t mc_cq_entries = m.options().mc.cq_entries;
  nodes_.resize(static_cast<std::size_t>(m.options().nodes()));
  for (int n = 0; n < m.options().nodes(); ++n) {
    auto ns = std::make_unique<NodeState>();
    ns->node = n;
    ugni::gni_return_t rc =
        ugni::GNI_CdmAttach(domain_.get(), n, n, &ns->nic);
    assert(rc == ugni::GNI_RC_SUCCESS);
    rc = ugni::GNI_CqCreate(ns->nic, mc_cq_entries, &ns->rx_cq);
    assert(rc == ugni::GNI_RC_SUCCESS);
    rc = ugni::GNI_CqCreate(ns->nic, mc_cq_entries, &ns->tx_cq);
    assert(rc == ugni::GNI_RC_SUCCESS);
    (void)rc;
    ns->nic->set_smsg_rx_cq(ns->rx_cq);
    ns->nic->set_default_tx_cq(ns->tx_cq);
    ugni::gni_smsg_attr_t attr;
    attr.msg_maxsize = smsg_cap_;
    attr.mbox_maxcredit = m.options().mc.smsg_mailbox_credits;
    ns->nic->set_smsg_attr(attr);
    // The comm thread lives on its node's shard, like the worker PEs it
    // serves: its CQ-notify and retry events stay shard-local.
    ns->comm_ctx =
        std::make_unique<sim::Context>(m.scheduler_for_node(n), -1000 - n);

    NodeState* np = ns.get();
    auto wake_hook = [this, np](SimTime t) { comm_wake(*np, t); };
    ns->rx_cq->set_notify(wake_hook);
    ns->tx_cq->set_notify(wake_hook);
    ns->nic->set_credit_notify(wake_hook);
    nodes_[static_cast<std::size_t>(n)] = std::move(ns);
  }
  UGNIRT_DEBUG("SMP layer up: " << m.options().nodes()
                                << " nodes, smsg cap " << smsg_cap_ << " B");
}

void SmpLayer::init_pe(converse::Pe& pe) {
  ensure_domain(pe.machine());
  NodeState& n = node_state(pe.node());
  if (pe.machine().options().use_mempool && !n.pool) {
    // Node-shared pool: created once per node, charged to the first PE.
    n.pool = std::make_unique<mempool::MemPool>(
        n.nic, pe.machine().options().mc.mempool_init_bytes);
  }
  pe.set_layer_state(nullptr);
}

ugni::gni_ep_handle_t SmpLayer::connect(NodeState& src, int dest_node) {
  ugni::gni_ep_handle_t ep = src.nic->get_or_connect(dest_node);
  assert(ep && "get_or_connect failed: unknown node or NIC not configured");
  return ep;
}

std::uint64_t SmpLayer::total_mailbox_bytes() const {
  return domain_ ? domain_->total_mailbox_bytes() : 0;
}

LayerStats SmpLayer::stats() const {
  LayerStats out;
  if (!c_intra_node_ptr_msgs_) return out;  // counters not bound yet
  out.intra_node_ptr_msgs = c_intra_node_ptr_msgs_->value();
  out.comm_thread_sends = c_comm_thread_sends_->value();
  out.rendezvous_gets = c_rendezvous_gets_->value();
  out.comm_thread_busy_defers = c_comm_thread_busy_defers_->value();
  return out;
}

void SmpLayer::collect_metrics(trace::MetricsRegistry& reg) {
  if (domain_) domain_->collect_metrics(reg);
  collect_pool_metrics(reg, nodes_);
}

// ---------------------------------------------------------------------------
// Allocation: node-shared pool (or modeled malloc)
// ---------------------------------------------------------------------------

void* SmpLayer::alloc(sim::Context& ctx, converse::Pe& pe,
                      std::size_t bytes) {
  NodeState& n = node_state(pe.node());
  if (n.pool) {
    if (void* p = n.pool->alloc(bytes)) return p;
    // Pool expansion lost its slab registration: heap fallback.
    c_fallback_heap_->inc();
    if (trace::enabled()) {
      trace::emit(trace::Ev::kFallback, ctx.now(), 0, /*peer=*/-1,
                  static_cast<std::uint32_t>(bytes));
    }
  }
  ctx.charge(machine_->options().mc.malloc_cost(bytes));
  return ::operator new[](bytes, std::align_val_t{16});
}

void SmpLayer::free_msg(sim::Context& ctx, converse::Pe& pe, void* msg) {
  NodeState& n = node_state(pe.node());
  if (n.pool) {
    if (n.pool->owns(msg)) {
      n.pool->free(msg);
      return;
    }
    // Allocated on another node's pool (can only happen for messages the
    // comm thread delivered; those are always node-local) — or on the
    // alloc_pe's node.
    int owner = header_of(msg)->alloc_pe;
    if (owner >= 0) {
      NodeState& o = node_state(machine_->node_of_pe(owner));
      if (o.pool && o.pool->owns(msg)) {
        o.pool->free(msg);
        return;
      }
    }
    // No pool owns it: a heap-fallback buffer from alloc() after a failed
    // slab registration.
    ctx.charge(machine_->options().mc.free_base_ns);
    ::operator delete[](msg, std::align_val_t{16});
    return;
  }
  ctx.charge(machine_->options().mc.free_base_ns);
  ::operator delete[](msg, std::align_val_t{16});
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

void SmpLayer::submit(sim::Context& ctx, converse::Pe& src, int dest_pe,
                      converse::MsgView mv,
                      const converse::SendOptions& opts) {
  assert(!opts.persistent_handle.valid() &&
         "SMP layer has no persistent channels");
  (void)opts;
  converse::Machine& m = *machine_;
  NodeState& n = node_state(src.node());
  void* msg = mv.msg;
  const std::uint32_t size = mv.size;

  if (m.node_of_pe(dest_pe) == src.node()) {
    // Same address space: hand the pointer straight to the peer worker.
    ctx.charge(kSmpPtrSendNs);
    c_intra_node_ptr_msgs_->inc();
    m.pe(dest_pe).enqueue(msg, ctx.now());
    return;
  }
  // Lock-and-enqueue to the node's comm thread; the worker is done.
  ctx.charge(kSmpEnqueueNs);
  n.outq.push_back(NodeState::Out{dest_pe, msg, size, ctx.now()});
  comm_wake(n, ctx.now());
}

std::uint32_t SmpLayer::recommended_batch_bytes(converse::Pe& src,
                                                int dest_pe) const {
  if (machine_->node_of_pe(dest_pe) == src.node()) {
    // Intra-node messages pass by pointer — zero copies.  Packing them
    // into a batch would *add* two memcpys, so opt the pair out.
    return 0;
  }
  // One comm-thread SMSG is the transaction unit; it spends 4 payload
  // bytes on the worker routing prefix.
  return smsg_cap_ > 4 ? smsg_cap_ - 4 : 0;
}

// ---------------------------------------------------------------------------
// Comm-thread actor
// ---------------------------------------------------------------------------

void SmpLayer::comm_wake(NodeState& n, SimTime t) {
  SimTime when = std::max(t, n.comm_avail);
  if (n.comm_scheduled) {
    if (when >= n.comm_sched_at) {
      // Defer rather than drop: the pending step runs too early to see
      // this wake's cause (see Pe::wake).
      n.comm_pending_wake = std::min(n.comm_pending_wake, when);
      return;
    }
    n.comm_event.cancel();
  }
  n.comm_scheduled = true;
  n.comm_sched_at = when;
  NodeState* np = &n;
  n.comm_event = n.comm_ctx->scheduler().schedule_at(
      when, [this, np, when] { comm_step(*np, when); });
}

void SmpLayer::comm_step(NodeState& n, SimTime t) {
  n.comm_scheduled = false;
  t = std::max(t, n.comm_avail);
  sim::Context& ctx = *n.comm_ctx;
  ctx.set_now(t);
  sim::ScopedContext guard(ctx);

  // 1. Network arrivals.  ERROR_RESOURCE is a CQ overrun: recover instead
  // of latching dead.
  for (;;) {
    ugni::gni_cq_entry_t ev;
    ugni::gni_return_t rc = ugni::GNI_CqGetEvent(n.rx_cq, &ev);
    if (rc == ugni::GNI_RC_ERROR_RESOURCE) {
      detail::recover_cq(n.rx_cq, c_cq_recovered_);
      continue;
    }
    if (rc != ugni::GNI_RC_SUCCESS) break;
    if (ev.type == ugni::CqEventType::kSmsg) {
      comm_handle_smsg(ctx, n, ev.source_inst);
    }
  }
  for (;;) {
    ugni::gni_cq_entry_t ev;
    ugni::gni_return_t rc = ugni::GNI_CqGetEvent(n.tx_cq, &ev);
    if (rc == ugni::GNI_RC_ERROR_RESOURCE) {
      detail::recover_cq(n.tx_cq, c_cq_recovered_);
      continue;
    }
    if (rc != ugni::GNI_RC_SUCCESS) break;
    if (ev.type == ugni::CqEventType::kPostLocal) {
      comm_handle_completion(ctx, n, ev);
    }
  }

  // 2. Stalled sends, then fresh worker traffic.  Workers enqueue with
  // their own cursors, so ready times are not monotonic across the queue:
  // scan for everything that is ready, keeping relative order, and
  // compact what is not yet ready to the front of the queue in place.
  comm_flush(ctx, n);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n.outq.size(); ++i) {
    const NodeState::Out out = n.outq[i];
    if (out.ready > ctx.now()) {
      n.outq[kept++] = out;
      continue;
    }
    ctx.charge(kSmpDequeueNs);
    c_comm_thread_sends_->inc();
    if (out.size + 4 <= smsg_cap_) {  // +4: worker routing prefix
      comm_send(ctx, n, out.dest_pe, kTagData, out.msg, out.size, out.msg);
      continue;
    }
    begin_node_rendezvous(ctx, n, out.dest_pe, out.size, out.msg);
  }
  n.outq.resize(kept);

  n.comm_avail = ctx.now();
  if (!n.outq.empty() || !n.backlog.empty()) {
    c_comm_thread_busy_defers_->inc();
    SimTime next = n.comm_avail + (n.backlog.empty() ? 0 : 500);
    // A backed-off backlog must not busy-spin before its retry instant.
    if (!n.backlog.empty()) next = std::max(next, n.backlog_retry_at);
    for (const auto& out : n.outq) next = std::min(next, out.ready);
    comm_wake(n, std::max(next, n.comm_avail));
  }
  if (n.comm_pending_wake != kNever) {
    SimTime w = n.comm_pending_wake;
    n.comm_pending_wake = kNever;
    comm_wake(n, w);
  }
}

void SmpLayer::begin_node_rendezvous(sim::Context& ctx, NodeState& n,
                                     int dest_pe, std::uint32_t size,
                                     void* msg) {
  // Rendezvous: the buffer lives in the node pool (pre-registered) or is
  // registered here by the comm thread (with backoff on transient
  // resource exhaustion).
  ugni::gni_mem_handle_t hndl{};
  if (n.pool && n.pool->owns(msg)) {
    hndl = n.pool->handle_of(msg);
  } else {
    detail::register_with_retry(ctx, retry_, n.nic,
                                reinterpret_cast<std::uint64_t>(msg), size,
                                nullptr, &hndl,
                                {c_retry_mem_register_, c_retry_escalations_});
  }
  std::uint64_t id = n.next_send_id++;
  n.sends.emplace(id, NodeState::LargeSend{msg});
  InitCtrl ctrl;
  ctrl.send_id = id;
  ctrl.addr = reinterpret_cast<std::uint64_t>(msg);
  ctrl.hndl = hndl;
  ctrl.size = size;
  ctrl.dest_pe = dest_pe;
  if (trace::enabled())
    trace::emit(trace::Ev::kRdvInit, ctx.now(), 0, dest_pe, size);
  comm_send(ctx, n, dest_pe, kTagInit, &ctrl, sizeof(ctrl), nullptr);
}

void SmpLayer::comm_send(sim::Context& ctx, NodeState& n, int dest_pe,
                         std::uint8_t tag, const void* bytes,
                         std::uint32_t len, void* owned_msg) {
  const int dest_node = machine_->node_of_pe(dest_pe);
  ugni::gni_ep_handle_t ep = connect(n, dest_node);
  // Data messages must tell the remote comm thread which worker to hand
  // off to, so the 4-byte worker dest rides as the SMSG header ahead of
  // the Converse envelope.  INIT carries its dest inside InitCtrl, and an
  // ACK only needs the node.
  const bool data = tag == kTagData;
  const std::int32_t d32 = dest_pe;
  const std::uint32_t header_len = data ? 4 : 0;
  if (n.backlog.empty()) {
    ugni::gni_return_t rc = ugni::GNI_SmsgSendWTag(
        ep, data ? &d32 : nullptr, header_len, bytes, len, 0, tag);
    if (rc == ugni::GNI_RC_SUCCESS) {
      if (data && trace::spans_enabled()) {
        // -1: the node's comm thread posts, not a worker PE.
        mark_msg_spans(bytes, trace::Stage::kTransportPost, -1, ctx.now());
      }
      if (owned_msg && n.pool && n.pool->owns(owned_msg)) {
        n.pool->free(owned_msg);
      } else if (owned_msg) {
        ::operator delete[](owned_msg, std::align_val_t{16});
      }
      return;
    }
    ugni::check(rc, "GNI_SmsgSendWTag", ugni::GNI_RC_NOT_DONE,
                ugni::GNI_RC_ERROR_RESOURCE);
  }
  // Credit-stalled: the backlog keeps its own copy of the wire bytes.
  NodeState::Pending p;
  p.dest_node = dest_node;
  p.dest_pe = dest_pe;
  p.tag = tag;
  p.ctrl.resize(header_len + len);
  std::memcpy(p.ctrl.data(), &d32, header_len);
  std::memcpy(p.ctrl.data() + header_len, bytes, len);
  p.msg = owned_msg;
  n.backlog.push_back(std::move(p));
}

void SmpLayer::comm_flush(sim::Context& ctx, NodeState& n) {
  if (n.backlog.empty()) return;
  // See UgniLayer::flush_backlog: the backoff/demotion machinery engages
  // only under an active fault plan; otherwise stalls are plain credit
  // exhaustion and the credit-return notify is the exact wake.
  const bool faulty = machine_->fault_injector() != nullptr;
  if (faulty && ctx.now() < n.backlog_retry_at) return;
  while (!n.backlog.empty()) {
    NodeState::Pending& p = n.backlog.front();
    ugni::gni_ep_handle_t ep = connect(n, p.dest_node);
    ugni::gni_return_t rc = ugni::GNI_SmsgSendWTag(
        ep, p.ctrl.data(), static_cast<std::uint32_t>(p.ctrl.size()),
        nullptr, 0, 0, p.tag);
    if (rc != ugni::GNI_RC_SUCCESS) {
      ugni::check(rc, "GNI_SmsgSendWTag (backlog)", ugni::GNI_RC_NOT_DONE,
                  ugni::GNI_RC_ERROR_RESOURCE);
      if (!faulty) return;
      ++n.backlog_attempts;
      c_retry_smsg_->inc();
      if (n.backlog_attempts == retry_.max_retries + 1) {
        c_retry_escalations_->inc();
        UGNIRT_WARN("node " << n.node
                            << ": smsg backlog still stalled after "
                            << retry_.max_retries
                            << " retries; continuing at capped backoff");
      }
      // Sustained starvation: route the stalled data message around the
      // SMSG credits entirely via the rendezvous path.
      if (n.backlog_attempts >= retry_.demote_after && p.tag == kTagData &&
          p.msg) {
        void* msg = p.msg;
        const int dest_pe = p.dest_pe;
        const std::uint32_t size = header_of(msg)->size;
        n.backlog.pop_front();
        n.backlog_attempts = 0;
        c_fallback_rendezvous_->inc();
        if (trace::enabled()) {
          trace::emit(trace::Ev::kFallback, ctx.now(), 0, dest_pe, size);
        }
        begin_node_rendezvous(ctx, n, dest_pe, size, msg);
        continue;
      }
      const SimTime pause = retry_.backoff_for(n.backlog_attempts);
      if (trace::enabled()) {
        trace::emit(trace::Ev::kRetryBackoff, ctx.now(), pause, p.dest_pe,
                    static_cast<std::uint32_t>(n.backlog_attempts));
      }
      n.backlog_retry_at = ctx.now() + pause;
      return;
    }
    n.backlog_attempts = 0;
    if (p.tag == kTagData && trace::spans_enabled()) {
      // Wire bytes carry the 4-byte worker-routing prefix before the
      // envelope (see comm_send).
      mark_msg_spans(p.ctrl.data() + 4, trace::Stage::kTransportPost, -1,
                     ctx.now());
    }
    if (p.msg) {
      if (n.pool && n.pool->owns(p.msg)) {
        n.pool->free(p.msg);
      } else {
        ::operator delete[](p.msg, std::align_val_t{16});
      }
    }
    n.backlog.pop_front();
  }
}

void SmpLayer::deliver_to_worker(NodeState& n, int pe, void* msg,
                                 SimTime t) {
  (void)n;
  header_of(msg)->alloc_pe = pe;
  if (trace::spans_enabled()) {
    mark_msg_spans(msg, trace::Stage::kCqComplete, pe, t);
  }
  machine_->pe(pe).enqueue(msg, t);
}

void SmpLayer::comm_handle_smsg(sim::Context& ctx, NodeState& n,
                                int src_inst) {
  const auto& mc = machine_->options().mc;
  ugni::gni_ep_handle_t ep = n.nic->ep_for_peer(src_inst);
  assert(ep && "SMSG event from a peer with no endpoint");
  void* data = nullptr;
  std::uint8_t tag = 0;
  SimTime arrival = ctx.now();
  if (ugni::GNI_SmsgGetNextWTag(ep, &data, &tag, &arrival) !=
      ugni::GNI_RC_SUCCESS) {
    return;
  }
  switch (tag) {
    case kTagData: {
      std::int32_t dest_pe = 0;
      std::memcpy(&dest_pe, data, 4);
      const auto* h = header_of(static_cast<std::uint8_t*>(data) + 4);
      std::uint32_t size = h->size;
      void* buf = n.pool ? n.pool->alloc(size) : nullptr;
      if (!buf) {
        if (n.pool) {
          c_fallback_heap_->inc();
          if (trace::enabled()) {
            trace::emit(trace::Ev::kFallback, ctx.now(), 0, dest_pe, size);
          }
        }
        ctx.charge(mc.malloc_cost(size));
        buf = ::operator new[](size, std::align_val_t{16});
      }
      ctx.charge(mc.memcpy_cost(size));
      std::memcpy(buf, static_cast<std::uint8_t*>(data) + 4, size);
      if (trace::spans_enabled()) {
        mark_msg_spans(buf, trace::Stage::kRxArrive, dest_pe, arrival);
      }
      deliver_to_worker(n, dest_pe, buf, ctx.now());
      break;
    }
    case kTagInit: {
      InitCtrl ctrl;
      std::memcpy(&ctrl, data, sizeof(ctrl));
      NodeState::LargeRecv lr;
      lr.send_id = ctrl.send_id;
      lr.src_node = node_state(src_inst).node;
      lr.dest_pe = ctrl.dest_pe;
      ugni::gni_mem_handle_t local{};
      void* pooled = n.pool ? n.pool->alloc(ctrl.size) : nullptr;
      if (pooled) {
        lr.buf = pooled;
        local = n.pool->handle_of(pooled);
      } else {
        if (n.pool) {
          c_fallback_heap_->inc();
          if (trace::enabled()) {
            trace::emit(trace::Ev::kFallback, ctx.now(), 0, ctrl.dest_pe,
                        ctrl.size);
          }
        }
        ctx.charge(mc.malloc_cost(ctrl.size));
        lr.buf = ::operator new[](ctrl.size, std::align_val_t{16});
        detail::register_with_retry(
            ctx, retry_, n.nic, reinterpret_cast<std::uint64_t>(lr.buf),
            ctrl.size, nullptr, &local,
            {c_retry_mem_register_, c_retry_escalations_});
      }
      lr.desc = std::make_unique<ugni::gni_post_descriptor_t>();
      lr.desc->type = ctrl.size < mc.rdma_threshold
                          ? ugni::GNI_POST_FMA_GET
                          : ugni::GNI_POST_RDMA_GET;
      lr.desc->local_addr = reinterpret_cast<std::uint64_t>(lr.buf);
      lr.desc->local_mem_hndl = local;
      lr.desc->remote_addr = ctrl.addr;
      lr.desc->remote_mem_hndl = ctrl.hndl;
      lr.desc->length = ctrl.size;
      std::uint64_t rid = n.next_recv_id++;
      lr.desc->post_id = rid;
      ugni::gni_ep_handle_t back = connect(n, lr.src_node);
      detail::post_with_retry(ctx, retry_, back, lr.desc.get(),
                              lr.desc->type == ugni::GNI_POST_RDMA_GET,
                              {c_retry_post_, c_retry_escalations_});
      c_rendezvous_gets_->inc();
      if (trace::enabled())
        trace::emit(trace::Ev::kRdvGet, ctx.now(), 0, lr.src_node, ctrl.size);
      n.recvs.emplace(rid, std::move(lr));
      break;
    }
    case kTagAck: {
      AckCtrl ack;
      std::memcpy(&ack, data, sizeof(ack));
      auto it = n.sends.find(ack.send_id);
      assert(it != n.sends.end());
      void* msg = it->second.msg;
      if (n.pool && n.pool->owns(msg)) {
        n.pool->free(msg);
      } else {
        ::operator delete[](msg, std::align_val_t{16});
      }
      n.sends.erase(it);
      break;
    }
    default:
      assert(false && "SMP layer: unknown tag");
  }
  ugni::GNI_SmsgRelease(ep);
}

void SmpLayer::comm_handle_completion(sim::Context& ctx, NodeState& n,
                                      const ugni::gni_cq_entry_t& ev) {
  ugni::gni_post_descriptor_t* desc = nullptr;
  ugni::check(ugni::GNI_GetCompleted(n.tx_cq, ev, &desc),
              "GNI_GetCompleted");
  auto it = n.recvs.find(desc->post_id);
  assert(it != n.recvs.end());
  NodeState::LargeRecv& lr = it->second;
  AckCtrl ack{lr.send_id};
  if (trace::enabled())
    trace::emit(trace::Ev::kRdvAck, ctx.now(), 0, lr.src_node,
                static_cast<std::uint32_t>(desc->length));
  // Route the ACK back via a worker-agnostic control message to any PE of
  // the source node (only the node matters for ACKs).
  int dest_pe_on_src_node =
      lr.src_node * machine_->options().effective_pes_per_node();
  comm_send(ctx, n, dest_pe_on_src_node, kTagAck, &ack, sizeof(ack),
            nullptr);
  deliver_to_worker(n, lr.dest_pe, lr.buf, ctx.now());
  n.recvs.erase(it);
}

// ---------------------------------------------------------------------------
// Worker-side progress (nothing to do: the comm thread owns the network)
// ---------------------------------------------------------------------------

void SmpLayer::advance(sim::Context&, converse::Pe&) {}

bool SmpLayer::has_backlog(const converse::Pe&) const { return false; }

}  // namespace ugnirt::lrts
