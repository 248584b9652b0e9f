#include "lrts/smp_layer.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "trace/events.hpp"
#include "trace/spans.hpp"
#include "util/log.hpp"

namespace ugnirt::lrts {

using converse::header_of;

namespace {

/// Worker-side cost of handing a message to the comm thread (lock + queue).
constexpr SimTime kSmpEnqueueNs = 120;
/// Comm-thread cost per handled item (dequeue + dispatch).
constexpr SimTime kSmpDequeueNs = 90;
/// Worker-to-worker pointer handoff (lock + enqueue into peer scheduler).
constexpr SimTime kSmpPtrSendNs = 150;
/// Bytes of the worker-route prefix ahead of a data message's envelope.
constexpr std::uint32_t kRouteBytes = 4;

}  // namespace

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

/// One node: the endpoint its comm thread owns (NIC + node-shared pool)
/// plus the comm-thread actor.
struct SmpLayer::NodeState final : Endpoint {
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
};

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

SmpLayer::SmpLayer() = default;
SmpLayer::~SmpLayer() = default;

void SmpLayer::ensure_domain(converse::Machine& m) {
  if (domain_) return;
  bind(m, m.options().mc.smsg_max_for_job(m.options().nodes()),
       "smp.rendezvous_gets");
  trace::MetricsRegistry& reg = m.metrics();
  c_intra_node_ptr_msgs_ = &reg.counter("smp.intra_node_ptr_msgs");
  c_comm_thread_sends_ = &reg.counter("smp.comm_thread_sends");
  c_comm_thread_busy_defers_ = &reg.counter("smp.comm_thread_busy_defers");
  nodes_.resize(static_cast<std::size_t>(m.options().nodes()));
  for (int n = 0; n < m.options().nodes(); ++n) {
    auto ns = std::make_unique<NodeState>();
    NodeState* np = ns.get();
    attach(*ns, n, n, [this, np](SimTime t) { comm_wake(*np, t); });
    ns->comm_ctx = std::make_unique<sim::Context>(m.scheduler(), -1000 - n);
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

LayerStats SmpLayer::stats() const {
  LayerStats out = core_stats();
  if (!c_intra_node_ptr_msgs_) return out;  // counters not bound yet
  out.intra_node_ptr_msgs = c_intra_node_ptr_msgs_->value();
  out.comm_thread_sends = c_comm_thread_sends_->value();
  out.comm_thread_busy_defers = c_comm_thread_busy_defers_->value();
  return out;
}

void SmpLayer::collect_metrics(trace::MetricsRegistry& reg) {
  collect_core_metrics(reg, nodes_);
}

// ---------------------------------------------------------------------------
// Allocation: node-shared pool (or modeled malloc)
// ---------------------------------------------------------------------------

void* SmpLayer::alloc(sim::Context& ctx, converse::Pe& pe,
                      std::size_t bytes) {
  return alloc_buffer(ctx, node_state(pe.node()), bytes,
                      /*fallback_peer=*/-1);
}

void SmpLayer::free_msg(sim::Context& ctx, converse::Pe&, void* msg) {
  free_buffer(ctx, msg);
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
  if (m.node_of_pe(dest_pe) == src.node()) {
    // Same address space: hand the pointer straight to the peer worker.
    ctx.charge(kSmpPtrSendNs);
    c_intra_node_ptr_msgs_->inc();
    m.pe(dest_pe).enqueue(mv.msg, ctx.now());
    return;
  }
  // Lock-and-enqueue to the node's comm thread; the worker is done.
  NodeState& n = node_state(src.node());
  ctx.charge(kSmpEnqueueNs);
  n.outq.push_back(NodeState::Out{dest_pe, mv.msg, mv.size, ctx.now()});
  comm_wake(n, ctx.now());
}

std::uint32_t SmpLayer::recommended_batch_bytes(converse::Pe& src,
                                                int dest_pe) const {
  if (machine_->node_of_pe(dest_pe) == src.node()) {
    // Intra-node messages pass by pointer — zero copies.  Packing them
    // into a batch would *add* two memcpys, so opt the pair out.
    return 0;
  }
  // One comm-thread SMSG is the transaction unit; it spends the route
  // prefix's payload bytes.
  return smsg_cap_ > kRouteBytes ? smsg_cap_ - kRouteBytes : 0;
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

  // 1. Network arrivals and completions, then GETs the governor deferred.
  drain_rx(ctx, n);
  drain_tx(ctx, n);
  if (governor_) drain_deferred_gets(ctx, n);

  // 2. Stalled sends, then fresh worker traffic.  Workers enqueue with
  // their own cursors, so ready times are not monotonic across the queue:
  // scan for everything that is ready, keeping relative order, and
  // compact what is not yet ready to the front of the queue in place.
  flush_backlog(ctx, n);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n.outq.size(); ++i) {
    const NodeState::Out out = n.outq[i];
    if (out.ready > ctx.now()) {
      n.outq[kept++] = out;
      continue;
    }
    ctx.charge(kSmpDequeueNs);
    c_comm_thread_sends_->inc();
    const int dest_node = machine_->node_of_pe(out.dest_pe);
    // A hot destination shrinks the eager window (flow control).
    const std::uint32_t eager =
        governor_ ? governor_->eager_cap(smsg_cap_, dest_node) : smsg_cap_;
    if (out.size + kRouteBytes <= eager) {
      smsg_send(ctx, n, dest_node, out.dest_pe, kTagData, out.msg, out.size,
                out.msg);
      continue;
    }
    begin_rendezvous(ctx, n, dest_node, out.dest_pe, out.size, out.msg);
  }
  n.outq.resize(kept);

  n.comm_avail = ctx.now();
  if (!n.outq.empty() || n.stalled()) {
    c_comm_thread_busy_defers_->inc();
    SimTime next = n.comm_avail + (n.stalled() ? 500 : 0);
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

// ---------------------------------------------------------------------------
// Protocol policy: the node's comm thread owns the endpoint
// ---------------------------------------------------------------------------

void SmpLayer::release(sim::Context& ctx, Endpoint&, void* msg) {
  free_buffer(ctx, msg);
}

void SmpLayer::deliver(sim::Context& ctx, Endpoint&, int pe, void* msg) {
  if (trace::spans_enabled()) {
    mark_msg_spans(msg, trace::Stage::kCqComplete, pe, ctx.now());
  }
  machine_->pe(pe).enqueue(msg, ctx.now());
}

void SmpLayer::on_data(sim::Context& ctx, Endpoint& e, const void* data,
                       SimTime arrival) {
  std::int32_t dest_pe = 0;
  std::memcpy(&dest_pe, data, kRouteBytes);
  const auto* env = static_cast<const std::uint8_t*>(data) + kRouteBytes;
  const std::uint32_t size = header_of(env)->size;
  void* buf = alloc_buffer(ctx, e, size, dest_pe);
  ctx.charge(machine_->options().mc.memcpy_cost(size));
  std::memcpy(buf, env, size);
  if (trace::spans_enabled()) {
    mark_msg_spans(buf, trace::Stage::kRxArrive, dest_pe, arrival);
  }
  deliver(ctx, e, dest_pe, buf);
}

// ---------------------------------------------------------------------------
// Worker-side progress (nothing to do: the comm thread owns the network)
// ---------------------------------------------------------------------------

void SmpLayer::advance(sim::Context&, converse::Pe&) {}

bool SmpLayer::has_backlog(const converse::Pe&) const { return false; }

}  // namespace ugnirt::lrts
