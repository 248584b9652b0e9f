#include "lrts/ugni_layer.hpp"

#include <cassert>
#include <cstring>

#include "trace/events.hpp"
#include "trace/spans.hpp"
#include "util/log.hpp"

namespace ugnirt::lrts {

using converse::CmiMsgHeader;
using converse::header_of;
using converse::kMsgFlagNoFree;

namespace {

// Aggregation-batch bound for the intra-node pxshm path: a shm queue slot
// carries any size, so cap batches at one page-ish lease from the pool.
constexpr std::uint32_t kPxshmBatchBytes = 4096;

/// PERSISTENT_TAG payload.
struct PersistCtrl {
  std::int32_t channel = -1;
  std::uint32_t size = 0;
  std::int32_t src_pe = -1;
};

}  // namespace

// ---------------------------------------------------------------------------
// Per-PE and per-node state
// ---------------------------------------------------------------------------

struct UgniLayer::PeState final : converse::LayerPeState, Endpoint {
  converse::Pe* owner = nullptr;
  ugni::gni_msgq_handle_t msgq = nullptr;  // shared queue (use_msgq mode)

  // Persistent channels where this PE is the *receiver*.
  struct PersistRx {
    void* buf = nullptr;
    std::uint32_t max_bytes = 0;
    ugni::gni_mem_handle_t hndl{};
  };
  std::vector<PersistRx> persist_rx;

  // Persistent channels where this PE is the *sender*.
  struct PersistTx {
    int dest_pe = -1;
    std::int32_t remote_channel = -1;
    std::uint64_t remote_addr = 0;
    ugni::gni_mem_handle_t remote_hndl{};
    std::uint32_t max_bytes = 0;
  };
  std::vector<PersistTx> persist_tx;

  // PUTs in flight for persistent sends, keyed by descriptor post_id.
  struct PersistSend {
    void* msg = nullptr;
    std::unique_ptr<ugni::gni_post_descriptor_t> desc;
    std::int32_t tx_index = -1;
    std::uint32_t size = 0;
    bool app_owned = false;  // app reuses this buffer; don't free it
  };
  std::unordered_map<std::uint64_t, PersistSend> persist_sends;
  std::uint64_t next_persist_id = 1;

  // Persistent send buffers stay registered across iterations (the
  // "persistent memory for sending message" of Fig 7a); registration is
  // paid once per buffer and cached here in the no-pool configuration.
  std::unordered_map<const void*, ugni::gni_mem_handle_t> persist_send_reg;
};

/// Intra-node pxshm: one receive queue per local PE.
struct UgniLayer::NodeShm {
  struct Entry {
    void* msg = nullptr;
    std::uint32_t size = 0;
    SimTime at = 0;
  };
  std::vector<std::deque<Entry>> rx;  // indexed by pe-on-node rank
};

// ---------------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------------

UgniLayer::UgniLayer() = default;
UgniLayer::~UgniLayer() = default;

LayerStats UgniLayer::stats() const {
  LayerStats out = core_stats();
  if (!c_persistent_puts_) return out;  // init_pe has not bound the counters
  out.persistent_puts = c_persistent_puts_->value();
  out.pxshm_msgs = c_pxshm_msgs_->value();
  return out;
}

void UgniLayer::collect_metrics(trace::MetricsRegistry& reg) {
  collect_core_metrics(reg, states_);
}

UgniLayer::PeState& UgniLayer::state(converse::Pe& pe) {
  return *static_cast<PeState*>(pe.layer_state());
}

UgniLayer::PeState& UgniLayer::state_of(int pe_id) {
  return *states_[static_cast<std::size_t>(pe_id)];
}

void UgniLayer::ensure_domain(converse::Machine& m) {
  if (domain_) return;
  bind(m, m.options().mc.smsg_max_for_job(m.num_pes()),
       "ugni.rendezvous_gets");
  trace::MetricsRegistry& reg = m.metrics();
  c_persistent_puts_ = &reg.counter("ugni.persistent_puts");
  c_pxshm_msgs_ = &reg.counter("ugni.pxshm_msgs");
  states_.resize(static_cast<std::size_t>(m.num_pes()), nullptr);
  node_shm_.resize(static_cast<std::size_t>(m.options().nodes()));
  for (auto& shm : node_shm_) {
    shm = std::make_unique<NodeShm>();
    shm->rx.resize(static_cast<std::size_t>(
        m.options().effective_pes_per_node()));
  }
  use_msgq_ = m.options().use_msgq;
  UGNIRT_DEBUG("uGNI layer up: " << m.num_pes() << " PEs, smsg cap "
                                 << smsg_cap_ << " B");
}

void UgniLayer::init_pe(converse::Pe& pe) {
  ensure_domain(pe.machine());
  auto st = std::make_unique<PeState>();
  PeState* s = st.get();
  s->owner = &pe;
  s->pe = pe.id();
  converse::Pe* pptr = &pe;
  auto wake_pe = [pptr](SimTime t) { pptr->wake(t); };
  attach(*s, pe.id(), pe.node(), wake_pe);

  if (use_msgq_) {
    ugni::gni_return_t rc = ugni::GNI_MsgqInit(s->nic, 256 * 1024, &s->msgq);
    assert(rc == ugni::GNI_RC_SUCCESS);
    (void)rc;
    s->msgq->set_notify(wake_pe);
  }

  if (pe.machine().options().use_mempool) {
    s->pool = std::make_unique<mempool::MemPool>(
        s->nic, pe.machine().options().mc.mempool_init_bytes);
  }
  states_[static_cast<std::size_t>(pe.id())] = s;
  pe.set_layer_state(std::move(st));
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

void* UgniLayer::alloc(sim::Context& ctx, converse::Pe& pe,
                       std::size_t bytes) {
  return alloc_buffer(ctx, state(pe), bytes, /*fallback_peer=*/-1);
}

void UgniLayer::free_msg(sim::Context& ctx, converse::Pe&, void* msg) {
  free_buffer(ctx, msg);
}

// ---------------------------------------------------------------------------
// Send path (the unified LRTS submit entry)
// ---------------------------------------------------------------------------

void UgniLayer::submit(sim::Context& ctx, converse::Pe& src, int dest_pe,
                       converse::MsgView msg,
                       const converse::SendOptions& opts) {
  if (opts.persistent_handle.valid()) {
    persistent_send(ctx, src, opts.persistent_handle, msg.size, msg.msg);
    return;
  }
  converse::Machine& m = *machine_;
  PeState& s = state(src);

  const bool same_node = m.node_of_pe(dest_pe) == src.node();
  if (same_node && m.options().use_pxshm) {
    pxshm_send(ctx, src, dest_pe, msg.size, msg.msg);
    return;
  }

  // Under hotspot load the governor shrinks the eager window for the hot
  // destination, steering mid-size messages onto the (receiver-paced)
  // rendezvous path instead of stuffing its SMSG mailboxes.
  const std::uint32_t eager =
      governor_ ? governor_->eager_cap(smsg_cap_, m.node_of_pe(dest_pe))
                : smsg_cap_;
  if (msg.size <= eager) {
    smsg_send(ctx, s, dest_pe, dest_pe, kTagData, msg.msg, msg.size,
              /*owned_msg=*/msg.msg);
    return;
  }

  // Rendezvous (Fig 5): register / resolve the send buffer, ship INIT_TAG.
  begin_rendezvous(ctx, s, dest_pe, dest_pe, msg.size, msg.msg);
}

std::uint32_t UgniLayer::recommended_batch_bytes(converse::Pe& src,
                                                 int dest_pe) const {
  converse::Machine& m = *machine_;
  if (m.node_of_pe(dest_pe) == src.node() && m.options().use_pxshm) {
    // pxshm moves any size in one queue slot; batching saves per-message
    // enqueue/notify overhead.  Round the lease up to a full mempool size
    // class so no registered bytes are wasted.
    return static_cast<std::uint32_t>(
        mempool::MemPool::usable_size(kPxshmBatchBytes));
  }
  // One SMSG mailbox write is the single-transaction ceiling.
  return smsg_cap_;
}

// ---------------------------------------------------------------------------
// Progress engine (LrtsNetworkEngine)
// ---------------------------------------------------------------------------

void UgniLayer::advance(sim::Context& ctx, converse::Pe& pe) {
  PeState& s = state(pe);
  drain_rx(ctx, s);

  // Drain the shared message queue (MSGQ mode).
  if (s.msgq) {
    for (;;) {
      void* data = nullptr;
      std::uint32_t len = 0;
      std::uint8_t tag = 0;
      std::int32_t source = -1;
      ugni::gni_return_t rc =
          ugni::GNI_MsgqProgress(s.msgq, &data, &len, &tag, &source);
      if (rc != ugni::GNI_RC_SUCCESS) break;
      handle_protocol_msg(ctx, s, source, tag, data, ctx.now());
    }
  }

  drain_tx(ctx, s);
  if (machine_->options().use_pxshm) pxshm_poll(ctx, pe);
  if (governor_) drain_deferred_gets(ctx, s);
  flush_backlog(ctx, s);
}

bool UgniLayer::has_backlog(const converse::Pe& pe) const {
  const auto* s = static_cast<const PeState*>(pe.layer_state());
  return s && s->stalled();
}

// ---------------------------------------------------------------------------
// Protocol policy: the PE owns its endpoint
// ---------------------------------------------------------------------------

void UgniLayer::release(sim::Context& ctx, Endpoint&, void* msg) {
  free_buffer(ctx, msg);
}

void UgniLayer::wake(Endpoint& e, SimTime t) {
  static_cast<PeState&>(e).owner->wake(t);
}

void UgniLayer::deliver(sim::Context& ctx, Endpoint& e, int, void* msg) {
  static_cast<PeState&>(e).owner->enqueue(msg, ctx.now());
}

void UgniLayer::on_data(sim::Context& ctx, Endpoint& e, const void* data,
                        SimTime arrival) {
  // Copy out of the mailbox/queue slot into a runtime buffer.
  const std::uint32_t size = header_of(data)->size;
  if (trace::spans_enabled()) {
    // rx_arrive at the wire-arrival instant, cq_complete now: the gap
    // is how long the event waited for this PE to poll its CQ.
    mark_msg_spans(data, trace::Stage::kRxArrive, e.pe, arrival);
    mark_msg_spans(data, trace::Stage::kCqComplete, e.pe, ctx.now());
  }
  void* buf = alloc_buffer(ctx, e, size, /*fallback_peer=*/-1);
  ctx.charge(machine_->options().mc.memcpy_cost(size));
  std::memcpy(buf, data, size);
  deliver(ctx, e, e.pe, buf);
}

// ---------------------------------------------------------------------------
// Persistent messages (paper §IV-A)
// ---------------------------------------------------------------------------

void UgniLayer::on_extra_tag(sim::Context& ctx, Endpoint& e, std::uint8_t tag,
                             const void* data, SimTime arrival) {
  assert(tag == kTagPersistData && "unknown SMSG tag");
  (void)tag;
  PersistCtrl pc;
  std::memcpy(&pc, data, sizeof(pc));
  PeState& s = static_cast<PeState&>(e);
  PeState::PersistRx& rx =
      s.persist_rx.at(static_cast<std::size_t>(pc.channel));
  // Deliver the landing buffer in place: zero copy, runtime-owned.
  CmiMsgHeader* h = header_of(rx.buf);
  h->flags |= kMsgFlagNoFree;
  if (trace::spans_enabled() && h->span_id != 0) {
    // The PUT copied the whole envelope into the landing buffer, so
    // the sampled span id arrived with the data.
    trace::span_mark(h->span_id, trace::Stage::kRxArrive, s.pe, arrival);
  }
  s.owner->enqueue(rx.buf, ctx.now());
}

void UgniLayer::on_extra_completion(sim::Context& ctx, Endpoint& e,
                                    ugni::gni_post_descriptor_t* desc) {
  PeState& s = static_cast<PeState&>(e);
  auto it = s.persist_sends.find(desc->post_id);
  assert(it != s.persist_sends.end() && "completion for unknown descriptor");
  // Persistent PUT landed: notify the receiver, release our buffer
  // (unless the application owns and reuses it, Fig 7a).
  if (governor_) governor_->on_complete(s.pe, s.node, ctx.now());
  PeState::PersistSend& ps = it->second;
  if (trace::spans_enabled()) {
    mark_msg_spans(ps.msg, trace::Stage::kCqComplete, s.pe, ctx.now());
  }
  PeState::PersistTx& tx =
      s.persist_tx.at(static_cast<std::size_t>(ps.tx_index));
  PersistCtrl pc;
  pc.channel = tx.remote_channel;
  pc.size = ps.size;
  pc.src_pe = s.pe;
  smsg_send(ctx, s, tx.dest_pe, tx.dest_pe, kTagPersistData, &pc, sizeof(pc),
            nullptr);
  if (!ps.app_owned) {
    header_of(ps.msg)->flags &= static_cast<std::uint16_t>(~kMsgFlagNoFree);
    free_msg(ctx, *s.owner, ps.msg);
  }
  s.persist_sends.erase(it);
}

converse::PersistentHandle UgniLayer::create_persistent(
    sim::Context& ctx, converse::Pe& src, int dest_pe,
    std::uint32_t max_bytes) {
  // Setup handshake: one control round trip plus the receiver-side
  // allocation and registration, all charged to the initiating PE (setup
  // happens once, off the critical path).
  converse::Machine& m = *machine_;
  const auto& mc = m.options().mc;
  PeState& s = state(src);
  PeState& d = state_of(dest_pe);

  PeState::PersistRx rx;
  rx.max_bytes = max_bytes;
  bool pooled = false;
  rx.buf = alloc_buffer(ctx, d, max_bytes, dest_pe, &pooled);
  if (pooled) {
    rx.hndl = d.pool->handle_of(rx.buf);
  } else {
    register_buffer(ctx, d, rx.buf, max_bytes, &rx.hndl);
  }
  d.persist_rx.push_back(rx);

  PeState::PersistTx tx;
  tx.dest_pe = dest_pe;
  tx.remote_channel = static_cast<std::int32_t>(d.persist_rx.size()) - 1;
  tx.remote_addr = reinterpret_cast<std::uint64_t>(rx.buf);
  tx.remote_hndl = rx.hndl;
  tx.max_bytes = max_bytes;
  s.persist_tx.push_back(tx);

  connect(s, dest_pe);
  // Round-trip control exchange.
  int hops = m.network().hops(src.node(), m.node_of_pe(dest_pe));
  ctx.charge(2 * (mc.smsg_wire_startup_ns + hops * mc.hop_ns));

  return converse::PersistentHandle{
      static_cast<std::int32_t>(s.persist_tx.size()) - 1};
}

void UgniLayer::persistent_send(sim::Context& ctx, converse::Pe& src,
                                converse::PersistentHandle handle,
                                std::uint32_t size, void* msg) {
  assert(handle.valid());
  const auto& mc = machine_->options().mc;
  PeState& s = state(src);
  PeState::PersistTx& tx =
      s.persist_tx.at(static_cast<std::size_t>(handle.id));
  assert(size <= tx.max_bytes && "persistent message exceeds channel size");

  PeState::PersistSend ps;
  ps.msg = msg;
  ps.size = size;
  ps.tx_index = handle.id;
  ps.app_owned =
      (header_of(msg)->flags & kMsgFlagNoFree) != 0;  // app reuses buffer
  ugni::gni_mem_handle_t local_hndl{};
  if (s.pool && mempool::MemPool::pool_of(msg) == s.pool.get()) {
    local_hndl = s.pool->handle_of(msg);
  } else if (auto it = s.persist_send_reg.find(msg);
             it != s.persist_send_reg.end()) {
    local_hndl = it->second;  // registered on an earlier iteration
  } else {
    register_buffer(ctx, s, msg, std::max<std::uint32_t>(size, tx.max_bytes),
                    &local_hndl);
    s.persist_send_reg.emplace(msg, local_hndl);
  }

  ps.desc = std::make_unique<ugni::gni_post_descriptor_t>();
  ps.desc->type = size < mc.rdma_threshold ? ugni::GNI_POST_FMA_PUT
                                           : ugni::GNI_POST_RDMA_PUT;
  ps.desc->local_addr = reinterpret_cast<std::uint64_t>(msg);
  ps.desc->local_mem_hndl = local_hndl;
  ps.desc->remote_addr = tx.remote_addr;
  ps.desc->remote_mem_hndl = tx.remote_hndl;
  ps.desc->length = size;
  std::uint64_t pid = s.next_persist_id++ | (1ull << 63);
  ps.desc->post_id = pid;

  // Keep the sender buffer stable until the PUT completes.
  header_of(msg)->flags |= kMsgFlagNoFree;

  post(ctx, connect(s, tx.dest_pe), ps.desc.get());
  // Persistent PUTs are latency-critical and never deferred, but they
  // count against the window so their completions drive AIMD too.
  if (governor_) governor_->note_post(src.id());
  c_persistent_puts_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kPersistPut, ctx.now(), 0, tx.dest_pe, size);
  }
  if (trace::spans_enabled()) {
    mark_msg_spans(msg, trace::Stage::kTransportPost, src.id(), ctx.now());
  }
  s.persist_sends.emplace(pid, std::move(ps));
}

// ---------------------------------------------------------------------------
// Intra-node pxshm (paper §IV-C)
// ---------------------------------------------------------------------------

void UgniLayer::pxshm_send(sim::Context& ctx, converse::Pe& src, int dest_pe,
                           std::uint32_t size, void* msg) {
  converse::Machine& m = *machine_;
  const auto& mc = m.options().mc;
  const int node = src.node();
  const int local_rank = dest_pe % m.options().effective_pes_per_node();

  // Sender-side copy into the shared region (both modes copy in).
  ctx.charge(mc.memcpy_cost(size) + mc.pxshm_notify_ns);
  c_pxshm_msgs_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kPxshmEnq, ctx.now(), 0, dest_pe, size);
  }
  if (trace::spans_enabled()) {
    mark_msg_spans(msg, trace::Stage::kTransportPost, src.id(), ctx.now());
  }

  NodeShm::Entry e;
  e.size = size;
  e.at = ctx.now();
  // In both modes the shm block carries the sender's buffer; single copy
  // delivers it in place, double copy re-copies at the receiver.
  e.msg = msg;
  auto& q = node_shm_[static_cast<std::size_t>(node)]
                ->rx[static_cast<std::size_t>(local_rank)];
  // Keep the queue ordered by arrival (senders' clocks are not aligned).
  auto it = q.end();
  while (it != q.begin() && std::prev(it)->at > e.at) --it;
  q.insert(it, e);
  m.pe(dest_pe).wake(e.at);
}

void UgniLayer::pxshm_poll(sim::Context& ctx, converse::Pe& pe) {
  converse::Machine& m = *machine_;
  const auto& mc = m.options().mc;
  auto& q = node_shm_[static_cast<std::size_t>(pe.node())]
                ->rx[static_cast<std::size_t>(
                    pe.id() % m.options().effective_pes_per_node())];
  if (q.empty()) return;
  ctx.charge(mc.pxshm_poll_ns);
  // Trace gates and the copy-mode knob are run-constant: one test per
  // poll batch, not per dequeued message.
  const bool ev_on = trace::enabled();
  const bool spans_on = trace::spans_enabled();
  const bool single_copy = m.options().pxshm_single_copy;
  while (!q.empty() && q.front().at <= ctx.now()) {
    NodeShm::Entry e = q.front();
    q.pop_front();
    if (ev_on) {
      trace::emit(trace::Ev::kPxshmDeq, ctx.now(), 0,
                  header_of(e.msg)->src_pe, e.size);
    }
    if (spans_on) {
      mark_msg_spans(e.msg, trace::Stage::kRxArrive, pe.id(), e.at);
    }
    if (single_copy) {
      // The buffer stays in the sender's pool: CmiFree returns it there.
      pe.enqueue(e.msg, ctx.now());
    } else {
      void* buf = alloc(ctx, pe, e.size);
      ctx.charge(mc.memcpy_cost(e.size));
      std::memcpy(buf, e.msg, e.size);
      // Free the sender-side buffer (the shm slot becomes reusable).
      free_msg(ctx, pe, e.msg);
      pe.enqueue(buf, ctx.now());
    }
  }
  // Entries still in flight: this step may have started before their
  // notify instant — re-arm the wake so they are not stranded.
  if (!q.empty()) pe.wake(q.front().at);
}

}  // namespace ugnirt::lrts
