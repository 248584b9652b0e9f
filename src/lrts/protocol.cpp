#include "lrts/protocol.hpp"

namespace ugnirt::lrts {

namespace {

/// Attempts after which a permanently-failing call aborts (a fault plan
/// with p = 1.0 on a required resource cannot make progress).
constexpr int kHardCap = 1000;

/// One failed attempt of a retried uGNI call.  The injected fault
/// processes are transient by construction, so the loop backs off in
/// virtual time (charged to the caller), escalates (log + count) once the
/// polite phase of the RetryPolicy is exhausted, then keeps retrying at
/// the capped interval.  Returns false at the hard cap, turning a
/// permanently failing call into a loud abort instead of an unbounded
/// virtual-time spin.
bool back_off(sim::Context& ctx, const fault::RetryPolicy& policy,
              int attempt, const char* what, trace::Counter* retries,
              trace::Counter* escalations) {
  if (attempt > kHardCap) return false;
  retries->inc();
  if (attempt == policy.max_retries + 1) {
    escalations->inc();
    UGNIRT_WARN(what << " still failing after " << policy.max_retries
                     << " retries; continuing at capped backoff");
  }
  const SimTime pause = policy.backoff_for(attempt);
  if (trace::enabled()) {
    trace::emit(trace::Ev::kRetryBackoff, ctx.now(), pause, /*peer=*/-1,
                static_cast<std::uint32_t>(attempt));
  }
  ctx.charge(pause);
  return true;
}

}  // namespace

Endpoint::~Endpoint() {
  // Pool blocks go with their pools; only heap-fallback buffers need
  // releasing here.
  for (const Pending& p : backlog) {
    if (p.msg && !mempool::MemPool::pool_of(p.msg)) {
      mempool::MemPool::free_heap(p.msg);
    }
  }
}

std::uint64_t ProtocolBase::total_mailbox_bytes() const {
  return domain_ ? domain_->total_mailbox_bytes() : 0;
}

void ProtocolBase::bind(converse::Machine& m, std::uint32_t smsg_cap,
                        const char* rendezvous_gets_key) {
  machine_ = &m;
  trace::MetricsRegistry& reg = m.metrics();
  c_smsg_sends_ = &reg.counter("ugni.smsg_sends");
  c_rendezvous_gets_ = &reg.counter(rendezvous_gets_key);
  c_credit_stalls_ = &reg.counter("ugni.credit_stalls");
  c_registrations_ = &reg.counter("ugni.registrations");
  c_retry_smsg_ = &reg.counter("retry_smsg");
  c_retry_post_ = &reg.counter("retry_post");
  c_retry_mem_register_ = &reg.counter("retry_mem_register");
  c_retry_escalations_ = &reg.counter("retry_escalations");
  c_fallback_rendezvous_ = &reg.counter("fallback_rendezvous");
  c_fallback_heap_ = &reg.counter("fallback_heap_send");
  c_cq_recovered_ = &reg.counter("cq_overrun_recovered");
  retry_ = m.options().retry;
  if (m.options().flow.enable) {
    // Through the factory (not direct construction — the deprecated-send
    // lint enforces this) so tenancy QoS classes bind to every governor.
    governor_ = flowcontrol::make_governor(
        m.options().flow, m.congestion_estimator(), m.num_pes());
  }
  domain_ = std::make_unique<ugni::Domain>(m.network());
  smsg_cap_ = smsg_cap;
}

void ProtocolBase::attach(Endpoint& e, int inst, int node,
                          const std::function<void(SimTime)>& notify) {
  const auto& mc = machine_->options().mc;
  e.node = node;
  ugni::gni_return_t rc =
      ugni::GNI_CdmAttach(domain_.get(), inst, node, &e.nic);
  assert(rc == ugni::GNI_RC_SUCCESS);
  rc = ugni::GNI_CqCreate(e.nic, mc.cq_entries, &e.rx_cq);
  assert(rc == ugni::GNI_RC_SUCCESS);
  rc = ugni::GNI_CqCreate(e.nic, mc.cq_entries, &e.tx_cq);
  assert(rc == ugni::GNI_RC_SUCCESS);
  (void)rc;
  e.nic->set_smsg_rx_cq(e.rx_cq);
  e.nic->set_default_tx_cq(e.tx_cq);
  // Channel setup is fully lazy: attach only records the mailbox geometry
  // every future get_or_connect will use.  Nothing here is O(peers).
  ugni::gni_smsg_attr_t attr;
  attr.msg_maxsize = smsg_cap_;
  attr.mbox_maxcredit = mc.smsg_mailbox_credits;
  e.nic->set_smsg_attr(attr);
  e.rx_cq->set_notify(notify);
  e.tx_cq->set_notify(notify);
  e.nic->set_credit_notify(notify);
}

ugni::gni_ep_handle_t ProtocolBase::connect(Endpoint& e, int peer) {
  bool established = false;
  ugni::gni_ep_handle_t ep = e.nic->get_or_connect(peer, &established);
  assert(ep && "get_or_connect failed: unknown peer or NIC not configured");
  // get_or_connect charged the initiator for both mailbox pins (nothing
  // in MSGQ mode); mirror the two registrations into the layer counter.
  if (established && !use_msgq_) c_registrations_->inc(2);
  return ep;
}

void* ProtocolBase::alloc_buffer(sim::Context& ctx, Endpoint& e,
                                 std::size_t bytes, int fallback_peer,
                                 bool* pooled) {
  if (e.pool) {
    if (void* p = e.pool->alloc(bytes)) {
      if (pooled) *pooled = true;
      return p;
    }
    // Pool expansion lost its slab registration (resource fault): fall
    // back to a plain heap buffer; release paths route it to the heap.
    c_fallback_heap_->inc();
    if (trace::enabled()) {
      trace::emit(trace::Ev::kFallback, ctx.now(), 0, fallback_peer,
                  static_cast<std::uint32_t>(bytes));
    }
  }
  // "Original" path: modeled system malloc.
  ctx.charge(machine_->options().mc.malloc_cost(bytes));
  return mempool::MemPool::alloc_heap(bytes);
}


void ProtocolBase::register_buffer(sim::Context& ctx, Endpoint& e,
                                   const void* buf, std::uint64_t len,
                                   ugni::gni_mem_handle_t* hndl) {
  const auto addr = reinterpret_cast<std::uint64_t>(buf);
  for (int failures = 0;;) {
    ugni::gni_return_t rc = ugni::check(
        ugni::GNI_MemRegister(e.nic, addr, len, nullptr, 0, hndl),
        "GNI_MemRegister", ugni::GNI_RC_ERROR_RESOURCE);
    if (rc == ugni::GNI_RC_SUCCESS) return;
    if (!back_off(ctx, retry_, ++failures, "GNI_MemRegister",
                  c_retry_mem_register_, c_retry_escalations_)) {
      ugni::detail::check_fail(rc, "GNI_MemRegister (retries exhausted)");
    }
  }
}

void ProtocolBase::post(sim::Context& ctx, ugni::gni_ep_handle_t ep,
                        ugni::gni_post_descriptor_t* desc) {
  const bool rdma = desc->type == ugni::GNI_POST_RDMA_GET ||
                    desc->type == ugni::GNI_POST_RDMA_PUT;
  for (int failures = 0;;) {
    ugni::gni_return_t rc = ugni::check(
        rdma ? ugni::GNI_PostRdma(ep, desc) : ugni::GNI_PostFma(ep, desc),
        "GNI_Post", ugni::GNI_RC_TRANSACTION_ERROR);
    if (rc == ugni::GNI_RC_SUCCESS) return;
    if (!back_off(ctx, retry_, ++failures, "GNI_Post", c_retry_post_,
                  c_retry_escalations_)) {
      ugni::detail::check_fail(rc, "GNI_Post (retries exhausted)");
    }
  }
}

void ProtocolBase::issue_get(sim::Context& ctx, Endpoint& e,
                             std::uint64_t rid) {
  Endpoint::LargeRecv& lr = e.recvs.at(rid);
  post(ctx, connect(e, lr.peer), lr.desc.get());
  c_rendezvous_gets_->inc();
  if (trace::enabled()) {
    trace::emit(trace::Ev::kRdvGet, ctx.now(), 0, lr.peer,
                static_cast<std::uint32_t>(lr.desc->length));
  }
  if (trace::spans_enabled() && lr.span != 0) {
    trace::span_mark(lr.span, trace::Stage::kTransportPost, lr.pe,
                     ctx.now());
  }
}

LayerStats ProtocolBase::core_stats() const {
  LayerStats out;
  if (!c_smsg_sends_) return out;  // no PE has bound the counters yet
  out.smsg_sends = c_smsg_sends_->value();
  out.rendezvous_gets = c_rendezvous_gets_->value();
  out.credit_stalls = c_credit_stalls_->value();
  out.registrations = c_registrations_->value();
  return out;
}

}  // namespace ugnirt::lrts
