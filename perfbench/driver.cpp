// perfbench_driver: runs ONE instance of one benchmark workload in this
// process and prints one JSON object with everything it measured.
//
//   perfbench_driver --workload <name> --seed <n>
//                    --mode <plain|setup|spans|traced> [--trace-base <path>]
//
// Modes:
//   plain   tracing off; the timed instance behind the end-to-end metrics.
//           Driven workloads build their machine with lrts::make_machine.
//   setup   as plain, but exits after the set-up: a cheap extra set-up
//           sample for setup_s.
//   spans   app workloads only: a global SpanCollector is installed and
//           nothing is timed; their one-way message latency comes from it.
//   traced  the per-layer instance.  Driven workloads get a TimingLayer
//           around the real LRTS layer plus a SpanCollector; app workloads
//           run under the process TraceSession (span sampling on, event
//           rings of one entry), whose files land at --trace-base.
//
// run.py starts this driver once per instance, aggregates the instances of
// a run, checks correctness and determinism, and prints the result.  The
// workloads and every metric are documented in README.md.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/namdmodel/namdmodel.hpp"
#include "apps/nqueens/parallel.hpp"
#include "converse/machine.hpp"
#include "lrts/runtime.hpp"
#include "lrts/smp_layer.hpp"
#include "lrts/ugni_layer.hpp"
#include "timing_layer.hpp"
#include "trace/metrics.hpp"
#include "trace/session.hpp"
#include "trace/spans.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace ugnirt;
using Clock = std::chrono::steady_clock;

/// One message in every `kSpanSample` submits carries a lifecycle span.
constexpr std::uint64_t kSpanSample = 16;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank quantile of `v` (reordered in place); p in (0, 100].
double quantile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

// ---- result ---------------------------------------------------------------

/// What one instance reports.  Values are written with all their digits.
struct Result {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, bool> checks;
  std::map<std::string, double> virt;   // bit-identical per seed
  std::map<std::string, double> info;   // sample counts, results
  std::map<std::string, double> layer;  // per-layer metrics
};

void write_map(std::ostream& out, const char* key,
               const std::map<std::string, double>& m) {
  out << ",\"" << key << "\":{";
  bool first = true;
  char buf[64];
  for (const auto& [k, v] : m) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << (first ? "" : ",") << "\"" << k << "\":"
        << (std::isfinite(v) ? buf : "null");
    first = false;
  }
  out << "}";
}

std::string to_json(const std::string& workload, std::uint64_t seed,
                    const std::string& mode, const Result& r) {
  std::ostringstream out;
  char buf[64];
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"mode\":\"" << mode << "\"";
  std::snprintf(buf, sizeof buf, "%.17g", r.setup_s);
  out << ",\"setup_s\":" << buf;
  std::snprintf(buf, sizeof buf, "%.17g", r.run_s);
  out << ",\"run_s\":" << buf;
  std::snprintf(buf, sizeof buf, "%.17g", peak_rss_mb());
  out << ",\"peak_rss_mb\":" << buf;
  out << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed;
  out << ",\"checks\":{";
  bool first = true;
  for (const auto& [k, v] : r.checks) {
    out << (first ? "" : ",") << "\"" << k << "\":" << (v ? "true" : "false");
    first = false;
  }
  out << "}";
  write_map(out, "virt", r.virt);
  write_map(out, "info", r.info);
  write_map(out, "layer", r.layer);
  out << "}";
  return out.str();
}

// ---- registry readers -----------------------------------------------------

double counter(const trace::MetricsRegistry& reg, const char* name) {
  const trace::Counter* c = reg.find_counter(name);
  return c ? static_cast<double>(c->value()) : 0.0;
}

double gauge(const trace::MetricsRegistry& reg, const char* name) {
  const trace::Gauge* g = reg.find_gauge(name);
  return g ? g->value() : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer counters every workload reads from a machine registry (the
/// machine's own for driven workloads, the TraceSession aggregate for the
/// app workloads).  `pes` normalizes the per-PE memory gauges.
void read_registry(const trace::MetricsRegistry& reg, int pes, Result& r) {
  auto& L = r.layer;
  const double msgs = counter(reg, "converse.msgs_executed");
  L["converse.sched_steps_per_msg"] =
      ratio(counter(reg, "converse.sched_steps"), msgs);

  for (const char* n : {"ugni.smsg_sends", "ugni.rendezvous_gets",
                        "ugni.credit_stalls", "ugni.registrations",
                        "ugni.pxshm_msgs"}) {
    L[n] = counter(reg, n);
  }
  L["ugni.mailbox_bytes_per_pe"] = gauge(reg, "ugni.mailbox_bytes") / pes;
  L["cq.max_depth"] = gauge(reg, "cq.max_depth");

  const double allocs = counter(reg, "mempool.allocs");
  L["mempool.allocs"] = allocs;
  L["mempool.freelist_hit_ratio"] =
      ratio(counter(reg, "mempool.freelist_hits"), allocs);
  L["mempool.expansions"] = counter(reg, "mempool.expansions");
  L["mempool.slab_bytes_per_pe"] = gauge(reg, "mempool.slab_bytes") / pes;

  const double transfers = counter(reg, "net.transfers");
  L["net.transfers"] = transfers;
  L["net.link_waits"] = counter(reg, "net.link_waits");
  L["net.link_wait_ns_per_transfer"] =
      ratio(counter(reg, "net.link_wait_ns"), transfers);
  for (const char* n : {"net.bytes_bte", "net.bytes_fma", "net.bytes_smsg"}) {
    L[n] = counter(reg, n);
  }

  const double flushes = counter(reg, "agg.flushes");
  L["agg.batched"] = counter(reg, "agg.batched");
  L["agg.bypass"] = counter(reg, "agg.bypass");
  L["agg.items_per_flush"] = ratio(counter(reg, "agg.batched"), flushes);
  L["agg.flush_timeout_share"] =
      ratio(counter(reg, "agg.flush_timeout"), flushes);
  for (const char* n : {"smp.comm_thread_sends", "smp.comm_thread_busy_defers",
                        "smp.intra_node_ptr_msgs"}) {
    L[n] = counter(reg, n);
  }
  for (const char* n : {"mpi.sends_e0", "mpi.sends_rndv", "mpi.unexpected",
                        "mpi.udreg_misses"}) {
    L[n] = counter(reg, n);
  }
}

/// span.<stage>.{p50_ns,p99_ns,count} for the nine trace::Stage stages and
/// span.total.*, from the collector's telescoped stage histograms.
void read_spans(const trace::SpanCollector& spans, Result& r) {
  trace::MetricsRegistry reg;
  spans.fill_histograms(reg);
  auto put = [&](const std::string& prefix, const trace::Histogram* h) {
    r.layer[prefix + ".p50_ns"] = h ? h->p50() : 0.0;
    r.layer[prefix + ".p99_ns"] = h ? h->p99() : 0.0;
    r.layer[prefix + ".count"] = h ? static_cast<double>(h->count()) : 0.0;
  };
  for (int i = 0; i < trace::kStageCount; ++i) {
    const char* name = trace::stage_name(static_cast<trace::Stage>(i));
    put(std::string("span.") + name,
        reg.find_histogram(std::string("span.stage.") + name));
  }
  put("span.total", reg.find_histogram("span.total_ns"));
}

/// Exact one-way latency (us) of every sampled message that was delivered,
/// from submit to its last stage before delivery: arrival at the receiver
/// (CQ completion, or the shm queue).  The wait in the receiver's scheduler
/// queue is left out because the app handlers run for up to milliseconds
/// (16-Queens leaf solves, NAMD computes), so it would time the app's own
/// compute rather than the runtime.
void span_latencies(const trace::SpanCollector& spans, Result& r) {
  std::vector<double> lat;
  lat.reserve(spans.span_count());
  for (std::size_t id = 1; id <= spans.span_count(); ++id) {
    const trace::Span* sp = spans.find(static_cast<std::uint32_t>(id));
    if (!sp || sp->marks.size() < 2 ||
        sp->marks.back().stage != trace::Stage::kDeliver) {
      continue;
    }
    const SimTime arrived = sp->marks[sp->marks.size() - 2].t;
    lat.push_back(to_us(arrived - sp->marks.front().t));
  }
  r.info["lat_samples"] = static_cast<double>(lat.size());
  r.virt["virt_lat_p50_us"] = quantile(lat, 50);
  r.virt["virt_lat_p99_us"] = quantile(lat, 99);
}

// ---- round-and-ack exchange (kneighbor-16k, smp-agg-flood) ----------------

struct ExchangeSpec {
  converse::MachineOptions options;
  std::vector<int> offsets;  // destination = (pe + offset) mod pes
  std::uint32_t small_payload = 0;
  std::uint32_t large_payload = 0;
  int rounds = 0;
};

/// Leading bytes of every data and ack payload.
struct Wire {
  std::uint32_t src;
  std::uint32_t dst;
  std::uint32_t seq;    // per-source sequence over all of src's sends
  std::uint32_t round;  // sender's round (data) or the acked round (ack)
  double sent_s;        // CmiWallTimer() at the sender
};

class Exchange {
 public:
  Exchange(const ExchangeSpec& spec, std::uint64_t seed)
      : spec_(spec),
        pes_(spec.options.pes),
        per_src_(static_cast<std::uint32_t>(spec.rounds) *
                 static_cast<std::uint32_t>(spec.offsets.size()) * 2),
        st_(static_cast<std::size_t>(pes_)),
        phase_(static_cast<std::size_t>(pes_)),
        first_(static_cast<std::size_t>(pes_)),
        skew_ns_(static_cast<std::size_t>(pes_)),
        ledger_(static_cast<std::size_t>(pes_) * per_src_, 0),
        round_sum_s_(static_cast<std::size_t>(spec.rounds), 0.0) {
    // The seeded input, per PE: which neighbours get the large payload in
    // even rounds (odd rounds swap them), the neighbour a round's sends
    // start from, and 0..255 ns of modeled work before round 0.
    Rng rng(seed);
    for (std::size_t pe = 0; pe < phase_.size(); ++pe) {
      phase_[pe] = static_cast<std::uint8_t>(rng.next_u64() & 1);
      first_[pe] = static_cast<std::uint8_t>(
          rng.next_below(static_cast<std::uint32_t>(spec.offsets.size())));
      skew_ns_[pe] = static_cast<std::uint8_t>(rng.next_below(256));
    }
    lat_us_.reserve(static_cast<std::size_t>(pes_) * spec.offsets.size() *
                    static_cast<std::size_t>(spec.rounds));
  }
  // Registered handlers capture `this`.
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  /// Register handlers and schedule round 0 on every PE.  `timing` (traced
  /// mode) makes the handlers time themselves net of nested layer calls.
  void install(converse::Machine& m, const TimingLayer* timing) {
    timing_ = timing;
    h_data_ = m.register_handler([this](void* msg) {
      timed([&] { on_data(msg); });
    });
    h_ack_ = m.register_handler([this](void* msg) {
      timed([&] { on_ack(msg); });
    });
    for (int pe = 0; pe < pes_; ++pe) {
      m.start(pe, [this, pe] {
        converse::CmiChargeWork(skew_ns_[static_cast<std::size_t>(pe)]);
        start_round(pe);
      });
    }
  }

  /// Ledger, latency and round results after the machine drained.
  void finish(converse::Machine& m, Result& r) {
    std::uint64_t bad = misrouted_;
    for (std::uint8_t c : ledger_) bad += (c != 1);
    r.attempted = ledger_.size();
    r.failed = bad;
    r.checks["all_rounds_done"] = done_pes_ == pes_;

    const double drain_s = to_s(m.engine().now());
    r.virt["virt_makespan_us"] = (drain_s - first_send_s_) * 1e6;
    double total = 0;
    for (double s : round_sum_s_) total += s;
    r.virt["virt_step_ms"] =
        total / (static_cast<double>(pes_) * spec_.rounds) * 1e3;
    r.info["lat_samples"] = static_cast<double>(lat_us_.size());
    r.virt["virt_lat_p50_us"] = quantile(lat_us_, 50);
    r.virt["virt_lat_p99_us"] = quantile(lat_us_, 99);

    const std::size_t q = round_sum_s_.size() / 4;
    double first = 0, last = 0;
    for (std::size_t i = 0; i < q; ++i) {
      first += round_sum_s_[i];
      last += round_sum_s_[round_sum_s_.size() - 1 - i];
    }
    r.layer["apps.round_drift"] = ratio(last, first);
  }

  std::uint64_t handler_ns() const { return handler_ns_; }

 private:
  struct PeState {
    int round = 0;
    int acks_left = 0;
    double round_start_s = 0;
    std::uint32_t next_seq = 0;
  };

  template <class F>
  void timed(F&& body) {
    if (!timing_) {
      body();
      return;
    }
    const auto t0 = Clock::now();
    const std::uint64_t layer0 = timing_->total_ns();
    body();
    handler_ns_ += ns_since(t0) - (timing_->total_ns() - layer0);
  }

  void send(int me, int dest, std::uint32_t payload, int handler,
            std::uint32_t round) {
    const std::uint32_t total =
        static_cast<std::uint32_t>(converse::kCmiHeaderBytes) + payload;
    void* msg = converse::CmiAlloc(total);
    converse::CmiSetHandler(msg, handler);
    PeState& s = st_[static_cast<std::size_t>(me)];
    const Wire w{static_cast<std::uint32_t>(me),
                 static_cast<std::uint32_t>(dest), s.next_seq++, round,
                 converse::CmiWallTimer()};
    std::memcpy(converse::payload_of(msg), &w, sizeof w);
    converse::CmiSyncSendAndFree(dest, total, msg);
  }

  void start_round(int me) {
    PeState& s = st_[static_cast<std::size_t>(me)];
    s.acks_left = static_cast<int>(spec_.offsets.size());
    s.round_start_s = converse::CmiWallTimer();
    first_send_s_ = std::min(first_send_s_, s.round_start_s);
    const std::size_t k = spec_.offsets.size();
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = (i + first_[static_cast<std::size_t>(me)]) % k;
      const int dest = ((me + spec_.offsets[j]) % pes_ + pes_) % pes_;
      const bool large =
          ((static_cast<std::size_t>(s.round) + j +
            phase_[static_cast<std::size_t>(me)]) & 1) != 0;
      send(me, dest, large ? spec_.large_payload : spec_.small_payload,
           h_data_, static_cast<std::uint32_t>(s.round));
    }
  }

  /// Exactly-once ledger entry for one arriving message.
  Wire receive(void* msg) {
    Wire w;
    std::memcpy(&w, converse::payload_of(msg), sizeof w);
    const int me = converse::CmiMyPe();
    if (static_cast<int>(w.dst) != me ||
        w.src >= static_cast<std::uint32_t>(pes_) || w.seq >= per_src_) {
      ++misrouted_;
    } else {
      std::uint8_t& c =
          ledger_[static_cast<std::size_t>(w.src) * per_src_ + w.seq];
      if (c < 255) ++c;
    }
    converse::CmiFree(msg);
    return w;
  }

  void on_data(void* msg) {
    const Wire w = receive(msg);
    lat_us_.push_back((converse::CmiWallTimer() - w.sent_s) * 1e6);
    send(converse::CmiMyPe(), static_cast<int>(w.src), spec_.small_payload,
         h_ack_, w.round);
  }

  void on_ack(void* msg) {
    receive(msg);
    const int me = converse::CmiMyPe();
    PeState& s = st_[static_cast<std::size_t>(me)];
    if (--s.acks_left > 0) return;
    round_sum_s_[static_cast<std::size_t>(s.round)] +=
        converse::CmiWallTimer() - s.round_start_s;
    if (++s.round < spec_.rounds) {
      start_round(me);
    } else {
      ++done_pes_;
    }
  }

  const ExchangeSpec& spec_;
  const int pes_;
  const std::uint32_t per_src_;
  std::vector<PeState> st_;
  std::vector<std::uint8_t> phase_;
  std::vector<std::uint8_t> first_;
  std::vector<std::uint8_t> skew_ns_;
  std::vector<std::uint8_t> ledger_;  // (src, seq) -> deliveries
  std::uint64_t misrouted_ = 0;
  std::vector<double> lat_us_;
  std::vector<double> round_sum_s_;  // per round, summed over PEs
  double first_send_s_ = std::numeric_limits<double>::infinity();
  int done_pes_ = 0;
  int h_data_ = -1;
  int h_ack_ = -1;
  const TimingLayer* timing_ = nullptr;
  std::uint64_t handler_ns_ = 0;
};

ExchangeSpec kneighbor_spec() {
  ExchangeSpec s;
  s.options.pes = 16384;
  s.options.pes_per_node = 1;
  s.options.layer = converse::LayerKind::kUgni;
  s.options.use_pxshm = false;
  s.options.sim_queue = sim::QueueKind::kCalendar;
  s.offsets = {1, -1, 2, -2};
  s.small_payload = 64;
  s.large_payload = 1024;
  s.rounds = 4;
  return s;
}

// 1,024 nodes rather than 256: at 6,144 PEs the working set sits near the
// last-level cache and one instance's host time swung 2x with co-tenant
// cache pressure; at this size it is memory-bound and steadier.
ExchangeSpec smp_agg_spec() {
  ExchangeSpec s;
  s.options.pes = 24576;
  s.options.pes_per_node = 24;
  s.options.layer = converse::LayerKind::kUgni;
  s.options.smp_mode = true;
  s.options.aggregation.enable = true;
  s.options.sim_queue = sim::QueueKind::kCalendar;
  s.offsets = {24, -24, 48, -48};
  s.small_payload = 32;
  s.large_payload = 32;
  s.rounds = 4;
  return s;
}

std::unique_ptr<converse::MachineLayer> real_layer(
    const converse::MachineOptions& o) {
  if (o.smp_mode) return std::make_unique<lrts::SmpLayer>();
  return std::make_unique<lrts::UgniLayer>();
}

Result run_exchange(ExchangeSpec spec, std::uint64_t seed,
                    const std::string& mode) {
  spec.options.seed = seed;
  const bool traced = mode == "traced";
  Result r;
  trace::SpanCollector spans(trace::SpanConfig{kSpanSample, 1u << 20});
  if (traced) trace::set_span_collector(&spans);

  const auto t0 = Clock::now();
  Exchange ex(spec, seed);  // declared first: the machine's handlers use it
  std::unique_ptr<converse::Machine> m;
  TimingLayer* timing = nullptr;
  if (traced) {
    auto layer = std::make_unique<TimingLayer>(real_layer(spec.options));
    timing = layer.get();
    m = std::make_unique<converse::Machine>(spec.options, std::move(layer));
  } else {
    m = lrts::make_machine(spec.options.layer, spec.options);
  }
  ex.install(*m, timing);
  r.setup_s = seconds_since(t0);
  if (mode == "setup") return r;

  if (timing) timing->reset();
  const auto t1 = Clock::now();
  m->run();
  const std::uint64_t run_ns = ns_since(t1);
  r.run_s = static_cast<double>(run_ns) * 1e-9;

  ex.finish(*m, r);
  m->collect_metrics();
  const trace::MetricsRegistry& reg = m->metrics();
  r.checks["engine_pending_zero"] = m->engine().pending() == 0;
  r.checks["mempool_outstanding_zero"] =
      gauge(reg, "mempool.outstanding") == 0;

  if (traced) {
    trace::set_span_collector(nullptr);
    read_registry(reg, spec.options.pes, r);
    read_spans(spans, r);
    auto& L = r.layer;
    const double msgs = counter(reg, "converse.msgs_executed");
    const double events = static_cast<double>(m->engine().executed());
    L["sim.events"] = events;
    auto per_call = [](const LayerCall& c) {
      return ratio(static_cast<double>(c.ns), static_cast<double>(c.calls));
    };
    L["lrts.submit_host_ns"] = per_call(timing->submit_calls());
    L["lrts.advance_host_ns"] = per_call(timing->advance_calls());
    L["lrts.alloc_host_ns"] = per_call(timing->alloc_calls());
    L["lrts.free_host_ns"] = per_call(timing->free_calls());
    L["lrts.advance_calls_per_msg"] =
        ratio(static_cast<double>(timing->advance_calls().calls), msgs);
    const double layer_ns = static_cast<double>(timing->total_ns());
    const double handler_ns = static_cast<double>(ex.handler_ns());
    L["lrts.host_share"] = ratio(layer_ns, static_cast<double>(run_ns));
    L["lrts.outside_host_ns_per_msg"] =
        ratio(static_cast<double>(run_ns) - layer_ns - handler_ns, msgs);
    L["converse.handler_host_ns"] = ratio(handler_ns, msgs);
  }
  return r;
}

// ---- app workloads (namd-apoa1, nqueens-mpi) ------------------------------

/// The machine an app builds inside its own call, built (and dropped) by
/// the benchmark before the call so its construction cost can be timed.
double probe_setup_s(const converse::MachineOptions& o) {
  const auto t0 = Clock::now();
  auto m = lrts::make_machine(o.layer, o);
  return seconds_since(t0);
}

constexpr int kNamdPes = 3840;
constexpr int kNamdSteps = 20;
constexpr std::uint64_t kQueens16 = 14'772'512;

Result run_namd(std::uint64_t seed, const std::string& mode) {
  converse::MachineOptions o;
  o.pes = kNamdPes;
  o.layer = converse::LayerKind::kUgni;
  o.seed = seed;
  apps::namdmodel::NamdConfig cfg;
  cfg.system = apps::namdmodel::apoa1();
  // The seeded input: 0..15 ns more work per atom-step (<0.08% of the
  // 21,400 ns calibration).  The patch decomposition depends only on the
  // atom count, so it is that of stock ApoA1 on every seed.
  cfg.ns_per_atom_step += static_cast<SimTime>(seed % 16);
  cfg.steps = kNamdSteps;

  Result r;
  if (mode != "traced") r.setup_s = probe_setup_s(o);
  if (mode == "setup") return r;
  trace::SpanCollector spans(trace::SpanConfig{kSpanSample, 1u << 20});
  if (mode == "spans") trace::set_span_collector(&spans);

  const auto t0 = Clock::now();
  const apps::namdmodel::NamdResult res =
      apps::namdmodel::run_namd_model(o, cfg);
  r.run_s = seconds_since(t0);

  const int steps = cfg.warmup_steps + cfg.steps;
  const bool complete = std::isfinite(res.ms_per_step) && res.ms_per_step > 0;
  r.attempted = static_cast<std::uint64_t>(steps);
  r.failed = complete ? 0 : static_cast<std::uint64_t>(steps);
  r.virt["virt_step_ms"] = res.ms_per_step;
  r.virt["virt_makespan_us"] = res.ms_per_step * cfg.steps * 1e3;
  if (mode == "spans") {
    trace::set_span_collector(nullptr);
    span_latencies(spans, r);
  }
  if (mode == "traced") {
    trace::TraceSession* session = trace::TraceSession::active();
    read_registry(session->metrics(), kNamdPes, r);
    read_spans(*session->span_collector(), r);
    r.checks["mempool_outstanding_zero"] =
        gauge(session->metrics(), "mempool.outstanding") == 0;
    r.layer["charm.lb_migrations"] = res.migrations;
    r.layer["charm.lb_max_load_ratio"] =
        ratio(res.lb_max_after, res.lb_max_before);
  }
  return r;
}

Result run_nqueens(std::uint64_t seed, const std::string& mode) {
  converse::MachineOptions o;
  o.pes = 960;
  o.layer = converse::LayerKind::kMpi;
  o.seed = seed;  // drives the seed balancer's random task placement
  apps::nqueens::NQueensConfig cfg;
  cfg.n = 16;
  cfg.threshold = 5;

  Result r;
  if (mode != "traced") r.setup_s = probe_setup_s(o);
  if (mode == "setup") return r;
  trace::SpanCollector spans(trace::SpanConfig{kSpanSample, 1u << 20});
  if (mode == "spans") trace::set_span_collector(&spans);

  const auto t0 = Clock::now();
  const apps::nqueens::NQueensResult res = apps::nqueens::run_nqueens(o, cfg);
  r.run_s = seconds_since(t0);

  r.attempted = 1;
  r.failed = res.solutions == kQueens16 ? 0 : 1;
  r.info["solutions"] = static_cast<double>(res.solutions);
  r.virt["virt_makespan_us"] = to_us(res.elapsed);
  // The search is one step: quiescence ends it.
  r.virt["virt_step_ms"] = to_ms(res.elapsed);
  if (mode == "spans") {
    trace::set_span_collector(nullptr);
    span_latencies(spans, r);
  }
  if (mode == "traced") {
    trace::TraceSession* session = trace::TraceSession::active();
    read_registry(session->metrics(), o.pes, r);
    read_spans(*session->span_collector(), r);
    r.layer["charm.qd_waves"] = res.qd_waves;
    r.layer["apps.nq_tasks"] = static_cast<double>(res.tasks);
  }
  return r;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<kneighbor-16k|namd-apoa1|smp-agg-flood|nqueens-mpi> "
               "--seed <n> --mode <plain|setup|spans|traced> "
               "[--trace-base <path>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, mode = "plain", trace_base = "perfbench_trace";
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--mode") {
      mode = val;
    } else if (key == "--trace-base") {
      trace_base = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed ||
      (mode != "plain" && mode != "setup" && mode != "spans" &&
       mode != "traced")) {
    return usage();
  }
  const bool app = workload == "namd-apoa1" || workload == "nqueens-mpi";
  if (app && mode == "traced") {
    // The app workloads build their machine inside the app call; its
    // registry reaches the benchmark only through the process
    // TraceSession, which reads these before its first use.
    setenv("UGNIRT_SPAN_SAMPLE", std::to_string(kSpanSample).c_str(), 1);
    setenv("UGNIRT_TRACE_RING", "1", 1);
    setenv("UGNIRT_TRACE_FILE", trace_base.c_str(), 1);
    trace::TraceSession::active();  // installs the span collector now
  }

  Result r;
  if (workload == "kneighbor-16k") {
    r = run_exchange(kneighbor_spec(), seed, mode);
  } else if (workload == "smp-agg-flood") {
    r = run_exchange(smp_agg_spec(), seed, mode);
  } else if (workload == "namd-apoa1") {
    r = run_namd(seed, mode);
  } else if (workload == "nqueens-mpi") {
    r = run_nqueens(seed, mode);
  } else {
    return usage();
  }
  std::printf("%s\n", to_json(workload, seed, mode, r).c_str());
  std::fflush(stdout);
  return 0;
}
