// Congestion-control subsystem tests: FlowConfig round-trip + env
// overrides, the EWMA congestion estimator, the AIMD injection governor
// (admission, pacing, threshold adaptation), LinkSchedule reservation
// properties (sorted/bounded intervals, backfill past stale cursors),
// congestion-aware adaptive routing, the hotspot end-to-end path with
// pacing on (zero loss, stalls drained) on both uGNI machine layers, the
// fault-matrix rerun with flow control enabled, and seeded determinism of
// the traced timelines (per-PE and SMP).
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "converse/machine.hpp"
#include "fault/fault.hpp"
#include "flowcontrol/config.hpp"
#include "flowcontrol/flowcontrol.hpp"
#include "gemini/network.hpp"
#include "lrts/runtime.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ugnirt {
namespace {

using converse::CmiAlloc;
using converse::CmiFree;
using converse::CmiMyPe;
using converse::CmiSetHandler;
using converse::CmiSyncSendAndFree;
using converse::kCmiHeaderBytes;
using converse::LayerKind;
using converse::MachineOptions;
using flowcontrol::CongestionEstimator;
using flowcontrol::FlowConfig;
using flowcontrol::InjectionGovernor;

// ----------------------------------------------------------------- config ----

TEST(FlowConfig, RoundTrip) {
  FlowConfig p;
  p.enable = true;
  p.ewma_alpha = 0.25;
  p.hot_threshold = 0.4;
  p.window_min = 3;
  p.window_max = 48;
  p.window_start = 12;
  p.aimd_increase = 2.0;
  p.aimd_decrease = 0.75;
  p.pace_rendezvous = false;
  p.adaptive_routing = true;
  p.adapt_thresholds = false;
  p.sample_period_ns = 12345;
  Config cfg;
  write_knobs(p, cfg);
  FlowConfig q;
  read_knobs(cfg, q);
  EXPECT_TRUE(q.enable);
  EXPECT_DOUBLE_EQ(q.ewma_alpha, 0.25);
  EXPECT_DOUBLE_EQ(q.hot_threshold, 0.4);
  EXPECT_EQ(q.window_min, 3u);
  EXPECT_EQ(q.window_max, 48u);
  EXPECT_EQ(q.window_start, 12u);
  EXPECT_DOUBLE_EQ(q.aimd_increase, 2.0);
  EXPECT_DOUBLE_EQ(q.aimd_decrease, 0.75);
  EXPECT_FALSE(q.pace_rendezvous);
  EXPECT_TRUE(q.adaptive_routing);
  EXPECT_FALSE(q.adapt_thresholds);
  EXPECT_EQ(q.sample_period_ns, 12345);
}

// Hostile overrides cannot wedge the governor: the window floor stays
// >= 1 and the start is clamped into [min, max].
TEST(FlowConfig, ClampsWindowBounds) {
  Config cfg;
  cfg.set("flow.window_min", "0");
  cfg.set("flow.window_max", "0");
  cfg.set("flow.window_start", "99");
  FlowConfig f;
  read_knobs(cfg, f);
  EXPECT_GE(f.window_min, 1u);
  EXPECT_GE(f.window_max, f.window_min);
  EXPECT_GE(f.window_start, f.window_min);
  EXPECT_LE(f.window_start, f.window_max);
}

TEST(FlowConfig, EnvOverridesApplyInMakeMachine) {
  ::setenv("UGNIRT_FLOW_ENABLE", "1", 1);
  ::setenv("UGNIRT_FLOW_WINDOW_START", "4", 1);
  ::setenv("UGNIRT_FLOW_ADAPTIVE_ROUTING", "1", 1);
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  ::unsetenv("UGNIRT_FLOW_ENABLE");
  ::unsetenv("UGNIRT_FLOW_WINDOW_START");
  ::unsetenv("UGNIRT_FLOW_ADAPTIVE_ROUTING");
  EXPECT_TRUE(m->options().flow.enable);
  EXPECT_EQ(m->options().flow.window_start, 4u);
  EXPECT_TRUE(m->options().flow.adaptive_routing);
  EXPECT_NE(m->congestion_estimator(), nullptr);
  EXPECT_EQ(m->network().congestion_estimator(), m->congestion_estimator());
}

/// Flow control on either uGNI machine layer: per-PE NICs, or SMP with 2
/// workers per node so a comm thread carries the inter-node traffic.
class FlowConfigPerLayer : public ::testing::TestWithParam<bool> {};
class FlowEndToEndPerLayer : public ::testing::TestWithParam<bool> {};

std::string layer_name(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "SMP" : "uGNI";
}

MachineOptions layer_options(bool smp, int pes) {
  MachineOptions o;
  o.layer = LayerKind::kUgni;
  o.pes = pes;
  o.smp_mode = smp;
  o.pes_per_node = smp ? 2 : 1;
  return o;
}

// Defaults preserve stock behavior: no estimator is even constructed and
// the metric dump carries no flow.* rows (byte-compat with the seed).
TEST_P(FlowConfigPerLayer, DisabledByDefaultLeavesStockMachine) {
  auto m = lrts::make_machine(LayerKind::kUgni, layer_options(GetParam(), 4));
  EXPECT_FALSE(m->options().flow.enable);
  EXPECT_EQ(m->congestion_estimator(), nullptr);
  EXPECT_EQ(m->network().congestion_estimator(), nullptr);
  EXPECT_EQ(m->layer().governor(), nullptr);
  m->collect_metrics();
  std::ostringstream csv;
  m->metrics().write_csv(csv);
  EXPECT_EQ(csv.str().find("flow."), std::string::npos);
  EXPECT_EQ(csv.str().find("net.adaptive_reroutes"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Layers, FlowConfigPerLayer, ::testing::Bool(),
                         layer_name);

// -------------------------------------------------------------- estimator ----

TEST(FlowEstimator, WaitFreeTrafficKeepsLoadZero) {
  FlowConfig cfg;
  CongestionEstimator est(cfg, 6, 1);
  for (int i = 0; i < 100; ++i) {
    est.on_link_reserve(0, 0, /*wait_ns=*/0, /*duration_ns=*/1000, i * 1000);
  }
  EXPECT_DOUBLE_EQ(est.link_load(0), 0.0);
  EXPECT_DOUBLE_EQ(est.node_load(0), 0.0);
  EXPECT_FALSE(est.node_hot(0));
  EXPECT_EQ(est.samples(), 100u);
}

TEST(FlowEstimator, SustainedQueueingConvergesTowardWaitFraction) {
  FlowConfig cfg;  // alpha = 0.125
  CongestionEstimator est(cfg, 6, 1);
  // Every reservation waits 3x its service time: sample = 0.75.
  double prev = 0.0;
  for (int i = 0; i < 80; ++i) {
    est.on_link_reserve(2, 0, /*wait_ns=*/3000, /*duration_ns=*/1000,
                        i * 1000);
    EXPECT_GT(est.link_load(2), prev);  // monotone approach from below
    prev = est.link_load(2);
  }
  EXPECT_NEAR(est.link_load(2), 0.75, 0.01);
  EXPECT_NEAR(est.node_load(0), 0.75, 0.01);
  EXPECT_TRUE(est.node_hot(0));
  // The untouched link stays cold.
  EXPECT_DOUBLE_EQ(est.link_load(0), 0.0);
}

TEST(FlowEstimator, HotRecoversWhenCongestionClears) {
  FlowConfig cfg;
  cfg.ewma_alpha = 0.25;
  CongestionEstimator est(cfg, 6, 2);
  for (int i = 0; i < 40; ++i) {
    est.on_link_reserve(1, 1, 1000, 1000, i * 1000);  // sample = 0.5
  }
  ASSERT_TRUE(est.node_hot(1));
  for (int i = 0; i < 40; ++i) {
    est.on_link_reserve(1, 1, 0, 1000, (40 + i) * 1000);  // sample = 0
  }
  EXPECT_FALSE(est.node_hot(1));
  EXPECT_LT(est.link_load(1), 0.01);
}

// --------------------------------------------------------------- governor ----

TEST(FlowGovernor, AdmitsUpToWindowThenStalls) {
  FlowConfig cfg;
  cfg.window_start = 4;
  auto gov_p = flowcontrol::make_governor(cfg, nullptr, 2);
  InjectionGovernor& gov = *gov_p;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(gov.would_admit(0));
    EXPECT_TRUE(gov.try_acquire(0, 1, 4096, i));
  }
  EXPECT_EQ(gov.outstanding(0), 4u);
  EXPECT_FALSE(gov.would_admit(0));
  EXPECT_FALSE(gov.try_acquire(0, 1, 4096, 99));
  // Windows are per PE: PE 1 is unaffected.
  EXPECT_TRUE(gov.would_admit(1));
  // A completion frees exactly one slot.
  gov.on_complete(0, 0, 100);
  EXPECT_EQ(gov.outstanding(0), 3u);
  EXPECT_TRUE(gov.would_admit(0));
}

TEST(FlowGovernor, PacingOffNeverRefuses) {
  FlowConfig cfg;
  cfg.window_start = 1;
  cfg.pace_rendezvous = false;
  auto gov_p = flowcontrol::make_governor(cfg, nullptr, 1);
  InjectionGovernor& gov = *gov_p;
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(gov.try_acquire(0, 0, 128, i));
  }
  EXPECT_EQ(gov.outstanding(0), 32u);
}

TEST(FlowGovernor, CoolCompletionsGrowWindowAdditively) {
  FlowConfig cfg;
  cfg.window_start = 2;
  cfg.window_max = 8;
  auto gov_p = flowcontrol::make_governor(cfg, nullptr, 1);  // no estimator
  InjectionGovernor& gov = *gov_p;  // (null estimator: always cool)
  // cwnd += increase/cwnd per completion: one window's worth of
  // completions adds ~1 to the window (classic AIMD congestion
  // avoidance), so it takes a while — but it must reach the cap.
  for (int i = 0; i < 200; ++i) {
    gov.note_post(0);
    gov.on_complete(0, 0, i);
  }
  EXPECT_EQ(gov.window(0), cfg.window_max);
}

TEST(FlowGovernor, HotCompletionsShrinkWindowMultiplicativelyToFloor) {
  FlowConfig cfg;
  cfg.window_start = 32;
  cfg.window_min = 2;
  CongestionEstimator est(cfg, 6, 1);
  for (int i = 0; i < 40; ++i) {
    est.on_link_reserve(0, 0, 3000, 1000, i * 1000);  // node 0 hot
  }
  ASSERT_TRUE(est.node_hot(0));
  auto gov_p = flowcontrol::make_governor(cfg, &est, 1);
  InjectionGovernor& gov = *gov_p;
  gov.note_post(0);
  gov.on_complete(0, 0, 0);
  EXPECT_EQ(gov.window(0), 16u);  // 32 * 0.5
  gov.on_complete(0, 0, 1);
  gov.on_complete(0, 0, 2);
  gov.on_complete(0, 0, 3);
  EXPECT_EQ(gov.window(0), 2u);  // floored at window_min
  gov.on_complete(0, 0, 4);
  EXPECT_EQ(gov.window(0), 2u);  // never below the floor
}

TEST(FlowGovernor, ThresholdsAdaptOnlyWhileHot) {
  FlowConfig cfg;
  CongestionEstimator est(cfg, 6, 2);
  for (int i = 0; i < 40; ++i) {
    est.on_link_reserve(0, 0, 3000, 1000, i * 1000);  // node 0: load ~0.75
  }
  ASSERT_GE(est.node_load(0), 2 * cfg.hot_threshold);
  ASSERT_FALSE(est.node_hot(1));
  auto gov_p = flowcontrol::make_governor(cfg, &est, 1);
  InjectionGovernor& gov = *gov_p;
  // Cool destination: the configured constants pass through untouched.
  EXPECT_EQ(gov.eager_cap(1024, 1), 1024u);
  EXPECT_EQ(gov.rdma_threshold(16384, 1), 16384u);
  // Very hot destination: eager cap quarters, FMA/BTE boundary halves.
  EXPECT_EQ(gov.eager_cap(1024, 0), 256u);
  EXPECT_EQ(gov.rdma_threshold(16384, 0), 8192u);
  // Floors: tiny bases never adapt below the protocol minima.
  EXPECT_EQ(gov.eager_cap(136, 0), 128u);
  EXPECT_EQ(gov.rdma_threshold(1024, 0), 1024u);
  // Adaptation is a knob.
  FlowConfig fixed = cfg;
  fixed.adapt_thresholds = false;
  auto gov2_p = flowcontrol::make_governor(fixed, &est, 1);
  InjectionGovernor& gov2 = *gov2_p;
  EXPECT_EQ(gov2.eager_cap(1024, 0), 1024u);
  EXPECT_EQ(gov2.rdma_threshold(16384, 0), 16384u);
}

// ----------------------------------------------- LinkSchedule properties ----

// Random seeded reservation sequences preserve the schedule invariants:
// intervals sorted by start, non-overlapping, bounded by kMaxIntervals,
// and every returned start honors `earliest`.
TEST(LinkScheduleProperty, InvariantsUnderRandomReservations) {
  for (std::uint64_t seed : {1ull, 42ull, 0xBEEFull, 0xF10ull}) {
    Rng rng(seed);
    gemini::LinkSchedule sched;
    SimTime clock = 0;
    for (int i = 0; i < 500; ++i) {
      // A mix of in-order, stale (behind the clock) and far-future
      // cursors, like concurrent PEs with skewed local times produce.
      const SimTime earliest =
          std::max<SimTime>(0, clock + static_cast<SimTime>(
                                            rng.next_below(20000)) -
                                   5000);
      const SimTime duration = 1 + rng.next_below(2000);
      bool waited = false;
      const SimTime start = sched.reserve(earliest, duration, &waited);
      EXPECT_GE(start, earliest);
      if (!waited) {
        EXPECT_EQ(start, earliest);
      }
      clock += rng.next_below(1500);

      const auto& iv = sched.intervals();
      ASSERT_LE(iv.size(), gemini::LinkSchedule::kMaxIntervals);
      for (std::size_t k = 0; k < iv.size(); ++k) {
        EXPECT_LT(iv[k].start, iv[k].end);
        if (k > 0) {
          EXPECT_GT(iv[k].start, iv[k - 1].end);  // strict gaps
        }
      }
    }
    EXPECT_EQ(sched.reservations(), 500u);
  }
}

// Backfill: a reservation parked far in the future must not block the
// link for earlier traffic — a stale cursor slots into the idle gap in
// front of it without waiting.
TEST(LinkScheduleProperty, StaleCursorBackfillsBeforeFutureReservation) {
  gemini::LinkSchedule sched;
  bool waited = false;
  EXPECT_EQ(sched.reserve(1'000'000, 5000, &waited), 1'000'000);
  EXPECT_FALSE(waited);
  // An at-time-0 sender fits long before the future-dated interval.
  waited = false;
  EXPECT_EQ(sched.reserve(0, 5000, &waited), 0);
  EXPECT_FALSE(waited);
  // A request that does NOT fit in the gap queues behind the future one.
  waited = false;
  EXPECT_EQ(sched.reserve(999'000, 5000, &waited), 1'005'000);
  EXPECT_TRUE(waited);
  EXPECT_EQ(sched.waits(), 1u);
}

// Reserving past every existing interval always starts exactly at
// `earliest` — pruning may over-reserve inside the busy span but must
// never extend it rightward.
TEST(LinkScheduleProperty, ReservePastAllIntervalsStartsImmediately) {
  Rng rng(7);
  gemini::LinkSchedule sched;
  SimTime horizon = 0;
  bool waited = false;
  for (int i = 0; i < 100; ++i) {
    const SimTime duration = 1 + rng.next_below(3000);
    const SimTime earliest = horizon + 1 + rng.next_below(500);
    waited = false;
    EXPECT_EQ(sched.reserve(earliest, duration, &waited), earliest);
    EXPECT_FALSE(waited);
    horizon = earliest + duration;
  }
  EXPECT_EQ(sched.waits(), 0u);
}

// --------------------------------------------------------- traffic helper ----

MachineOptions flow_options(int pes, bool enable = true) {
  MachineOptions o;
  o.layer = LayerKind::kUgni;
  o.pes = pes;
  o.pes_per_node = 1;  // every PE has its own NIC and torus links
  o.flow.enable = enable;
  return o;
}

/// Hotspot: every PE != 0 streams `msgs` rendezvous-sized messages at PE
/// 0 (the paper's one-to-all inverse — the congestion pattern flow
/// control targets).  Returns messages received at PE 0.
int run_hotspot(converse::Machine& m, int msgs, std::uint32_t payload) {
  const int pes = m.num_pes();
  int received = 0;
  int h = m.register_handler([&](void* msg) {
    ++received;
    CmiFree(msg);
  });
  const std::uint32_t total = payload + kCmiHeaderBytes;
  for (int pe = 1; pe < pes; ++pe) {
    m.start(pe, [&m, msgs, total, h] {
      for (int i = 0; i < msgs; ++i) {
        void* msg = CmiAlloc(total);
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(0, total, msg);
      }
    });
  }
  m.run();
  return received;
}

// ------------------------------------------------------ end-to-end pacing ----

// A tight window under hotspot load forces injection stalls; every
// deferred GET must still drain (no loss, no deadlock) and the flow.*
// observability surface must be populated.  In SMP mode the governor is
// keyed by the receiving worker and PE 0's comm thread drains its GETs.
TEST_P(FlowEndToEndPerLayer, HotspotPacingStallsButLosesNothing) {
  trace::EventTracer tracer(1u << 18);
  trace::set_tracer(&tracer);
  auto o = layer_options(GetParam(), 8);
  o.flow.enable = true;
  o.flow.window_min = 1;
  o.flow.window_start = 1;
  o.flow.window_max = 2;
  constexpr int kMsgs = 6;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  const int received = run_hotspot(*m, kMsgs, 16 * 1024);
  m->collect_metrics();
  trace::set_tracer(nullptr);
  EXPECT_EQ(received, 7 * kMsgs);

  EXPECT_GT(m->metrics().counter("flow.injection_stalls").value(), 0u);
  EXPECT_GT(m->metrics().counter("flow.admits").value(), 0u);
  EXPECT_GT(m->metrics().counter("flow.samples").value(), 0u);
  EXPECT_GT(tracer.count_of(trace::Ev::kInjectionStall), 0u);
  EXPECT_GT(tracer.count_of(trace::Ev::kCongestionSample), 0u);

  std::ostringstream csv;
  m->metrics().write_csv(csv);
  const std::string s = csv.str();
  for (const char* name :
       {"flow.samples", "flow.injection_stalls", "flow.admits",
        "flow.window_avg", "flow.max_link_load", "net.adaptive_reroutes"}) {
    EXPECT_NE(s.find(name), std::string::npos) << "metric " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Layers, FlowEndToEndPerLayer, ::testing::Bool(),
                         layer_name);

// Adaptive routing steers minimal routes off loaded links under hotspot
// pressure — and stays strictly on stock routes when the knob is off.
TEST(FlowEndToEnd, AdaptiveRoutingReroutesUnderHotspot) {
  for (bool adaptive : {false, true}) {
    auto o = flow_options(12);
    o.flow.adaptive_routing = adaptive;
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    const int received = run_hotspot(*m, 8, 16 * 1024);
    EXPECT_EQ(received, 11 * 8);
    const auto& st = m->network().stats();
    if (adaptive) {
      EXPECT_GT(st.adaptive_reroutes, 0u);
    } else {
      EXPECT_EQ(st.adaptive_reroutes, 0u);
    }
  }
}

// One SMP comm thread drains the deferred GETs of all its workers.  A
// worker whose window is full must not hold back another worker's GETs:
// PE 1's second GET, deferred behind PE 0's, is re-admitted as soon as
// PE 1's own window frees, before PE 0's queue drains.
TEST(FlowSmp, RefusedWorkerDoesNotBlockAnotherWorkersDeferredGets) {
  auto o = layer_options(/*smp=*/true, 4);  // node 0: PEs 0,1; node 1: 2,3
  o.flow.enable = true;
  o.flow.window_min = 1;
  o.flow.window_start = 1;
  o.flow.window_max = 1;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  std::vector<SimTime> at0, at1;
  int h = m->register_handler([&](void* msg) {
    const SimTime now = converse::Machine::running()->current_pe().ctx().now();
    (CmiMyPe() == 0 ? at0 : at1).push_back(now);
    CmiFree(msg);
  });
  const std::uint32_t total = 4 * 1024 + kCmiHeaderBytes;  // rendezvous
  m->start(2, [&, h] {
    for (int dest : {0, 0, 0, 0, 0, 0, 0, 0, 1, 1}) {
      void* msg = CmiAlloc(total);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(dest, total, msg);
    }
  });
  m->run();
  m->collect_metrics();
  ASSERT_EQ(at0.size(), 8u);
  ASSERT_EQ(at1.size(), 2u);
  EXPECT_GT(m->metrics().counter("flow.injection_stalls").value(), 0u);
  // Node 0's GETs share one BTE FIFO, so delivery order is GET order:
  // queued behind PE 0's deferred GETs, PE 1's second would land last.
  EXPECT_LT(at1[1], at0.back());
}

// ------------------------------------------------------------ fault matrix ---

fault::FaultPlan base_plan() {
  fault::FaultPlan p;
  p.enabled = true;
  p.seed = 0xF10;
  return p;
}

/// k-neighbor exchange (same shape as the aggregation suite) returning
/// per-PE receive counts.
std::vector<int> run_kneighbor(converse::Machine& m, int k, int msgs,
                               std::uint32_t payload) {
  const int pes = m.num_pes();
  std::vector<int> received(static_cast<std::size_t>(pes), 0);
  int h = m.register_handler([&](void* msg) {
    received[static_cast<std::size_t>(CmiMyPe())]++;
    CmiFree(msg);
  });
  const std::uint32_t total = payload + kCmiHeaderBytes;
  for (int pe = 0; pe < pes; ++pe) {
    m.start(pe, [&m, pe, pes, k, msgs, total, h] {
      for (int i = 0; i < msgs; ++i) {
        for (int d = 1; d <= k; ++d) {
          for (int dest : {(pe + d) % pes, (pe - d + pes) % pes}) {
            void* msg = CmiAlloc(total);
            CmiSetHandler(msg, h);
            CmiSyncSendAndFree(dest, total, msg);
          }
        }
      }
    });
  }
  m.run();
  return received;
}

// The full 7-class fault matrix reruns with flow control AND adaptive
// routing on: pacing defers GETs and rerouting changes link orders, but
// retry/backoff must still deliver everything exactly once.
TEST(FlowFault, MatrixZeroLossWithFlowControlEnabled) {
  struct Case {
    const char* label;
    fault::FaultPlan plan;
  };
  std::vector<Case> cases;
  {
    Case c{"post_error", base_plan()};
    c.plan.p_post_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"reg_error", base_plan()};
    c.plan.p_reg_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"smsg_error", base_plan()};
    c.plan.p_smsg_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"cq_overrun", base_plan()};
    c.plan.p_cq_overrun = 0.05;
    cases.push_back(c);
  }
  {
    Case c{"smsg_starve", base_plan()};
    c.plan.p_smsg_starve = 0.2;
    c.plan.smsg_starve_ns = 20000;
    cases.push_back(c);
  }
  {
    Case c{"link_degrade", base_plan()};
    c.plan.p_link_degrade = 0.3;
    c.plan.link_slowdown = 8.0;
    cases.push_back(c);
  }
  {
    Case c{"link_blackout", base_plan()};
    c.plan.p_link_blackout = 0.2;
    c.plan.link_blackout_ns = 100000;
    cases.push_back(c);
  }
  for (const Case& fc : cases) {
    auto o = flow_options(8);
    o.flow.adaptive_routing = true;
    o.flow.window_start = 2;
    o.fault = fc.plan;
    constexpr int kK = 2, kMsgs = 4;
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    // 4 KiB payloads: rendezvous-size, so the faulted wire carries
    // governed GETs, not just SMSG.
    auto received = run_kneighbor(*m, kK, kMsgs, 4096);
    for (int pe = 0; pe < 8; ++pe) {
      EXPECT_EQ(received[static_cast<std::size_t>(pe)], 2 * kK * kMsgs)
          << fc.label << " pe " << pe;
    }
  }
}

// ------------------------------------------------------------ determinism ----

std::string traced_flow_run(std::uint64_t seed, bool smp = false) {
  trace::EventTracer tracer(1u << 18);
  trace::set_tracer(&tracer);
  auto o = smp ? layer_options(true, 8) : flow_options(8);
  o.flow.enable = true;
  o.flow.adaptive_routing = true;
  o.flow.window_min = 1;
  o.flow.window_start = 1;
  o.flow.window_max = 4;
  o.fault = base_plan();
  o.fault.seed = seed;
  o.fault.p_post_error = 0.2;
  o.fault.p_link_degrade = 0.2;
  o.fault.link_slowdown = 4.0;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  const int received = run_hotspot(*m, 4, 8 * 1024);
  EXPECT_EQ(received, 7 * 4);
  m->collect_metrics();
  trace::set_tracer(nullptr);
  std::ostringstream out;
  tracer.write_csv(out);          // full virtual-time event timeline
  m->metrics().write_csv(out);    // plus the counter surface
  return out.str();
}

// Same seeds + same flow config => identical virtual-time timelines:
// estimator and governor state are pure functions of the deterministic
// reserve/completion sequences, so congestion control cannot introduce
// run-to-run divergence.
TEST(FlowDeterminism, SameSeedSameEventTraceWithFlowControl) {
  const std::string a = traced_flow_run(0xF10);
  const std::string b = traced_flow_run(0xF10);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("injection_stall"), std::string::npos);
}

// The same holds when SMP comm threads drive the governed GETs.
TEST(FlowDeterminism, SmpSameSeedSameEventTraceWithFlowControl) {
  const std::string a = traced_flow_run(0xF10, /*smp=*/true);
  const std::string b = traced_flow_run(0xF10, /*smp=*/true);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("injection_stall"), std::string::npos);
}

}  // namespace
}  // namespace ugnirt
