// Multi-tenancy subsystem tests: TenancyConfig round-trip + clamps + env
// overrides through make_machine, declarative job-spec parsing, placement
// properties (partition/inverse-map invariants for every policy, seeded
// determinism of the random shuffle), QoS classes landing in the
// InjectionGovernor as window bounds + drain quotas, generator message
// accounting, seeded determinism of full two-tenant timelines across
// queue backends, the 7-class fault-matrix rerun with
// two tenants (zero loss in both jobs), per-job metrics/link attribution,
// and the tracer's opt-in `job` column.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "converse/machine.hpp"
#include "fault/fault.hpp"
#include "flowcontrol/flowcontrol.hpp"
#include "lrts/runtime.hpp"
#include "tenancy/generators.hpp"
#include "tenancy/tenancy.hpp"
#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "util/config.hpp"

namespace ugnirt {
namespace {

using converse::LayerKind;
using converse::MachineOptions;
using tenancy::GeneratorOptions;
using tenancy::JobManager;
using tenancy::JobSpec;
using tenancy::Placement;
using tenancy::QosClass;
using tenancy::TenancyConfig;
using tenancy::TrafficGenerator;
using tenancy::TrafficPattern;

// ----------------------------------------------------------------- config ----

TEST(TenancyConfig, RoundTrip) {
  TenancyConfig t;
  t.enable = true;
  t.placement = "scatter";
  t.seed = 0xBEEF;
  t.jobs = "victim:latency:8,storm:bulk:24";
  t.qos_enable = false;
  t.qos_latency_floor = 5;
  t.qos_bulk_ceiling = 6;
  t.qos_bulk_quota = 3;
  t.qos_scavenger_ceiling = 4;
  t.qos_scavenger_quota = 2;
  Config cfg;
  write_knobs(t, cfg);
  TenancyConfig q;
  read_knobs(cfg, q);
  EXPECT_TRUE(q.enable);
  EXPECT_EQ(q.placement, "scatter");
  EXPECT_EQ(q.seed, 0xBEEFu);
  EXPECT_EQ(q.jobs, "victim:latency:8,storm:bulk:24");
  EXPECT_FALSE(q.qos_enable);
  EXPECT_EQ(q.qos_latency_floor, 5u);
  EXPECT_EQ(q.qos_bulk_ceiling, 6u);
  EXPECT_EQ(q.qos_bulk_quota, 3u);
  EXPECT_EQ(q.qos_scavenger_ceiling, 4u);
  EXPECT_EQ(q.qos_scavenger_quota, 2u);
}

// Hostile overrides cannot demote latency jobs to best-effort (floor 0)
// or wedge bulk jobs outright (ceiling 0); junk placements fall back to
// compact instead of aborting the run.
TEST(TenancyConfig, ClampsKeepClassesMeaningful) {
  Config cfg;
  cfg.set("tenancy.qos_latency_floor", "0");
  cfg.set("tenancy.qos_bulk_ceiling", "0");
  cfg.set("tenancy.qos_scavenger_ceiling", "0");
  cfg.set("tenancy.placement", "diagonal");
  TenancyConfig t;
  read_knobs(cfg, t);
  EXPECT_GE(t.qos_latency_floor, 1u);
  EXPECT_GE(t.qos_bulk_ceiling, 1u);
  EXPECT_GE(t.qos_scavenger_ceiling, 1u);
  EXPECT_EQ(t.placement, "compact");
}

TEST(TenancyConfig, EnvOverridesApplyInMakeMachine) {
  ::setenv("UGNIRT_TENANCY_ENABLE", "1", 1);
  ::setenv("UGNIRT_TENANCY_PLACEMENT", "scatter", 1);
  ::setenv("UGNIRT_TENANCY_SEED", "77", 1);
  ::setenv("UGNIRT_TENANCY_JOBS", "a:latency:2,b:scavenger:2", 1);
  ::setenv("UGNIRT_TENANCY_QOS_BULK_CEILING", "5", 1);
  MachineOptions o;
  o.pes = 4;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  ::unsetenv("UGNIRT_TENANCY_ENABLE");
  ::unsetenv("UGNIRT_TENANCY_PLACEMENT");
  ::unsetenv("UGNIRT_TENANCY_SEED");
  ::unsetenv("UGNIRT_TENANCY_JOBS");
  ::unsetenv("UGNIRT_TENANCY_QOS_BULK_CEILING");
  const TenancyConfig& t = m->options().tenancy;
  EXPECT_TRUE(t.enable);
  EXPECT_EQ(t.placement, "scatter");
  EXPECT_EQ(t.seed, 77u);
  EXPECT_EQ(t.jobs, "a:latency:2,b:scavenger:2");
  EXPECT_EQ(t.qos_bulk_ceiling, 5u);
}

// -------------------------------------------------------------- job specs ----

MachineOptions tenant_options(int pes, const std::string& placement,
                              int ppn = 1) {
  MachineOptions o;
  o.layer = LayerKind::kUgni;
  o.pes = pes;
  o.pes_per_node = ppn;
  o.tenancy.enable = true;
  o.tenancy.placement = placement;
  return o;
}

// The declarative UGNIRT_TENANCY_JOBS form pre-loads the job table with
// the same jobs an explicit add_job sequence would.
TEST(TenancyJobs, DeclarativeSpecPreloadsJobs) {
  auto o = tenant_options(8, "compact");
  o.tenancy.jobs = "victim:latency:4,storm:bulk:3,bg:scavenger:1";
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  JobManager jobs(*m, m->options().tenancy);
  ASSERT_EQ(jobs.num_jobs(), 3);
  EXPECT_EQ(jobs.job(0).name(), "victim");
  EXPECT_EQ(jobs.job(0).qos(), QosClass::kLatency);
  EXPECT_EQ(jobs.job(0).size(), 4);
  EXPECT_EQ(jobs.job(1).name(), "storm");
  EXPECT_EQ(jobs.job(1).qos(), QosClass::kBulk);
  EXPECT_EQ(jobs.job(1).size(), 3);
  EXPECT_EQ(jobs.job(2).name(), "bg");
  EXPECT_EQ(jobs.job(2).qos(), QosClass::kScavenger);
  EXPECT_EQ(jobs.job(2).size(), 1);
  jobs.place();
  EXPECT_TRUE(jobs.placed());
}

// -------------------------------------------------------------- placement ----

/// Build a 3-job manager on `pes` PEs under `placement` and return it
/// placed, with its machine kept alive by the caller.
std::unique_ptr<converse::Machine> placed(const std::string& placement,
                                          std::unique_ptr<JobManager>* out,
                                          int pes = 16,
                                          std::uint64_t seed = 0) {
  auto o = tenant_options(pes, placement);
  o.tenancy.seed = seed;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  *out = std::make_unique<JobManager>(*m, m->options().tenancy);
  (*out)->add_job({"a", pes / 4, QosClass::kLatency});
  (*out)->add_job({"b", pes / 2, QosClass::kBulk});
  (*out)->add_job({"c", pes / 4, QosClass::kScavenger});
  (*out)->place();
  return m;
}

/// Partition + inverse-map invariants every placement must uphold: each
/// PE owned by exactly one job, per-job PE lists ascending, and
/// job_of_pe/rank_of_pe inverting Job::pe(r).
void check_partition(const JobManager& jobs, int pes) {
  std::set<int> seen;
  for (int j = 0; j < jobs.num_jobs(); ++j) {
    const tenancy::Job& job = jobs.job(j);
    ASSERT_EQ(static_cast<int>(job.pes().size()), job.size());
    for (int r = 0; r < job.size(); ++r) {
      const int pe = job.pe(r);
      EXPECT_TRUE(seen.insert(pe).second) << "pe " << pe << " double-owned";
      EXPECT_EQ(jobs.job_of_pe(pe), j);
      EXPECT_EQ(jobs.rank_of_pe(pe), r);
      if (r > 0) {
        EXPECT_LT(job.pe(r - 1), pe);
      }
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), pes);
}

TEST(TenancyPlacement, CompactIsContiguousSlabs) {
  std::unique_ptr<JobManager> jobs;
  auto m = placed("compact", &jobs);
  check_partition(*jobs, 16);
  EXPECT_EQ(jobs->placement(), Placement::kCompact);
  for (int j = 0; j < jobs->num_jobs(); ++j) {
    const tenancy::Job& job = jobs->job(j);
    EXPECT_EQ(job.pe(job.size() - 1) - job.pe(0), job.size() - 1)
        << "job " << j << " not contiguous";
  }
}

TEST(TenancyPlacement, ScatterDealsRoundRobin) {
  std::unique_ptr<JobManager> jobs;
  auto m = placed("scatter", &jobs);
  check_partition(*jobs, 16);
  EXPECT_EQ(jobs->placement(), Placement::kScatter);
  // A deal never hands one job a contiguous slab (sizes here are all
  // smaller than the PE count, so strides must exceed 1 somewhere).
  for (int j = 0; j < jobs->num_jobs(); ++j) {
    const tenancy::Job& job = jobs->job(j);
    EXPECT_GT(job.pe(job.size() - 1) - job.pe(0), job.size() - 1)
        << "job " << j << " unexpectedly compact";
  }
}

TEST(TenancyPlacement, RandomIsSeededDeterministic) {
  std::unique_ptr<JobManager> a, b, c;
  auto ma = placed("random", &a, 16, 42);
  auto mb = placed("random", &b, 16, 42);
  auto mc = placed("random", &c, 16, 43);
  check_partition(*a, 16);
  EXPECT_EQ(a->job_map(), b->job_map());  // same seed, same carve
  EXPECT_NE(a->job_map(), c->job_map());  // reseeding moves the carve
}

// --------------------------------------------------------------------- qos ----

// Placing QoS-classed jobs on a flow-controlled machine must bound every
// PE's governor window: latency floors lift the AIMD minimum, bulk and
// scavenger ceilings cap it (clamping the live cwnd down immediately),
// and drain quotas land per PE.  Both uGNI machine layers carry the
// governor; in SMP mode (4 workers per node) it is keyed by worker PE.
class TenancyQosPerLayer : public ::testing::TestWithParam<bool> {};

TEST_P(TenancyQosPerLayer, ClassesLandInGovernorWindows) {
  const bool smp = GetParam();
  auto o = tenant_options(16, "compact", smp ? 4 : 1);
  o.smp_mode = smp;
  o.flow.enable = true;  // window_start 8, window_min 2, window_max 64
  o.tenancy.qos_latency_floor = 12;
  o.tenancy.qos_bulk_ceiling = 4;
  o.tenancy.qos_bulk_quota = 2;
  o.tenancy.qos_scavenger_ceiling = 2;
  o.tenancy.qos_scavenger_quota = 1;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  flowcontrol::InjectionGovernor* gov = m->layer().governor();
  ASSERT_NE(gov, nullptr);
  JobManager jobs(*m, m->options().tenancy);
  jobs.add_job({"lat", 4, QosClass::kLatency});
  jobs.add_job({"blk", 8, QosClass::kBulk});
  jobs.add_job({"scv", 4, QosClass::kScavenger});
  jobs.place();
  for (int pe : jobs.job(0).pes()) {
    EXPECT_GE(gov->window(pe), 12u) << "latency pe " << pe;
    EXPECT_EQ(gov->drain_quota(pe), 0u);  // latency drains unbounded
  }
  for (int pe : jobs.job(1).pes()) {
    EXPECT_LE(gov->window(pe), 4u) << "bulk pe " << pe;
    EXPECT_EQ(gov->drain_quota(pe), 2u);
  }
  for (int pe : jobs.job(2).pes()) {
    EXPECT_LE(gov->window(pe), 2u) << "scavenger pe " << pe;
    EXPECT_EQ(gov->drain_quota(pe), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Layers, TenancyQosPerLayer, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "SMP" : "uGNI");
                         });

// qos_enable=false partitions the PE space but leaves the governor
// byte-identical to stock — the ablation's noqos leg.
TEST(TenancyQos, DisabledLeavesGovernorStock) {
  auto o = tenant_options(8, "scatter");
  o.flow.enable = true;
  o.tenancy.qos_enable = false;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  flowcontrol::InjectionGovernor* gov = m->layer().governor();
  ASSERT_NE(gov, nullptr);
  JobManager jobs(*m, m->options().tenancy);
  jobs.add_job({"a", 4, QosClass::kLatency});
  jobs.add_job({"b", 4, QosClass::kScavenger});
  jobs.place();
  for (int pe = 0; pe < 8; ++pe) {
    EXPECT_EQ(gov->window(pe), m->options().flow.window_start);
    EXPECT_EQ(gov->drain_quota(pe), 0u);
  }
  m->collect_metrics();
  std::ostringstream csv;
  m->metrics().write_csv(csv);
  EXPECT_EQ(csv.str().find("flow.qos_pes"), std::string::npos);
}

// -------------------------------------------------------------- generators ----

// expected_messages() is the zero-loss oracle; pin the per-pattern
// counting rules it encodes.
TEST(TenancyGenerators, ExpectedMessageFormulas) {
  auto o = tenant_options(12, "compact");
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  JobManager jobs(*m, m->options().tenancy);
  jobs.add_job({"a", 6, QosClass::kLatency});
  jobs.add_job({"b", 4, QosClass::kBulk});
  jobs.add_job({"c", 2, QosClass::kScavenger});
  jobs.place();
  GeneratorOptions halo;
  halo.pattern = TrafficPattern::kKNeighborHalo;
  halo.iterations = 3;
  halo.k = 2;
  TrafficGenerator g1(jobs, 0, halo);
  EXPECT_EQ(g1.expected_messages(), 6u * 2 * 2 * 3);  // n * 2k * it
  GeneratorOptions shuf;
  shuf.pattern = TrafficPattern::kAllToAllShuffle;
  shuf.iterations = 5;
  TrafficGenerator g2(jobs, 1, shuf);
  EXPECT_EQ(g2.expected_messages(), 4u * 3 * 5);  // n * (n-1) * it
  GeneratorOptions ckpt;
  ckpt.pattern = TrafficPattern::kCheckpointBurst;
  ckpt.iterations = 4;
  ckpt.io_ranks = 1;
  TrafficGenerator g3(jobs, 2, ckpt);
  EXPECT_EQ(g3.expected_messages(), 1u * 4);  // (n - io) * it
}

/// One full two-tenant-plus-background run (all three patterns live) with
/// the event tracer on; returns timeline CSV + metrics CSV, the
/// bit-identity witness for the determinism matrix.
std::string traced_tenant_run(sim::QueueKind queue) {
  trace::EventTracer tracer(1u << 18);
  trace::set_tracer(&tracer);
  auto o = tenant_options(16, "scatter", 4);
  o.flow.enable = true;
  o.sim_queue = queue;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  JobManager jobs(*m, m->options().tenancy);
  jobs.add_job({"victim", 6, QosClass::kLatency});
  jobs.add_job({"storm", 6, QosClass::kBulk});
  jobs.add_job({"ckpt", 4, QosClass::kScavenger});
  jobs.place();
  std::vector<std::unique_ptr<TrafficGenerator>> gens;
  GeneratorOptions vo;
  vo.pattern = TrafficPattern::kKNeighborHalo;
  vo.iterations = 3;
  vo.k = 2;
  vo.payload = 2048;
  gens.push_back(std::make_unique<TrafficGenerator>(jobs, 0, vo));
  GeneratorOptions so;
  so.pattern = TrafficPattern::kAllToAllShuffle;
  so.iterations = 2;
  so.payload = 8192;
  gens.push_back(std::make_unique<TrafficGenerator>(jobs, 1, so));
  GeneratorOptions co;
  co.pattern = TrafficPattern::kCheckpointBurst;
  co.iterations = 2;
  co.io_ranks = 1;
  co.payload = 8192;
  gens.push_back(std::make_unique<TrafficGenerator>(jobs, 2, co));
  for (auto& g : gens) g->launch();
  m->run();
  for (auto& g : gens) {
    EXPECT_EQ(g->received(), g->expected_messages()) << "job " << g->job();
  }
  jobs.collect_metrics();
  m->collect_metrics();
  trace::set_tracer(nullptr);
  std::ostringstream out;
  tracer.write_csv(out);
  m->metrics().write_csv(out);
  return out.str();
}

// Same seed => byte-identical virtual-time timelines and metric surfaces
// for every generator, regardless of queue backend: the whole subsystem
// (placement, QoS, generator randomness) is a pure function of the seeds.
TEST(TenancyDeterminism, SameSeedSameTimelineAcrossQueues) {
  const std::string base = traced_tenant_run(sim::QueueKind::kHeap);
  EXPECT_NE(base.find("job.0.delivery_us"), std::string::npos);
  EXPECT_EQ(base, traced_tenant_run(sim::QueueKind::kHeap));
  EXPECT_EQ(base, traced_tenant_run(sim::QueueKind::kCalendar));
}

// ------------------------------------------------------------ fault matrix ---

// Every fault class the injector models, rerun with TWO tenants sharing
// nodes: retry/backoff must deliver both jobs' traffic exactly once —
// faults plus QoS bounds never turn into message loss for either tenant.
TEST(TenancyFault, MatrixZeroLossWithTwoTenants) {
  struct Case {
    const char* label;
    fault::FaultPlan plan;
  };
  fault::FaultPlan base;
  base.enabled = true;
  base.seed = 0x7E7;
  std::vector<Case> cases;
  {
    Case c{"post_error", base};
    c.plan.p_post_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"reg_error", base};
    c.plan.p_reg_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"smsg_error", base};
    c.plan.p_smsg_error = 0.3;
    cases.push_back(c);
  }
  {
    Case c{"cq_overrun", base};
    c.plan.p_cq_overrun = 0.05;
    cases.push_back(c);
  }
  {
    Case c{"smsg_starve", base};
    c.plan.p_smsg_starve = 0.2;
    c.plan.smsg_starve_ns = 20000;
    cases.push_back(c);
  }
  {
    Case c{"link_degrade", base};
    c.plan.p_link_degrade = 0.3;
    c.plan.link_slowdown = 8.0;
    cases.push_back(c);
  }
  {
    Case c{"link_blackout", base};
    c.plan.p_link_blackout = 0.2;
    c.plan.link_blackout_ns = 100000;
    cases.push_back(c);
  }
  for (const Case& fc : cases) {
    auto o = tenant_options(8, "scatter", 4);
    o.flow.enable = true;
    o.fault = fc.plan;
    auto m = lrts::make_machine(LayerKind::kUgni, o);
    JobManager jobs(*m, m->options().tenancy);
    jobs.add_job({"victim", 4, QosClass::kLatency});
    jobs.add_job({"storm", 4, QosClass::kBulk});
    jobs.place();
    GeneratorOptions vo;
    vo.pattern = TrafficPattern::kKNeighborHalo;
    vo.iterations = 3;
    vo.k = 2;  // clamped to (4-1)/2 = 1 neighbor each side
    vo.payload = 4096;  // rendezvous-size: the faulted wire carries GETs
    TrafficGenerator vg(jobs, 0, vo);
    GeneratorOptions so;
    so.pattern = TrafficPattern::kAllToAllShuffle;
    so.iterations = 3;
    so.payload = 8192;
    TrafficGenerator sg(jobs, 1, so);
    vg.launch();
    sg.launch();
    m->run();
    EXPECT_EQ(vg.received(), vg.expected_messages()) << fc.label;
    EXPECT_EQ(sg.received(), sg.expected_messages()) << fc.label;
  }
}

// ------------------------------------------------- metrics & attribution ----

// Per-job rows ride the standard registry exports: pes/msgs_executed
// gauges, the delivery histogram with one sample per delivered message,
// and the network's per-job link counters once attribution is installed.
TEST(TenancyMetrics, PerJobRowsAndLinkAttribution) {
  // 32 PEs at 4/node = 8 nodes: each compact job spans two Gemini ASICs,
  // so its traffic actually crosses torus links (ASIC-sibling node pairs
  // bypass them via the Netlink and would never reserve a link).
  auto o = tenant_options(32, "compact", 4);
  o.flow.enable = true;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  JobManager jobs(*m, m->options().tenancy);
  jobs.add_job({"victim", 16, QosClass::kLatency});
  jobs.add_job({"storm", 16, QosClass::kBulk});
  jobs.place();
  GeneratorOptions vo;
  vo.pattern = TrafficPattern::kKNeighborHalo;
  vo.iterations = 2;
  vo.k = 1;
  vo.payload = 2048;
  TrafficGenerator vg(jobs, 0, vo);
  GeneratorOptions so;
  so.pattern = TrafficPattern::kAllToAllShuffle;
  so.iterations = 2;
  so.payload = 8192;
  TrafficGenerator sg(jobs, 1, so);
  vg.launch();
  sg.launch();
  m->run();
  EXPECT_EQ(jobs.delivery_hist(0).count(), vg.expected_messages());
  EXPECT_EQ(jobs.delivery_hist(1).count(), sg.expected_messages());
  // Compact on ppn=4 gives each job whole nodes, so its inter-node
  // traffic is attributable and the storm must have reserved links.
  EXPECT_GT(m->network().job_link_reservations(1), 0u);
  jobs.collect_metrics();
  m->collect_metrics();
  std::ostringstream csv;
  m->metrics().write_csv(csv);
  const std::string s = csv.str();
  for (const char* name :
       {"job.0.pes", "job.0.msgs_executed", "job.0.delivery_us",
        "job.1.pes", "job.1.link_reservations"}) {
    EXPECT_NE(s.find(name), std::string::npos) << "metric " << name;
  }
}

// The tracer's `job` column is strictly opt-in: present (and correct)
// once place() installs the attribution map, absent — byte-compatible
// headers — without it.
TEST(TenancyTrace, JobColumnOnlyWithAttributionMap) {
  trace::EventTracer with_map(1u << 12);
  with_map.record(3, trace::Ev::kSmsgSend, 100, 0, 1, 64);
  with_map.set_job_of_pe({0, 0, 1, 1});
  std::ostringstream a;
  with_map.write_csv(a);
  EXPECT_NE(a.str().find("pe,t_ns,dur_ns,event,peer,size,job"),
            std::string::npos);
  EXPECT_NE(a.str().find("3,100,0,smsg_send,1,64,1"), std::string::npos);
  EXPECT_EQ(with_map.job_of(3), 1);
  EXPECT_EQ(with_map.job_of(7), -1);

  trace::EventTracer bare(1u << 12);
  bare.record(3, trace::Ev::kSmsgSend, 100, 0, 1, 64);
  std::ostringstream b;
  bare.write_csv(b);
  EXPECT_NE(b.str().find("pe,t_ns,dur_ns,event,peer,size\n"),
            std::string::npos);
  EXPECT_EQ(b.str().find("job"), std::string::npos);
}

}  // namespace
}  // namespace ugnirt
