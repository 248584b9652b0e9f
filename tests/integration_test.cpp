// Cross-layer integration and property tests: every protocol regime of
// both machine layers must deliver bytes intact, in order per pair, with
// balanced QD counters and deterministic virtual time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "charm/charm.hpp"
#include "lrts/runtime.hpp"
#include "lrts/ugni_layer.hpp"
#include "util/log.hpp"

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

// Sweep: (layer, payload bytes, pes-per-node) — crossing every protocol:
// SMSG/E0, FMA GET/E1, BTE GET/rendezvous, intra-node shm paths.
using SweepParam = std::tuple<LayerKind, std::uint32_t, int>;

class ProtocolSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ProtocolSweep, BytesSurviveEveryPath) {
  auto [layer, payload, ppn] = GetParam();
  MachineOptions o;
  o.pes = 4;
  o.pes_per_node = ppn;
  auto m = lrts::make_machine(layer, o);

  const std::uint32_t total = payload + kCmiHeaderBytes;
  int received = 0;
  int h = m->register_handler([&](void* msg) {
    auto* bytes = static_cast<std::uint8_t*>(converse::payload_of(msg));
    std::uint32_t src =
        static_cast<std::uint32_t>(converse::header_of(msg)->src_pe);
    for (std::uint32_t i = 0; i < payload; ++i) {
      ASSERT_EQ(bytes[i], static_cast<std::uint8_t>((i * 13 + src) & 0xff))
          << "corruption at byte " << i;
    }
    ++received;
    CmiFree(msg);
  });

  // Every PE sends to every other PE.
  for (int pe = 0; pe < 4; ++pe) {
    m->start(pe, [&, pe, h] {
      for (int dest = 0; dest < 4; ++dest) {
        if (dest == pe) continue;
        void* msg = CmiAlloc(total);
        auto* bytes = static_cast<std::uint8_t*>(converse::payload_of(msg));
        for (std::uint32_t i = 0; i < payload; ++i) {
          bytes[i] = static_cast<std::uint8_t>((i * 13 + pe) & 0xff);
        }
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(dest, total, msg);
      }
    });
  }
  m->run();
  EXPECT_EQ(received, 12);
  // QD bookkeeping balances.
  std::uint64_t created = 0, processed = 0;
  for (int pe = 0; pe < 4; ++pe) {
    created += m->qd_created(pe);
    processed += m->qd_processed(pe);
  }
  EXPECT_EQ(created, processed);
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(std::get<0>(info.param) == LayerKind::kUgni ? "uGNI"
                                                                 : "MPI") +
         "_b" + std::to_string(std::get<1>(info.param)) + "_ppn" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllRegimes, ProtocolSweep,
    ::testing::Combine(
        ::testing::Values(LayerKind::kUgni, LayerKind::kMpi),
        ::testing::Values(1u, 88u, 1000u, 1025u, 4096u, 9000u, 262144u),
        ::testing::Values(1, 2, 4)),
    sweep_name);

// ---------------------------------------------------------------------------

class LayerFeatureMatrix
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(LayerFeatureMatrix, UgniOptimizationTogglesAllDeliver) {
  auto [pool, pxshm, single] = GetParam();
  MachineOptions o;
  o.pes = 6;
  o.pes_per_node = 3;
  o.use_mempool = pool;
  o.use_pxshm = pxshm;
  o.pxshm_single_copy = single;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  int got = 0;
  int h = m->register_handler([&](void* msg) {
    ++got;
    CmiFree(msg);
  });
  m->start(0, [&, h] {
    for (int dest = 1; dest < 6; ++dest) {
      for (std::uint32_t payload : {64u, 2048u, 65536u}) {
        void* msg = CmiAlloc(payload + kCmiHeaderBytes);
        CmiSetHandler(msg, h);
        CmiSyncSendAndFree(dest, payload + kCmiHeaderBytes, msg);
      }
    }
  });
  m->run();
  EXPECT_EQ(got, 15);
}

INSTANTIATE_TEST_SUITE_P(Toggles, LayerFeatureMatrix,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

// ---------------------------------------------------------------------------

TEST(Integration, LargeFanInDoesNotDropMessages) {
  // 63 PEs flood PE 0 with mixed sizes; backpressure, rendezvous and
  // intra-node paths all active simultaneously.
  MachineOptions o;
  o.pes = 64;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  int got = 0;
  std::uint64_t byte_sum = 0;
  int h = m->register_handler([&](void* msg) {
    ++got;
    byte_sum += converse::header_of(msg)->size;
    CmiFree(msg);
  });
  std::uint64_t sent_bytes = 0;
  for (int pe = 1; pe < 64; ++pe) {
    std::uint32_t payload = 32u << (pe % 9);  // 32 B .. 8 KiB
    sent_bytes += payload + kCmiHeaderBytes;
    m->start(pe, [&, pe, h, payload] {
      void* msg = CmiAlloc(payload + kCmiHeaderBytes);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(0, payload + kCmiHeaderBytes, msg);
    });
  }
  m->run();
  EXPECT_EQ(got, 63);
  EXPECT_EQ(byte_sum, sent_bytes);
}

TEST(Integration, WholeRunDeterminismAcrossProcessRestarts) {
  // Same seed, same program -> bit-identical virtual end time and stats,
  // including the charm layer, QD and both comm layers.
  auto run = [](LayerKind layer) {
    MachineOptions o;
    o.pes = 24;
      o.seed = 777;
    auto m = lrts::make_machine(layer, o);
    charm::Charm charm(*m);
    std::uint64_t work_done = 0;
    int task = -1;
    task = charm.register_task([&](const void* p, std::uint32_t) {
      int ttl = *static_cast<const int*>(p);
      converse::CmiChargeWork(1000 + ttl * 10);
      ++work_done;
      if (ttl > 0) {
        for (int c = 0; c < (ttl % 3) + 1; ++c) {
          int next = ttl - 1;
          charm.seed_task(task, &next, sizeof(next));
        }
      }
    });
    SimTime qd_at = 0;
    m->start(0, [&] {
      int ttl = 8;
      charm.seed_task(task, &ttl, sizeof(ttl));
      charm.start_quiescence([&] {
        qd_at = converse::Machine::running()->current_pe().ctx().now();
      });
    });
    m->run();
    return std::make_tuple(qd_at, work_done, m->stats().msgs_sent);
  };
  EXPECT_EQ(run(LayerKind::kUgni), run(LayerKind::kUgni));
  EXPECT_EQ(run(LayerKind::kMpi), run(LayerKind::kMpi));
}

TEST(Integration, MailboxAccountingGrowsWithActivePairs) {
  MachineOptions o;
  o.pes = 32;
  o.use_pxshm = false;
  o.pes_per_node = 1;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  auto* layer = dynamic_cast<lrts::UgniLayer*>(&m->layer());
  ASSERT_NE(layer, nullptr);
  EXPECT_EQ(layer->total_mailbox_bytes(), 0u);

  int h = m->register_handler([&](void* msg) { CmiFree(msg); });
  m->start(0, [&, h] {
    for (int dest = 1; dest <= 4; ++dest) {
      void* msg = CmiAlloc(kCmiHeaderBytes + 16);
      CmiSetHandler(msg, h);
      CmiSyncSendAndFree(dest, kCmiHeaderBytes + 16, msg);
    }
  });
  m->run();
  std::uint64_t after4 = layer->total_mailbox_bytes();
  EXPECT_GT(after4, 0u);
  // 4 channel pairs = 8 mailboxes; each pair costs the same.
  EXPECT_EQ(after4 % 8, 0u);
}

TEST(Integration, EnvironmentOverridesReachTheMachineModel) {
  ::setenv("UGNIRT_GEMINI_BTE_BW", "11.5", 1);
  auto m = lrts::make_machine(LayerKind::kUgni, MachineOptions{});
  ::unsetenv("UGNIRT_GEMINI_BTE_BW");
  EXPECT_DOUBLE_EQ(m->options().mc.bte_bw, 11.5);
}

// With no UGNIRT_* variable set, make_machine hands every caller value to
// the machine bit-exact: seeds at or above 2^63, probabilities below 1e-6
// and doubles that need all 17 significant digits included.
TEST(MakeMachine, CallerValuesSurviveBitExact) {
  MachineOptions o;
  o.mc.link_bw = 1.0 / 3.0;
  o.mc.hop_ns = 123;
  o.fault.seed = 0x8000000000000001ull;
  o.fault.p_post_error = 4e-7;
  o.retry.backoff_mult = 1.0 / 7.0;
  o.aggregation.threshold = 512;
  o.flow.ewma_alpha = 0.1 + 0.2;
  o.flow.window_start = 9;
  o.tenancy.seed = 0xF000000000000000ull;
  o.tenancy.jobs = "a:latency:1,b:bulk:1";
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  const MachineOptions& got = m->options();
  EXPECT_EQ(got.mc.link_bw, 1.0 / 3.0);
  EXPECT_EQ(got.mc.hop_ns, 123);
  EXPECT_EQ(got.fault.seed, 0x8000000000000001ull);
  EXPECT_EQ(got.fault.p_post_error, 4e-7);
  EXPECT_EQ(got.retry.backoff_mult, 1.0 / 7.0);
  EXPECT_EQ(got.aggregation.threshold, 512u);
  EXPECT_EQ(got.flow.ewma_alpha, 0.1 + 0.2);
  EXPECT_EQ(got.flow.window_start, 9u);
  EXPECT_EQ(got.tenancy.seed, 0xF000000000000000ull);
  EXPECT_EQ(got.tenancy.jobs, "a:latency:1,b:bulk:1");
}

std::vector<std::string>* g_warnings = nullptr;

void capture_warning(LogLevel level, const std::string& line) {
  if (level == LogLevel::kWarn) g_warnings->push_back(line);
}

// A malformed or out-of-range override keeps the caller's value (never the
// struct default, never a negative wrapped into an unsigned field) and logs
// one warning naming the variable.
TEST(MakeMachine, MalformedEnvKeepsCallerValueAndWarns) {
  const char* const vars[] = {"UGNIRT_FLOW_ENABLE", "UGNIRT_AGG_THRESHOLD",
                              "UGNIRT_GEMINI_SMSG_MAX_BYTES",
                              "UGNIRT_RETRY_MAX_RETRIES"};
  ::setenv(vars[0], "maybe", 1);
  ::setenv(vars[1], "1k", 1);
  ::setenv(vars[2], "-1", 1);
  ::setenv(vars[3], "4294967296", 1);
  std::vector<std::string> warnings;
  g_warnings = &warnings;
  const LogLevel saved = log_threshold();
  set_log_threshold(LogLevel::kWarn);
  set_log_sink(capture_warning);
  MachineOptions o;
  o.flow.enable = true;
  o.aggregation.threshold = 512;
  o.mc.smsg_max_bytes = 2048;
  o.retry.max_retries = 3;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  set_log_sink(nullptr);
  set_log_threshold(saved);
  g_warnings = nullptr;
  for (const char* v : vars) ::unsetenv(v);

  EXPECT_TRUE(m->options().flow.enable);
  EXPECT_EQ(m->options().aggregation.threshold, 512u);
  EXPECT_EQ(m->options().mc.smsg_max_bytes, 2048u);
  EXPECT_EQ(m->options().retry.max_retries, 3);
  ASSERT_EQ(warnings.size(), 4u);
  for (const char* v : vars) {
    int hits = 0;
    for (const std::string& w : warnings) {
      if (w.find(v) != std::string::npos) ++hits;
    }
    EXPECT_EQ(hits, 1) << v;
  }
}

TEST(Integration, VirtualWallTimerAdvancesMonotonically) {
  MachineOptions o;
  o.pes = 2;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  std::vector<double> stamps;
  int h = -1;
  h = m->register_handler([&](void* msg) {
    stamps.push_back(converse::CmiWallTimer());
    CmiFree(msg);
    if (stamps.size() < 6) {
      void* next = CmiAlloc(kCmiHeaderBytes + 8);
      CmiSetHandler(next, h);
      CmiSyncSendAndFree(1 - CmiMyPe(), kCmiHeaderBytes + 8, next);
    }
  });
  m->start(0, [&, h] {
    void* msg = CmiAlloc(kCmiHeaderBytes + 8);
    CmiSetHandler(msg, h);
    CmiSyncSendAndFree(1, kCmiHeaderBytes + 8, msg);
  });
  m->run();
  ASSERT_EQ(stamps.size(), 6u);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_GT(stamps[i], stamps[i - 1]);
  }
  EXPECT_GT(stamps.back(), 5e-6);  // at least 5 one-way flights
}

TEST(Integration, TreeHelpersFormAValidTree) {
  MachineOptions o;
  o.pes = 100;
  auto m = lrts::make_machine(LayerKind::kUgni, o);
  std::vector<int> children;
  int counted = 0;
  for (int pe = 0; pe < 100; ++pe) {
    m->tree_children(pe, children);
    for (int c : children) {
      EXPECT_EQ(m->tree_parent(c), pe);
      ++counted;
    }
  }
  EXPECT_EQ(counted, 99);  // every PE except the root has one parent
  EXPECT_EQ(m->tree_parent(0), -1);
}

}  // namespace
}  // namespace ugnirt
