// Real-time component benchmarks (google-benchmark): hot paths of the
// simulator itself — event engine, memory pool, torus routing, the uGNI
// SMSG round trip, and the N-Queens kernel.  These measure *host*
// performance, unlike the figure benches which report virtual time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <random>
#include <vector>

#include "apps/nqueens/solver.hpp"
#include "gemini/network.hpp"
#include "mempool/mempool.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "topo/torus.hpp"
#include "ugni/ugni.hpp"

namespace {

using namespace ugnirt;

void BM_EngineScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine{sim::EngineOptions::from_env()};
    std::uint64_t sink = 0;
    for (int i = 0; i < events; ++i) {
      engine.schedule_at((i * 7919) % 100000,
                         [&sink, i] { sink += static_cast<std::uint64_t>(i); });
    }
    engine.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(100000);

void BM_TorusRoute(benchmark::State& state) {
  topo::Torus3D torus(16, 12, 8);
  int a = 0;
  for (auto _ : state) {
    a = (a + 577) % torus.nodes();
    int b = (a * 31 + 7) % torus.nodes();
    auto route = torus.route(a, b);
    benchmark::DoNotOptimize(route.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TorusRoute);

void BM_NetworkTransfer(benchmark::State& state) {
  sim::Engine engine{sim::EngineOptions::from_env()};
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(64),
                      gemini::MachineConfig{});
  SimTime t = 0;
  int i = 0;
  for (auto _ : state) {
    gemini::TransferRequest req;
    req.mech = (i & 1) ? gemini::Mechanism::kBtePut : gemini::Mechanism::kSmsg;
    req.initiator_node = i % 64;
    req.remote_node = (i * 13 + 1) % 64;
    req.bytes = 1024;
    req.issue = t;
    auto res = net.transfer(req);
    t = res.cpu_done;
    ++i;
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkTransfer);

void BM_MemPoolAllocFree(benchmark::State& state) {
  sim::Engine engine{sim::EngineOptions::from_env()};
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(2),
                      gemini::MachineConfig{});
  ugni::Domain dom(net);
  sim::Context ctx(engine.scheduler(), 0);
  sim::ScopedContext guard(ctx);
  ugni::gni_nic_handle_t nic = nullptr;
  ugni::GNI_CdmAttach(&dom, 0, 0, &nic);
  mempool::MemPool pool(nic, 1 << 20);
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    void* p = pool.alloc(size);
    benchmark::DoNotOptimize(p);
    pool.free(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemPoolAllocFree)->Arg(88)->Arg(4096)->Arg(65536);

/// One SMSG message through the uGNI emulation, the way the machine layers
/// drive it: the sender's get_or_connect + GNI_SmsgSendWTag, then the
/// receiver's ep_for_peer + GNI_SmsgGetNextWTag + GNI_SmsgRelease, plus the
/// credit-return event.  16,384 NICs with 4 ring peers each (+-1, +-2) are
/// visited in shuffled order, so per-NIC state misses the cache as it does
/// in a large run.  Reports host time per message; a trend line, not a gate.
void BM_SmsgSendRelease(benchmark::State& state) {
  constexpr int kNics = 16384;
  constexpr int kOffsets[4] = {1, -1, 2, -2};
  sim::Engine engine{sim::EngineOptions{}};
  gemini::Network net(engine.scheduler(), topo::Torus3D::for_nodes(kNics),
                      gemini::MachineConfig{});
  ugni::Domain dom(net);
  sim::Context ctx(engine.scheduler(), 0);
  sim::ScopedContext guard(ctx);
  std::vector<ugni::gni_nic_handle_t> nics(kNics);
  for (int i = 0; i < kNics; ++i) {
    ugni::GNI_CdmAttach(&dom, i, i, &nics[static_cast<std::size_t>(i)]);
    ugni::gni_cq_handle_t tx = nullptr;
    ugni::GNI_CqCreate(nics[static_cast<std::size_t>(i)], 64, &tx);
    nics[static_cast<std::size_t>(i)]->set_default_tx_cq(tx);
  }
  auto peer_of = [&](int i, int k) {
    return (i + kOffsets[k] + kNics) % kNics;
  };
  for (int i = 0; i < kNics; ++i) {
    for (int k = 0; k < 4; ++k) {
      nics[static_cast<std::size_t>(i)]->get_or_connect(peer_of(i, k));
    }
  }
  std::vector<int> order(kNics);
  for (int i = 0; i < kNics; ++i) order[static_cast<std::size_t>(i)] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937(12345));

  const std::uint64_t payload[8] = {};
  std::size_t pos = 0;
  int k = 0;
  for (auto _ : state) {
    const int src = order[pos];
    const int dst = peer_of(src, k);
    ugni::Ep* ep = nics[static_cast<std::size_t>(src)]->get_or_connect(dst);
    ugni::GNI_SmsgSendWTag(ep, payload, sizeof(payload), nullptr, 0, 0, 1);
    ctx.wait_until(ctx.now() + 100'000);  // well past the arrival
    ugni::Ep* rx = nics[static_cast<std::size_t>(dst)]->ep_for_peer(src);
    void* data = nullptr;
    std::uint8_t tag = 0;
    ugni::GNI_SmsgGetNextWTag(rx, &data, &tag);
    benchmark::DoNotOptimize(data);
    ugni::GNI_SmsgRelease(rx);
    if (++pos == order.size()) {
      pos = 0;
      k = (k + 1) % 4;
      engine.run();  // deliver the round's credit returns
    }
  }
  engine.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmsgSendRelease);

void BM_NQueensSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = ugnirt::apps::nqueens::solve_all(n);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_NQueensSolver)->Arg(8)->Arg(10)->Arg(12);

}  // namespace

BENCHMARK_MAIN();
