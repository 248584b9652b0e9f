// Host hot-path microbenchmarks (google-benchmark) of the engine and the
// converse dispatch, measured in isolation.
//
//   * BM_EventChurn      — steady-state schedule/pop through the
//     slab-recycling event arena: the freelist absorbs every record, so
//     scheduling never touches the allocator.
//   * BM_SmallFnBind     — SmallFn (72-byte inline SBO) vs std::function
//     for an engine-sized capture: construct + invoke + destroy.
//   * BM_DispatchFlood   — converse flat kind-table dispatch, driven by
//     the kNeighbor flood (the fine-grained regime where per-message
//     dispatch overhead shows).
//
// Like micro_components, these measure *host* performance.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>

#include "apps/microbench/microbench.hpp"
#include "converse/machine.hpp"
#include "sim/engine.hpp"
#include "sim/small_fn.hpp"

namespace {

using namespace ugnirt;

void BM_EventChurn(benchmark::State& state) {
  constexpr int kTimers = 4096;
  struct Timer {
    sim::Engine* eng;
    std::uint32_t lcg;
    void operator()() {
      lcg = lcg * 1664525u + 1013904223u;
      eng->schedule_after(64 + (lcg >> 21), *this);
    }
  };
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Engine e{sim::EngineOptions{}};
    for (int i = 0; i < kTimers; ++i) {
      e.schedule_at(
          i % 977, Timer{&e, static_cast<std::uint32_t>(i) * 2654435761u});
    }
    e.run_until(20'000);
    events = e.executed();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventChurn);

// One engine-typical capture: two pointers + a couple of scalars.
struct Capture {
  void* a = nullptr;
  void* b = nullptr;
  std::uint64_t t = 0;
  std::uint32_t n = 0;
};

void BM_SmallFnBind(benchmark::State& state) {
  const bool small = state.range(0) != 0;
  Capture c;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    c.t = sink;
    if (small) {
      sim::SmallFn fn([c, &sink] { sink += c.t + c.n; });
      fn();
    } else {
      std::function<void()> fn([c, &sink] { sink += c.t + c.n; });
      fn();
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(small ? "SmallFn" : "std::function");
}
BENCHMARK(BM_SmallFnBind)->Arg(0)->Arg(1);

void BM_DispatchFlood(benchmark::State& state) {
  converse::MachineOptions o;
  o.layer = converse::LayerKind::kUgni;
  o.pes = 16;
  o.pes_per_node = 1;
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    apps::bench::KNeighborFloodResult r =
        apps::bench::charm_kneighbor_flood(o, /*rounds=*/16);
    msgs = r.messages;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(msgs));
}
BENCHMARK(BM_DispatchFlood);

}  // namespace

BENCHMARK_MAIN();
