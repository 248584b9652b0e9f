#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"

namespace ugnirt::sim {
namespace {

// ------------------------------------------------------------- selection ----

TEST(QueueKindNames, RoundTrip) {
  QueueKind k = QueueKind::kHeap;
  EXPECT_TRUE(queue_kind_from_string("calendar", &k));
  EXPECT_EQ(k, QueueKind::kCalendar);
  EXPECT_TRUE(queue_kind_from_string("heap", &k));
  EXPECT_EQ(k, QueueKind::kHeap);
  EXPECT_STREQ(to_string(QueueKind::kHeap), "heap");
  EXPECT_STREQ(to_string(QueueKind::kCalendar), "calendar");
}

TEST(QueueKindNames, RejectsUnknown) {
  QueueKind k = QueueKind::kCalendar;
  EXPECT_FALSE(queue_kind_from_string("splay", &k));
  EXPECT_FALSE(queue_kind_from_string("", &k));
  EXPECT_EQ(k, QueueKind::kCalendar);  // untouched on failure
}

// ------------------------------------------- heap-vs-calendar equivalence ---

/// Deterministic xorshift so the workload is identical across runs.
struct Rng {
  std::uint64_t s = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
};

Event make_event(SimTime t, std::uint64_t seq) {
  return Event{t, seq, nullptr};  // queues never inspect the record
}

/// Push the same workload into both backends, interleaving pops the way the
/// engine does (monotone: a pushed time is never before the last pop), and
/// require the exact same (time, seq) pop sequence.
void expect_equivalent(const std::vector<int>& batch_sizes,
                       std::uint64_t gap_mask) {
  auto heap = make_event_queue(QueueKind::kHeap);
  auto cal = make_event_queue(QueueKind::kCalendar);
  Rng rng;
  std::uint64_t seq = 0;
  SimTime now = 0;
  std::vector<std::pair<SimTime, std::uint64_t>> popped_heap, popped_cal;
  for (int batch : batch_sizes) {
    for (int i = 0; i < batch; ++i) {
      SimTime t = now + static_cast<SimTime>(rng.next() & gap_mask);
      heap->push(make_event(t, seq));
      cal->push(make_event(t, seq));
      ++seq;
    }
    // Drain half of what is pending, tracking `now` like the engine.
    std::size_t drain = heap->size() / 2;
    for (std::size_t i = 0; i < drain; ++i) {
      Event a = heap->pop_earliest();
      Event b = cal->pop_earliest();
      popped_heap.emplace_back(a.time, a.seq);
      popped_cal.emplace_back(b.time, b.seq);
      now = a.time;
    }
  }
  while (!heap->empty()) {
    Event a = heap->pop_earliest();
    Event b = cal->pop_earliest();
    popped_heap.emplace_back(a.time, a.seq);
    popped_cal.emplace_back(b.time, b.seq);
  }
  EXPECT_TRUE(cal->empty());
  ASSERT_EQ(popped_heap.size(), popped_cal.size());
  EXPECT_EQ(popped_heap, popped_cal);
  // Sanity: the shared sequence really is (time, seq)-sorted.
  for (std::size_t i = 1; i < popped_heap.size(); ++i) {
    const auto& p = popped_heap[i - 1];
    const auto& q = popped_heap[i];
    EXPECT_TRUE(p.first < q.first ||
                (p.first == q.first && p.second < q.second));
  }
}

TEST(CalendarQueue, MatchesHeapOnDenseWorkload) {
  expect_equivalent({500, 500, 500, 500}, 0x3ff);  // gaps 0..1023 ns
}

TEST(CalendarQueue, MatchesHeapOnSparseWorkload) {
  expect_equivalent({200, 200, 200}, 0xfffff);  // gaps up to ~1 ms
}

TEST(CalendarQueue, MatchesHeapOnMixedScales) {
  // Alternating dense bursts and sparse tails force width re-estimation
  // and bucket resizes in both directions.
  expect_equivalent({2000, 10, 2000, 10, 1000}, 0xffff);
}

TEST(CalendarQueue, ManyEqualTimesPopInFifoOrder) {
  auto cal = make_event_queue(QueueKind::kCalendar);
  for (std::uint64_t s = 0; s < 1000; ++s) cal->push(make_event(42, s));
  for (std::uint64_t s = 0; s < 1000; ++s) {
    Event e = cal->pop_earliest();
    EXPECT_EQ(e.time, 42);
    EXPECT_EQ(e.seq, s);
  }
  EXPECT_TRUE(cal->empty());
}

TEST(CalendarQueue, SurvivesYearJumps) {
  // A huge time jump lands many "years" ahead of the cursor; the direct
  // search fallback must find it without scanning every empty day.
  auto cal = make_event_queue(QueueKind::kCalendar);
  cal->push(make_event(10, 0));
  EXPECT_EQ(cal->pop_earliest().seq, 0u);
  cal->push(make_event(1'000'000'000'000, 1));  // ~17 min of virtual time
  EXPECT_EQ(cal->earliest_time(), 1'000'000'000'000);
  Event e = cal->pop_earliest();
  EXPECT_EQ(e.time, 1'000'000'000'000);
  EXPECT_TRUE(cal->empty());
  EXPECT_EQ(cal->earliest_time(), kNever);
}

TEST(CalendarQueue, ChurnAcrossResizes) {
  auto heap = make_event_queue(QueueKind::kHeap);
  auto cal = make_event_queue(QueueKind::kCalendar);
  Rng rng;
  SimTime now = 0;
  std::uint64_t seq = 0;
  // Grow to 20k (multiple doublings), drain to near-empty (shrinks), twice.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 20000; ++i) {
      SimTime t = now + static_cast<SimTime>(rng.next() & 0xfff);
      heap->push(make_event(t, seq));
      cal->push(make_event(t, seq));
      ++seq;
    }
    while (heap->size() > 16) {
      Event a = heap->pop_earliest();
      Event b = cal->pop_earliest();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
      now = a.time;
    }
  }
  while (!heap->empty()) {
    Event a = heap->pop_earliest();
    Event b = cal->pop_earliest();
    EXPECT_EQ(a.seq, b.seq);
  }
  EXPECT_TRUE(cal->empty());
}

// ------------------------------------------- engine over both backends ------

class EngineBackend : public ::testing::TestWithParam<QueueKind> {};

TEST_P(EngineBackend, RunsEventsInTimeOrder) {
  Engine e{EngineOptions{.queue = GetParam()}};
  EXPECT_STREQ(to_string(e.queue_kind()), to_string(GetParam()));
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST_P(EngineBackend, TiesBreakInSchedulingOrder) {
  Engine e{EngineOptions{.queue = GetParam()}};
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST_P(EngineBackend, CancelPreventsExecution) {
  Engine e{EngineOptions{.queue = GetParam()}};
  bool ran = false;
  auto h = e.schedule_at(10, [&] { ran = true; });
  h.cancel();
  e.run();
  EXPECT_FALSE(ran);
}

TEST_P(EngineBackend, RunUntilStopsAtBoundary) {
  Engine e{EngineOptions{.queue = GetParam()}};
  std::vector<SimTime> fired;
  for (SimTime t = 100; t <= 1000; t += 100) {
    e.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  e.run_until(500);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_EQ(e.now(), 500);
  e.run();
  EXPECT_EQ(fired.size(), 10u);
}

TEST_P(EngineBackend, EventsCanScheduleMoreEvents) {
  Engine e{EngineOptions{.queue = GetParam()}};
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) e.schedule_after(7, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(e.now(), 99 * 7);
}

TEST_P(EngineBackend, PastTimesClampToNow) {
  Engine e{EngineOptions{.queue = GetParam()}};
  SimTime seen = -1;
  e.schedule_at(100, [&] {
    e.schedule_at(50, [&] { seen = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(seen, 100);
}

TEST_P(EngineBackend, CancelAfterFireIsSafe) {
  Engine e{EngineOptions{.queue = GetParam()}};
  bool ran = false;
  auto h = e.schedule_at(10, [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
  h.cancel();  // no-op
  EXPECT_FALSE(h.valid());
}

TEST_P(EngineBackend, StopInterruptsRun) {
  Engine e{EngineOptions{.queue = GetParam()}};
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(i * 10, [&] {
      if (++count == 3) e.stop();
    });
  }
  e.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.pending(), 7u);
  // run() again resumes.
  e.run();
  EXPECT_EQ(count, 10);
}

// A stop inside a bounded run leaves the clock at the stopping event, not
// at the horizon; the next run_until() resumes and then advances it.
TEST_P(EngineBackend, StopInterruptsAndResumes) {
  Engine e{EngineOptions{.queue = GetParam()}};
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(i * 10, [&] {
      if (++count == 3) e.stop();
    });
  }
  EXPECT_EQ(e.run_until(55), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.pending(), 7u);
  EXPECT_EQ(e.run_until(55), 3u);
  EXPECT_EQ(count, 6);
  EXPECT_EQ(e.now(), 55);
  EXPECT_EQ(e.pending(), 4u);
  e.run();
  EXPECT_EQ(count, 10);
}

TEST_P(EngineBackend, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine e{EngineOptions{.queue = GetParam()}};
    std::vector<std::pair<SimTime, int>> log;
    for (int i = 0; i < 50; ++i) {
      e.schedule_at((i * 7) % 13, [&log, i, &e] {
        log.emplace_back(e.now(), i);
        if (i % 3 == 0) {
          e.schedule_after(2, [&log, i, &e] { log.emplace_back(e.now(), 100 + i); });
        }
      });
    }
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

// pending() counts live events only: cancelled tombstones still sit in
// the queue but are not pending work.
TEST_P(EngineBackend, PendingExcludesCancelledTombstones) {
  Engine e{EngineOptions{.queue = GetParam()}};
  auto h1 = e.schedule_at(10, [] {});
  e.schedule_at(20, [] {});
  e.schedule_at(30, [] {});
  EXPECT_EQ(e.pending(), 3u);
  h1.cancel();
  EXPECT_EQ(e.pending(), 2u);
  h1.cancel();  // double-cancel must not double-decrement
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_FALSE(e.empty());
  EXPECT_EQ(e.run(), 2u);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST_P(EngineBackend, SelfCancelDuringExecutionKeepsPendingConsistent) {
  Engine e{EngineOptions{.queue = GetParam()}};
  EventHandle h;
  h = e.schedule_at(10, [&e, &h] {
    h.cancel();  // cancelling the event that is firing: no-op
    EXPECT_EQ(e.pending(), 0u);
  });
  EXPECT_EQ(e.run(), 1u);
  EXPECT_EQ(e.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, EngineBackend,
                         ::testing::Values(QueueKind::kHeap,
                                           QueueKind::kCalendar),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// The environment is read only where a driver asks for it.
TEST(EngineOptions, DefaultsAreHermeticSequential) {
  ::setenv("UGNIRT_SIM_QUEUE", "calendar", 1);
  Engine hermetic{EngineOptions{}};  // must NOT sniff the environment
  Engine from_env{EngineOptions::from_env()};
  ::unsetenv("UGNIRT_SIM_QUEUE");
  EXPECT_EQ(hermetic.queue_kind(), QueueKind::kHeap);
  EXPECT_EQ(from_env.queue_kind(), QueueKind::kCalendar);
}

// ------------------------------------------- event arena (zero-alloc path) --

TEST(EventArena, SteadyChurnRecyclesOneSlab) {
  Engine e{EngineOptions{}};
  int count = 0;
  const int kEvents = static_cast<int>(EventArena::kSlabRecords) * 5;
  std::function<void()> chain = [&] {
    if (++count < kEvents) e.schedule_after(3, chain);
  };
  e.schedule_at(0, chain);
  e.run();
  EXPECT_EQ(count, kEvents);
  // Sequential churn far past one slab's capacity: every record recycled
  // through the freelist, the heap untouched after the first slab.
  EXPECT_EQ(e.arena().slabs(), 1u);
  EXPECT_EQ(e.arena().in_use(), 0u);
  EXPECT_EQ(e.arena().acquires(), static_cast<std::uint64_t>(kEvents));
}

TEST(EventArena, GrowsPastOneSlabUnderPendingLoad) {
  Engine e{EngineOptions{}};
  const int kPending = static_cast<int>(EventArena::kSlabRecords) + 100;
  int ran = 0;
  for (int i = 0; i < kPending; ++i) {
    e.schedule_at(i, [&ran] { ++ran; });
  }
  EXPECT_GE(e.arena().slabs(), 2u);
  EXPECT_EQ(e.arena().in_use(), static_cast<std::size_t>(kPending));
  e.run();
  EXPECT_EQ(ran, kPending);
  EXPECT_EQ(e.arena().in_use(), 0u);
  // Slabs are never returned: the high-water footprint is stable and a
  // second burst of the same size reuses it without growing further.
  const std::size_t high_water = e.arena().slabs();
  for (int i = 0; i < kPending; ++i) {
    e.schedule_after(1, [&ran] { ++ran; });
  }
  e.run();
  EXPECT_EQ(e.arena().slabs(), high_water);
}

TEST(EventArena, CancelFromInsideHandlerTombstones) {
  Engine e{EngineOptions{}};
  bool late = false;
  EventHandle victim;
  e.schedule_at(10, [&] { victim.cancel(); });
  victim = e.schedule_at(20, [&late] { late = true; });
  e.run();
  EXPECT_FALSE(late);
  // The tombstoned record is still released when it surfaces.
  EXPECT_EQ(e.arena().in_use(), 0u);
  EXPECT_FALSE(victim.valid());
}

TEST(EventArena, SelfCancelDuringDispatchIsNoOp) {
  Engine e{EngineOptions{}};
  int runs = 0;
  EventHandle self;
  self = e.schedule_at(5, [&] {
    ++runs;
    self.cancel();  // already firing: alive was flipped before dispatch
  });
  e.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(self.valid());
  EXPECT_EQ(e.arena().in_use(), 0u);
}

TEST(EventArena, StaleHandleCannotCancelRecycledRecord) {
  Engine e{EngineOptions{}};
  bool first = false, second = false;
  EventHandle h = e.schedule_at(10, [&first] { first = true; });
  e.run();
  EXPECT_TRUE(first);
  EXPECT_FALSE(h.valid());
  // The LIFO freelist hands the very same record to the next schedule,
  // one generation later; the stale handle must not kill it.
  e.schedule_at(20, [&second] { second = true; });
  h.cancel();
  e.run();
  EXPECT_TRUE(second);
}

TEST(EventArena, EngineCallbacksStayInline) {
  const std::uint64_t before = SmallFn::heap_fallbacks();
  Engine e{EngineOptions{}};
  std::uint64_t sink = 0;
  struct Timer {
    Engine* eng;
    std::uint64_t* sink;
    std::uint32_t lcg;
    int left;
    void operator()() {
      *sink += lcg;
      lcg = lcg * 1664525u + 1013904223u;
      if (--left > 0) eng->schedule_after(1 + (lcg >> 27), *this);
    }
  };
  for (int i = 0; i < 64; ++i) {
    e.schedule_at(i, Timer{&e, &sink, static_cast<std::uint32_t>(i), 100});
  }
  e.run();
  EXPECT_GT(sink, 0u);
  // Engine-typical captures (a couple of pointers + scalars) must fit the
  // inline buffer — the zero-alloc claim dies if they spill to the heap.
  EXPECT_EQ(SmallFn::heap_fallbacks(), before);
}

}  // namespace
}  // namespace ugnirt::sim
