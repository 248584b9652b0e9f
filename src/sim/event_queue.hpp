// The engine's pending-event set, extracted behind a first-class
// interface so the queue discipline is swappable (`sim.queue` /
// UGNIRT_SIM_QUEUE) without touching scheduling semantics.
//
// Contract (what every backend must provide):
//
//  * Strict total order.  pop_earliest() returns pending events ordered
//    by (time, seq) — earliest virtual time first, and FIFO scheduling
//    order (the monotonically increasing `seq`) among equal times.  This
//    is the property that makes seeded runs bit-identical across
//    backends: the engine executes the exact same event sequence no
//    matter which queue holds it.
//
//  * Monotone inserts.  The engine clamps schedule times to now(), and
//    now() only advances to popped-event times, so an inserted event is
//    never earlier than the last one popped.  Backends may rely on this
//    (the calendar queue does) but must stay correct when an insert
//    lands inside the current bucket window.
//
//  * Cancellation is NOT a queue operation.  EventHandle::cancel() flips
//    the record's `alive` tombstone; the dead event stays queued and is
//    skipped (not executed, not counted) when popped.  Lazy deletion
//    keeps every backend O(1) for cancel and preserves the handle
//    contract: cancel after fire is a no-op, cancel twice is a no-op.
//    Backends never inspect the record.
//
// Backends:
//
//  * HeapQueue     std::priority_queue binary heap, O(log n) per op.
//                  The reference oracle: simple enough to be obviously
//                  correct, kept as the default and as the comparison
//                  baseline for the calendar backend's equivalence tests.
//
//  * CalendarQueue Brown's calendar queue (CACM 1988): a ring of
//                  `nbuckets` day-buckets of `width` ns; an event at
//                  time t lives in bucket (t / width) % nbuckets.  Pop
//                  scans forward from the current day and pops the
//                  bucket head while it falls inside the current year;
//                  insert appends into the target bucket in sorted
//                  order.  With width tracking the mean inter-event gap
//                  (re-estimated on resize), buckets hold O(1) events
//                  and both operations are amortized O(1) — the engine
//                  stops being the bottleneck at full-machine (153,216
//                  PE) sweeps where the heap's O(log n) pops on a
//                  multi-hundred-MB array are all cache misses.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "util/units.hpp"

namespace ugnirt::sim {

struct EventRecord;

/// A scheduled callback: 24 trivially-copyable bytes.  The callback and
/// its cancellation tombstone live in `rec`, an arena-owned EventRecord
/// (sim/event_arena.hpp) the engine acquires at schedule time and
/// releases at pop time.  Queues store the pointer opaquely — moving an
/// event between buckets or heap levels is a POD copy, never a
/// std::function relocation.
struct Event {
  SimTime time;
  std::uint64_t seq;
  EventRecord* rec;
};

/// Selects the Engine's queue backend (MachineOptions::sim_queue,
/// config key "sim.queue", env UGNIRT_SIM_QUEUE).
enum class QueueKind {
  kHeap,      ///< binary heap oracle (default)
  kCalendar,  ///< O(1) calendar queue for full-machine sweeps
};

const char* to_string(QueueKind kind);

/// Parse "heap" / "calendar"; returns false (out untouched) otherwise.
bool queue_kind_from_string(std::string_view name, QueueKind* out);

/// Backend chosen by UGNIRT_SIM_QUEUE, or kHeap when unset/unparsable.
QueueKind queue_kind_from_env();

/// Pending-event container.  Not a public scheduling API — Engine is the
/// only caller; everything else schedules through Engine/EventHandle.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  /// Add an event.  Events with equal `time` must pop in `seq` order.
  virtual void push(Event ev) = 0;

  /// Remove and return the (time, seq)-minimal event.  Precondition:
  /// !empty().
  virtual Event pop_earliest() = 0;

  /// The (time, seq)-minimal pending event, or nullptr when empty.  May
  /// advance internal cursors (calendar day/year) but never alters the
  /// pop sequence; the pointer is invalidated by the next push/pop.
  virtual const Event* peek_earliest() = 0;

  /// Time of the earliest pending event, or kNever when empty.
  SimTime earliest_time() {
    const Event* ev = peek_earliest();
    return ev ? ev->time : kNever;
  }

  virtual bool empty() const = 0;
  virtual std::size_t size() const = 0;
  virtual const char* name() const = 0;
};

std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

}  // namespace ugnirt::sim
