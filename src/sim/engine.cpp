#include "sim/engine.hpp"

#include <utility>

namespace ugnirt::sim {

// ---------------------------------------------------------------------------
// EventHandle
// ---------------------------------------------------------------------------

void EventHandle::cancel() {
  // The lock proves the engine (and so the record's storage) is still
  // alive; the generation check proves the record has not been recycled
  // for a later event.  pop_and_run flips `alive` before running the
  // callback and bumps `gen` only after, so a self-cancel from inside the
  // firing event sees alive == false and is a no-op.
  if (auto live = live_.lock()) {
    if (rec_ != nullptr && rec_->gen == gen_ && rec_->alive) {
      rec_->alive = false;
      // First successful cancel of a not-yet-fired event: it is no longer
      // pending work.
      --*live;
    }
  }
}

bool EventHandle::valid() const {
  auto live = live_.lock();
  return live && rec_ != nullptr && rec_->gen == gen_ && rec_->alive;
}

// ---------------------------------------------------------------------------
// Scheduler — the one-pointer engine handle
// ---------------------------------------------------------------------------

SimTime Scheduler::now() const { return engine_->now(); }

EventHandle Scheduler::schedule_at(SimTime when, SmallFn fn) {
  return engine_->schedule_at(when, std::move(fn));
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

EngineOptions EngineOptions::from_env() {
  EngineOptions o;
  o.queue = queue_kind_from_env();
  return o;
}

Engine::Engine(const EngineOptions& options)
    : queue_kind_(options.queue),
      queue_(make_event_queue(options.queue)),
      live_(std::make_shared<std::int64_t>(0)),
      sched_(this) {}

// Queued-but-never-popped callbacks are destroyed by the slab destructors
// — EventRecord's SmallFn member owns them — so teardown needs no
// explicit queue drain.
Engine::~Engine() = default;

EventHandle Engine::schedule_at(SimTime when, SmallFn fn) {
  // Clamp to now so inserts stay monotone for the backends.
  if (when < now_) when = now_;
  ++*live_;
  EventRecord* rec = arena_.acquire();
  rec->fn = std::move(fn);
  rec->alive = true;
  queue_->push(Event{when, next_seq_++, rec});
  return EventHandle{live_, rec, rec->gen};
}

bool Engine::pop_and_run() {
  Event ev = queue_->pop_earliest();
  now_ = ev.time;
  EventRecord* rec = ev.rec;
  if (!rec->alive) {  // tombstone: cancelled, already uncounted
    arena_.release(rec);
    return false;
  }
  rec->alive = false;  // fired: a late cancel() must be a no-op
  --*live_;
  ++executed_;
  rec->fn();
  // Release AFTER the call: the callback may hold a handle to itself
  // (self-cancel is a no-op on alive == false, and the record must not be
  // recycled under it).  The arena only grows during the call — slabs are
  // stable — so `rec` cannot move.
  arena_.release(rec);
  return true;
}

std::uint64_t Engine::run_until(SimTime until) {
  stopped_ = false;
  std::uint64_t ran = 0;
  while (!stopped_) {
    const Event* head = queue_->peek_earliest();
    if (!head || head->time > until) break;
    if (pop_and_run()) ++ran;
  }
  // A bounded run that drained everything up to `until` advances the
  // clock to the horizon.
  if (until != kNever && now_ < until && queue_->earliest_time() > until) {
    now_ = until;
  }
  return ran;
}

}  // namespace ugnirt::sim
