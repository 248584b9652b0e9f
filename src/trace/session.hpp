// Process-wide trace session, driven by environment knobs:
//
//   UGNIRT_TRACE=1            enable tracing (unset / empty / "0" = off)
//   UGNIRT_TRACE_FILE=base    output file base (default "ugnirt_trace")
//   UGNIRT_TRACE_RING=N       per-PE event-ring capacity (default 65536)
//   UGNIRT_SPAN_SAMPLE=N      sample every Nth message's lifecycle span
//                             (activates the session even without
//                             UGNIRT_TRACE; 0/unset = spans off)
//   UGNIRT_SPAN_MAX_SPANS=N   retained-span cap (default 1M; 0 = default)
//
// The two span knobs are SpanConfig's knob list, read by apply_env_knobs
// (util/config.hpp): a malformed value warns and keeps the default.
//
// When active, the session installs a global EventTracer (see events.hpp)
// — plus a global SpanCollector when span sampling is on (spans.hpp) —
// and accumulates per-Machine MetricsRegistry snapshots that Machines
// absorb into it at destruction.  At process exit — or on an explicit
// flush() — it writes:
//
//   <base>.trace.json    Chrome trace_event JSON (Perfetto-loadable)
//   <base>.events.csv    flat event rows
//   <base>.metrics.csv   metric,kind,count,sum,mean,min,max,p50,p90,p99
//   <base>.metrics.json  the same registry as one JSON object
//   <base>.spans.json    Chrome async spans (only when sampling is on)
//
// plus a human-readable metrics table — and, with spans, a critical-path
// breakdown — on stderr.  benchtool::Table points the base at the bench
// name so each figure gets its own trace files.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/events.hpp"
#include "trace/metrics.hpp"
#include "trace/spans.hpp"

namespace ugnirt::trace {

class TraceSession {
 public:
  /// The singleton, or nullptr when UGNIRT_TRACE is off.  The first call
  /// reads the environment; later calls are a plain pointer load.
  static TraceSession* active();

  EventTracer& events() { return events_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Non-null when span sampling is active (UGNIRT_SPAN_SAMPLE > 0).
  SpanCollector* span_collector() { return spans_.get(); }

  /// Fold a Machine's registry into the session-wide aggregate.
  void absorb(const MetricsRegistry& m) { metrics_.merge_from(m); }

  /// Redirect output files to `<base>.trace.json` etc.  An explicit
  /// UGNIRT_TRACE_FILE in the environment wins over this, so a user's
  /// chosen name is not overridden by the bench harness.  No effect on
  /// anything already flushed.
  void set_output_base(const std::string& base) {
    if (!base_from_env_) output_base_ = base;
  }
  const std::string& output_base() const { return output_base_; }

  /// Write all output files and the stderr table now.  Idempotent per
  /// accumulated state; called automatically at process exit.
  void flush();

  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  TraceSession(std::size_t ring_capacity, std::string output_base,
               bool base_from_env, SpanConfig span_cfg);

  EventTracer events_;
  MetricsRegistry metrics_;
  std::unique_ptr<SpanCollector> spans_;  // null when sampling is off
  std::string output_base_;
  bool base_from_env_ = false;
  bool flushed_ = false;
};

}  // namespace ugnirt::trace
