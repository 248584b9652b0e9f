// Aggregation (TRAM-lite) configuration.
//
// Lives in its own header so converse/machine.hpp can embed it in
// MachineOptions without pulling in the Aggregator engine (which itself
// depends on the Machine).  Keys live under "agg.*", listed once in
// AggregationConfig::for_each_knob, and are overridable via UGNIRT_AGG_*
// environment variables; `lrts::make_machine` applies them straight to
// the fields, same as the fault/retry/gemini knobs.
#pragma once

#include <cstdint>

#include "util/units.hpp"

namespace ugnirt::aggregation {

struct AggregationConfig {
  /// Master switch (UGNIRT_AGG_ENABLE).  Off by default: aggregation
  /// trades per-message latency for throughput, which is the right deal
  /// only for fine-grained traffic.
  bool enable = false;

  /// Messages strictly smaller than this (total bytes, envelope included)
  /// are eligible for coalescing; a message of exactly `threshold` bytes
  /// bypasses the aggregator (UGNIRT_AGG_THRESHOLD).
  std::uint32_t threshold = 256;

  /// Upper bound on one batch message (total bytes, envelope + frame).
  /// The effective per-destination buffer is the min of this and what the
  /// active layer can move in a single transaction (UGNIRT_AGG_BUFFER_BYTES).
  std::uint32_t buffer_bytes = 4096;

  /// A partially-filled buffer flushes at most this much virtual time
  /// after its first message was packed (UGNIRT_AGG_MAX_DELAY_NS).
  SimTime max_delay_ns = 20000;

  /// Flush all buffers whenever the owning PE's scheduler queue drains —
  /// an idle PE has nothing to gain by holding messages back
  /// (UGNIRT_AGG_FLUSH_ON_IDLE).
  bool flush_on_idle = true;

  /// Every knob, keyed "agg.<field>" (UGNIRT_AGG_<FIELD>); see
  /// util/config.hpp for the generic reader, writer and env applier.
  template <class Self, class F>
  static void for_each_knob(Self& c, F&& f) {
    f("agg.enable", c.enable);
    f("agg.threshold", c.threshold);
    f("agg.buffer_bytes", c.buffer_bytes);
    f("agg.max_delay_ns", c.max_delay_ns);
    f("agg.flush_on_idle", c.flush_on_idle);
  }
};

}  // namespace ugnirt::aggregation
