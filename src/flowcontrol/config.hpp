// Congestion-control (flow) configuration.
//
// Lives in its own header so converse/machine.hpp can embed it in
// MachineOptions without pulling in the estimator/governor machinery.
// Keys live under "flow.*", listed once in FlowConfig::for_each_knob, and
// are overridable via UGNIRT_FLOW_* environment variables;
// `lrts::make_machine` applies them straight to the fields, same as the
// gemini/fault/retry/agg knobs.
//
// Every default preserves stock behavior bit-for-bit: with `enable`
// false no estimator or governor is even constructed, so the hot paths
// stay on the exact seed code (a single null-pointer test, the same
// pattern as the fault injector).
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/units.hpp"

namespace ugnirt::flowcontrol {

struct FlowConfig {
  /// Master switch (UGNIRT_FLOW_ENABLE).  Off by default: congestion
  /// control only pays for itself under contention, and the stock
  /// behavior is the paper's calibrated baseline.
  bool enable = false;

  /// EWMA smoothing factor for per-link / per-NIC load estimates
  /// (UGNIRT_FLOW_EWMA_ALPHA).  Each reserve folds in one sample:
  /// load' = (1-a)*load + a*wait/(wait+duration).
  double ewma_alpha = 0.125;

  /// A NIC (node) whose smoothed wait fraction is at or above this is
  /// "hot": the AIMD window backs off, thresholds adapt, routing avoids
  /// its loaded links (UGNIRT_FLOW_HOT_THRESHOLD).
  double hot_threshold = 0.25;

  /// AIMD window bounds on outstanding governed transactions per PE
  /// (UGNIRT_FLOW_WINDOW_MIN / _MAX / _START).
  std::uint32_t window_min = 2;
  std::uint32_t window_max = 64;
  std::uint32_t window_start = 8;

  /// Additive increase per completion-window when the path is cool, and
  /// the multiplicative factor applied when it is hot
  /// (UGNIRT_FLOW_AIMD_INCREASE / UGNIRT_FLOW_AIMD_DECREASE).
  double aimd_increase = 1.0;
  double aimd_decrease = 0.5;

  /// Defer rendezvous GET issue once the AIMD window is full; deferred
  /// GETs drain from the progress engine as completions free slots
  /// (UGNIRT_FLOW_PACE_RENDEZVOUS).
  bool pace_rendezvous = true;

  /// Choose among minimal dimension-order route permutations by
  /// estimated link load instead of fixed x->y->z order
  /// (UGNIRT_FLOW_ADAPTIVE_ROUTING).  Off keeps stock routes even when
  /// the subsystem is otherwise enabled.
  bool adaptive_routing = false;

  /// Adapt the eager/rendezvous and FMA/BTE size thresholds at runtime
  /// under hotspot load instead of using the fixed MachineConfig
  /// constants (UGNIRT_FLOW_ADAPT_THRESHOLDS).
  bool adapt_thresholds = true;

  /// Rate limit (per link, virtual ns) on kCongestionSample trace
  /// events (UGNIRT_FLOW_SAMPLE_PERIOD_NS).
  SimTime sample_period_ns = 5000;

  /// Every knob, keyed "flow.<field>" (UGNIRT_FLOW_<FIELD>); see
  /// util/config.hpp for the generic reader, writer and env applier.
  template <class Self, class F>
  static void for_each_knob(Self& c, F&& f) {
    f("flow.enable", c.enable);
    f("flow.ewma_alpha", c.ewma_alpha);
    f("flow.hot_threshold", c.hot_threshold);
    f("flow.window_min", c.window_min);
    f("flow.window_max", c.window_max);
    f("flow.window_start", c.window_start);
    f("flow.aimd_increase", c.aimd_increase);
    f("flow.aimd_decrease", c.aimd_decrease);
    f("flow.pace_rendezvous", c.pace_rendezvous);
    f("flow.adaptive_routing", c.adaptive_routing);
    f("flow.adapt_thresholds", c.adapt_thresholds);
    f("flow.sample_period_ns", c.sample_period_ns);
  }

  /// Keep the window sane whatever the overrides say: min >= 1 so the
  /// governor can never wedge a PE, and start inside [min, max].
  void normalize() {
    window_min = std::max<std::uint32_t>(window_min, 1);
    window_max = std::max(window_max, window_min);
    window_start = std::clamp(window_start, window_min, window_max);
  }
};

}  // namespace ugnirt::flowcontrol
