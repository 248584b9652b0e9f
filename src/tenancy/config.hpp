// Multi-tenancy configuration.
//
// Lives in its own header so converse/machine.hpp can embed it in
// MachineOptions without pulling in the JobManager/generator machinery.
// Keys live under "tenancy.*", listed once in TenancyConfig::for_each_knob,
// and are overridable via UGNIRT_TENANCY_* environment variables;
// `lrts::make_machine` applies them straight to the fields, same as the
// gemini/fault/retry/agg/flow knobs.
//
// Every default preserves stock behavior bit-for-bit: with `enable`
// false no JobManager is constructed and nothing in the send path even
// looks at this struct.
#pragma once

#include <cstdint>
#include <string>

namespace ugnirt::tenancy {

struct TenancyConfig {
  /// Master switch (UGNIRT_TENANCY_ENABLE).  Off by default: the paper's
  /// runs own the whole machine, and drivers that want tenancy construct
  /// a JobManager explicitly.
  bool enable = false;

  /// Placement policy for every job's PE allocation
  /// (UGNIRT_TENANCY_PLACEMENT): "compact" (contiguous slab), "scatter"
  /// (round-robin deal across the PE space) or "random" (seeded shuffle —
  /// the fragmented allocations Jha et al. measure on production Gemini
  /// systems).
  std::string placement = "compact";

  /// Seed for the "random" placement shuffle (UGNIRT_TENANCY_SEED).
  /// 0 derives it from the machine seed so one knob reseeds everything.
  std::uint64_t seed = 0;

  /// Declarative job list (UGNIRT_TENANCY_JOBS): comma-separated
  /// `name:qos:pes` triples, e.g. "victim:latency:8,storm:bulk:24".
  /// Empty means jobs are added programmatically via JobManager::add_job.
  std::string jobs;

  /// Enforce per-job QoS classes in the InjectionGovernor
  /// (UGNIRT_TENANCY_QOS_ENABLE).  Requires flow.enable — without a
  /// governor there is no window to bound; JobManager::place then skips
  /// QoS silently (the A/B the multitenant ablation measures).
  bool qos_enable = true;

  /// latency-class AIMD window floor (UGNIRT_TENANCY_QOS_LATENCY_FLOOR):
  /// hotspot backoff cannot shrink a latency job's window below this.
  std::uint32_t qos_latency_floor = 8;

  /// bulk-class window ceiling and per-drain-pass deferred-GET quota
  /// (UGNIRT_TENANCY_QOS_BULK_CEILING / _QUOTA).
  std::uint32_t qos_bulk_ceiling = 8;
  std::uint32_t qos_bulk_quota = 2;

  /// scavenger-class ceiling/quota (UGNIRT_TENANCY_QOS_SCAVENGER_CEILING
  /// / _QUOTA): background jobs that only soak up idle capacity.
  std::uint32_t qos_scavenger_ceiling = 2;
  std::uint32_t qos_scavenger_quota = 1;

  /// Every knob, keyed "tenancy.<field>" (UGNIRT_TENANCY_<FIELD>); see
  /// util/config.hpp for the generic reader, writer and env applier.
  template <class Self, class F>
  static void for_each_knob(Self& c, F&& f) {
    f("tenancy.enable", c.enable);
    f("tenancy.placement", c.placement);
    f("tenancy.seed", c.seed);
    f("tenancy.jobs", c.jobs);
    f("tenancy.qos_enable", c.qos_enable);
    f("tenancy.qos_latency_floor", c.qos_latency_floor);
    f("tenancy.qos_bulk_ceiling", c.qos_bulk_ceiling);
    f("tenancy.qos_bulk_quota", c.qos_bulk_quota);
    f("tenancy.qos_scavenger_ceiling", c.qos_scavenger_ceiling);
    f("tenancy.qos_scavenger_quota", c.qos_scavenger_quota);
  }

  /// Keep the classes meaningful whatever the overrides say: a latency
  /// floor of 0 would demote the class to best-effort, ceilings of 0
  /// would wedge bulk jobs outright, and an unknown placement falls back
  /// to "compact".
  void normalize();
};

}  // namespace ugnirt::tenancy
