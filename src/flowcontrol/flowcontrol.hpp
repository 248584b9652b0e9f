// Congestion control: link-load telemetry and adaptive injection pacing.
//
// The gemini::Network reproduces torus contention through FIFO link
// reservations, but every layer above it injects blindly: rendezvous GETs
// post as fast as INIT messages arrive, and the eager/rendezvous and
// FMA/BTE size thresholds are fixed MachineConfig constants.  Under
// hotspot traffic that floods the victim node's links and the tail
// latency explodes (Jha et al., "A Study of Network Congestion in Two
// Supercomputing High-Speed Interconnects").
//
// This subsystem closes the loop:
//
//   * CongestionEstimator — fed by Network::reserve_route with one O(1)
//     EWMA update per link reservation (sample = wait/(wait+duration)),
//     it tracks a smoothed wait fraction per directional link and per
//     NIC.  The network also consults it for congestion-aware minimal
//     adaptive routing (see Network::pick_order).
//   * InjectionGovernor — owned by the uGNI LRTS layer.  An AIMD window
//     per PE caps outstanding FMA/BTE transactions: rendezvous GETs that
//     would exceed the window are deferred (kInjectionStall) and drained
//     from the progress engine as completions free slots.  Completions
//     on hot paths shrink the window multiplicatively; cool completions
//     grow it additively.  The governor also adapts the eager cap and
//     the FMA/BTE threshold while the destination NIC is hot.
//
// Everything is a deterministic function of the (deterministic) reserve
// and completion sequences, so seeded runs stay bit-reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "flowcontrol/config.hpp"
#include "trace/metrics.hpp"
#include "util/units.hpp"

namespace ugnirt::flowcontrol {

/// EWMA link/NIC load estimates, updated on every link reservation.
class CongestionEstimator {
 public:
  CongestionEstimator(const FlowConfig& cfg, std::size_t num_links,
                      std::size_t num_nodes);

  /// Fold one reservation into the estimates: the link carried
  /// `duration_ns` of traffic after `wait_ns` of queueing, initiated by
  /// `initiator_node`'s NIC.  O(1); called from Network::reserve_route.
  void on_link_reserve(std::size_t link, int initiator_node, SimTime wait_ns,
                       SimTime duration_ns, SimTime now);

  /// Smoothed wait fraction of one directional link, in [0, 1).
  double link_load(std::size_t link) const { return link_load_[link]; }
  /// Smoothed wait fraction over all reservations initiated by this
  /// node's NIC — the hotspot signal the governor keys off.
  double node_load(int node) const {
    return node_load_[static_cast<std::size_t>(node)];
  }
  bool node_hot(int node) const {
    return node_load(node) >= cfg_.hot_threshold;
  }

  const FlowConfig& config() const { return cfg_; }

  std::uint64_t samples() const { return samples_; }

  /// Publish flow.samples / flow.hot_samples counters plus link-load
  /// gauges into the registry.
  void collect_metrics(trace::MetricsRegistry& reg) const;

 private:
  FlowConfig cfg_;
  std::vector<double> link_load_;   // per directional link
  std::vector<double> node_load_;   // per NIC (initiator node)
  std::vector<SimTime> last_sample_;  // kCongestionSample rate limiting
  std::uint64_t samples_ = 0;
  std::uint64_t hot_samples_ = 0;  // samples taken while the NIC was hot
};

/// Per-PE quality-of-service bounds layered onto the AIMD window by the
/// tenancy subsystem (JobManager::place maps a job's QoS class to one of
/// these per PE).  Default-constructed params are inert: the window keeps
/// the configured [window_min, window_max] range and deferred-GET drains
/// stay unbounded, so a governor with no QoS set behaves bit-identically
/// to stock.
struct QosParams {
  /// AIMD floor; 0 keeps FlowConfig::window_min.  Latency-class jobs
  /// raise it so hotspot backoff cannot starve their rendezvous GETs.
  std::uint32_t window_floor = 0;
  /// AIMD ceiling; 0 keeps FlowConfig::window_max.  Bulk/scavenger jobs
  /// lower it so their storms cannot monopolize links.
  std::uint32_t window_ceiling = 0;
  /// Max deferred-GET re-admissions per drain_deferred_gets pass;
  /// 0 = unbounded.  The weighted-admission knob: scavengers trickle
  /// their queued GETs while latency jobs drain freely.
  std::uint32_t drain_quota = 0;
};

/// Per-PE AIMD window over outstanding governed transactions, plus
/// runtime-adapted protocol thresholds.  Construct via make_governor()
/// (enforced by tools/check_deprecated_sends.sh) so every call site is
/// QoS-capable.
class InjectionGovernor {
 public:
  InjectionGovernor(const FlowConfig& cfg, const CongestionEstimator* est,
                    int num_pes);

  /// Admission check for a governed post (rendezvous GET).  On success
  /// the transaction counts against `pe`'s window.  On refusal (window
  /// full and pacing on) the caller must defer and re-try from its
  /// progress engine; a kInjectionStall event is emitted.
  bool try_acquire(int pe, int dest, std::uint32_t bytes, SimTime now);

  /// Whether try_acquire would admit, without side effects — progress
  /// engines poll this so drain retries don't inflate the stall count.
  bool would_admit(int pe) const {
    const PeWindow& w = pe_[static_cast<std::size_t>(pe)];
    return !cfg_.pace_rendezvous ||
           w.outstanding < static_cast<std::uint32_t>(w.cwnd);
  }

  /// Count an ungoverned post (persistent PUT: latency-critical, never
  /// deferred) against the window so its completion drives AIMD too.
  void note_post(int pe);

  /// A governed/noted transaction completed; `node` is the completing
  /// PE's node, whose estimated load steers the AIMD update.
  void on_complete(int pe, int node, SimTime now);

  std::uint32_t window(int pe) const {
    return static_cast<std::uint32_t>(pe_[static_cast<std::size_t>(pe)].cwnd);
  }
  std::uint32_t outstanding(int pe) const {
    return pe_[static_cast<std::size_t>(pe)].outstanding;
  }

  /// Install per-PE QoS bounds (tenancy: job QoS class -> window bounds +
  /// drain quota).  The current window is clamped into the new range
  /// immediately; AIMD updates stay inside it from then on.
  void set_pe_qos(int pe, const QosParams& qos);
  /// The PE's deferred-GET re-admission quota per drain pass (0 = none
  /// set: drain everything the window admits).
  std::uint32_t drain_quota(int pe) const {
    return pe_[static_cast<std::size_t>(pe)].drain_quota;
  }

  /// Eager/rendezvous boundary: the configured cap while the node is
  /// cool, shrunk while it is hot so mid-size messages take the paced
  /// rendezvous path instead of stuffing SMSG mailboxes.
  std::uint32_t eager_cap(std::uint32_t base, int node) const;

  /// FMA/BTE GET boundary: hot nodes switch to the offloaded BTE engine
  /// earlier, freeing the CPU to drain completions.
  std::uint32_t rdma_threshold(std::uint32_t base, int node) const;

  void collect_metrics(trace::MetricsRegistry& reg) const;

 private:
  struct PeWindow {
    double cwnd = 0;
    std::uint32_t outstanding = 0;
    // Effective AIMD bounds: FlowConfig::window_{min,max} until QoS
    // narrows them (see set_pe_qos).
    std::uint32_t floor = 1;
    std::uint32_t ceiling = 1;
    std::uint32_t drain_quota = 0;
  };

  FlowConfig cfg_;
  const CongestionEstimator* est_;  // may be null (telemetry disabled)
  std::vector<PeWindow> pe_;
  std::uint64_t admits_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t increases_ = 0;
  std::uint64_t decreases_ = 0;
  mutable std::uint64_t eager_shrinks_ = 0;
  mutable std::uint64_t rdma_shifts_ = 0;
  std::uint64_t qos_pes_ = 0;  // PEs with QoS bounds installed
};

/// The one sanctioned way to build an InjectionGovernor.  Layers and tests
/// go through here (direct construction outside src/flowcontrol and
/// src/tenancy trips the deprecated-send lint) so per-job QoS classes can
/// never be bypassed by a new call site growing its own governor.
std::unique_ptr<InjectionGovernor> make_governor(const FlowConfig& cfg,
                                                 const CongestionEstimator* est,
                                                 int num_pes);

}  // namespace ugnirt::flowcontrol
