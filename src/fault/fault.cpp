#include "fault/fault.hpp"

#include "trace/metrics.hpp"

namespace ugnirt::fault {

FaultInjector::FaultInjector(const FaultPlan& plan)
    : plan_(plan), base_(plan.seed) {}

Rng& FaultInjector::stream(Site site, std::uint64_t actor) {
  const std::uint64_t id = (static_cast<std::uint64_t>(site) << 48) ^ actor;
  auto it = streams_.find(id);
  if (it == streams_.end()) {
    it = streams_.emplace(id, base_.derive(id)).first;
  }
  return it->second;
}

bool FaultInjector::draw(Site site, std::uint64_t actor, double p) {
  if (p <= 0.0) return false;
  return stream(site, actor).next_double() < p;
}

bool FaultInjector::inject_post_error(std::int32_t inst) {
  const bool hit =
      draw(kSitePost, static_cast<std::uint64_t>(inst), plan_.p_post_error);
  if (hit) ++n_.post_errors;
  return hit;
}

bool FaultInjector::inject_reg_error(std::int32_t inst) {
  const bool hit =
      draw(kSiteReg, static_cast<std::uint64_t>(inst), plan_.p_reg_error);
  if (hit) ++n_.reg_errors;
  return hit;
}

bool FaultInjector::inject_smsg_error(std::int32_t inst) {
  const bool hit = draw(kSiteSmsgError, static_cast<std::uint64_t>(inst),
                        plan_.p_smsg_error);
  if (hit) ++n_.smsg_errors;
  return hit;
}

bool FaultInjector::inject_cq_overrun(std::int32_t inst) {
  const bool hit =
      draw(kSiteCq, static_cast<std::uint64_t>(inst), plan_.p_cq_overrun);
  if (hit) ++n_.cq_overruns;
  return hit;
}

bool FaultInjector::smsg_starved(std::int32_t inst, std::int32_t peer,
                                 SimTime now) {
  const std::uint64_t chan = (static_cast<std::uint64_t>(
                                  static_cast<std::uint32_t>(inst))
                              << 32) |
                             static_cast<std::uint32_t>(peer);
  auto it = starve_until_.find(chan);
  if (it != starve_until_.end() && now < it->second) {
    ++n_.starved_sends;
    return true;
  }
  if (draw(kSiteStarve, chan, plan_.p_smsg_starve)) {
    starve_until_[chan] = now + plan_.smsg_starve_ns;
    ++n_.starve_windows;
    ++n_.starved_sends;
    return true;
  }
  return false;
}

LinkFault FaultInjector::link_fault(int from_node, int to_node, SimTime now) {
  LinkFault f;
  if (plan_.p_link_degrade <= 0.0 && plan_.p_link_blackout <= 0.0) return f;
  const std::uint64_t route = (static_cast<std::uint64_t>(
                                   static_cast<std::uint32_t>(from_node))
                               << 32) |
                              static_cast<std::uint32_t>(to_node);
  LinkState& ls = links_[route];
  if (now >= ls.blackout_until &&
      draw(kSiteLink, route, plan_.p_link_blackout)) {
    ls.blackout_until = now + plan_.link_blackout_ns;
    ++n_.blackout_windows;
  }
  if (now >= ls.degraded_until &&
      draw(kSiteLink, route, plan_.p_link_degrade)) {
    ls.degraded_until = now + plan_.link_degrade_ns;
    ++n_.degrade_windows;
  }
  if (now < ls.blackout_until) f.delay = ls.blackout_until - now;
  if (now < ls.degraded_until && plan_.link_slowdown > 1.0) {
    f.slowdown = plan_.link_slowdown;
  }
  return f;
}

void FaultInjector::collect_metrics(trace::MetricsRegistry& reg) const {
  reg.counter("fault.post_errors").set(n_.post_errors);
  reg.counter("fault.reg_errors").set(n_.reg_errors);
  reg.counter("fault.smsg_errors").set(n_.smsg_errors);
  reg.counter("fault.cq_overruns").set(n_.cq_overruns);
  reg.counter("fault.smsg_starve_windows").set(n_.starve_windows);
  reg.counter("fault.smsg_starved_sends").set(n_.starved_sends);
  reg.counter("fault.link_degrade_windows").set(n_.degrade_windows);
  reg.counter("fault.link_blackout_windows").set(n_.blackout_windows);
}

std::uint64_t FaultInjector::injected_total() const {
  return n_.post_errors + n_.reg_errors + n_.smsg_errors + n_.cq_overruns +
         n_.starve_windows + n_.degrade_windows + n_.blackout_windows;
}

}  // namespace ugnirt::fault
