#include "tenancy/tenancy.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <numeric>

#include "flowcontrol/flowcontrol.hpp"
#include "gemini/network.hpp"
#include "trace/events.hpp"
#include "util/rng.hpp"

namespace ugnirt::tenancy {

// ---------------------------------------------------------------------------
// TenancyConfig
// ---------------------------------------------------------------------------

void TenancyConfig::normalize() {
  qos_latency_floor = std::max<std::uint32_t>(qos_latency_floor, 1);
  qos_bulk_ceiling = std::max<std::uint32_t>(qos_bulk_ceiling, 1);
  qos_scavenger_ceiling = std::max<std::uint32_t>(qos_scavenger_ceiling, 1);
  Placement p;
  if (!placement_from_string(placement, &p)) placement = "compact";
}

// ---------------------------------------------------------------------------
// Enums
// ---------------------------------------------------------------------------

const char* qos_name(QosClass q) {
  switch (q) {
    case QosClass::kLatency:
      return "latency";
    case QosClass::kBulk:
      return "bulk";
    case QosClass::kScavenger:
      return "scavenger";
  }
  return "?";
}

bool qos_from_string(const std::string& s, QosClass* out) {
  if (s == "latency") {
    *out = QosClass::kLatency;
  } else if (s == "bulk") {
    *out = QosClass::kBulk;
  } else if (s == "scavenger") {
    *out = QosClass::kScavenger;
  } else {
    return false;
  }
  return true;
}

const char* placement_name(Placement p) {
  switch (p) {
    case Placement::kCompact:
      return "compact";
    case Placement::kScatter:
      return "scatter";
    case Placement::kRandom:
      return "random";
  }
  return "?";
}

bool placement_from_string(const std::string& s, Placement* out) {
  if (s == "compact") {
    *out = Placement::kCompact;
  } else if (s == "scatter") {
    *out = Placement::kScatter;
  } else if (s == "random") {
    *out = Placement::kRandom;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// JobManager
// ---------------------------------------------------------------------------

JobManager::JobManager(converse::Machine& m, const TenancyConfig& cfg)
    : m_(&m), cfg_(cfg) {
  placement_from_string(cfg_.placement, &placement_);  // validated by from()
  job_of_pe_.assign(static_cast<std::size_t>(m.num_pes()), -1);
  rank_of_pe_.assign(static_cast<std::size_t>(m.num_pes()), -1);
  if (!cfg_.jobs.empty()) parse_jobs_spec(cfg_.jobs);
}

void JobManager::parse_jobs_spec(const std::string& spec) {
  // "name:qos:pes,name:qos:pes,..." — malformed entries are skipped
  // (a bad env override must not crash a soak; the job count check in
  // place() still catches an empty table).
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t c1 = entry.find(':');
    const std::size_t c2 =
        c1 == std::string::npos ? std::string::npos : entry.find(':', c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) continue;
    JobSpec js;
    js.name = entry.substr(0, c1);
    if (!qos_from_string(entry.substr(c1 + 1, c2 - c1 - 1), &js.qos)) continue;
    js.pes = std::atoi(entry.c_str() + c2 + 1);
    if (js.name.empty() || js.pes <= 0) continue;
    add_job(std::move(js));
  }
}

JobId JobManager::add_job(JobSpec spec) {
  assert(!placed_ && "add_job after place()");
  const JobId id = static_cast<JobId>(jobs_.size());
  jobs_.emplace_back(id, std::move(spec));
  return id;
}

void JobManager::place() {
  assert(!placed_ && "place() is one-shot");
  assert(!jobs_.empty() && "place() with no jobs");
  int total = 0;
  for (const Job& j : jobs_) total += j.size();
  assert(total <= m_->num_pes() && "jobs oversubscribe the machine");
  (void)total;
  assign_pes();
  apply_qos();
  install_attribution();
  placed_ = true;
}

void JobManager::assign_pes() {
  const int n = m_->num_pes();
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  switch (placement_) {
    case Placement::kCompact:
      // Contiguous slabs in job order: the friendly allocation.
      break;
    case Placement::kScatter: {
      // Round-robin deal: pe 0 -> job 0, pe 1 -> job 1, ... wrapping, so
      // every job is striped across the whole machine.  Realized by
      // permuting the id space so slab-slicing below lands the stripes.
      std::vector<int> striped;
      striped.reserve(order.size());
      std::vector<std::vector<int>> per_job(jobs_.size());
      std::size_t next = 0;
      std::vector<int> need(jobs_.size());
      for (std::size_t j = 0; j < jobs_.size(); ++j) need[j] = jobs_[j].size();
      for (int pe = 0; pe < n; ++pe) {
        // The next job (cyclic) still short of PEs takes this id.
        std::size_t tried = 0;
        while (tried < jobs_.size() && need[next] == 0) {
          next = (next + 1) % jobs_.size();
          ++tried;
        }
        if (tried == jobs_.size()) break;  // all jobs full
        per_job[next].push_back(pe);
        --need[next];
        next = (next + 1) % jobs_.size();
      }
      striped.clear();
      for (const auto& v : per_job) striped.insert(striped.end(), v.begin(), v.end());
      // Unassigned ids (machine bigger than the job sum) go last.
      for (int pe = 0; pe < n; ++pe) {
        bool taken = false;
        for (const auto& v : per_job) {
          if (std::binary_search(v.begin(), v.end(), pe)) {
            taken = true;
            break;
          }
        }
        if (!taken) striped.push_back(pe);
      }
      order = std::move(striped);
      break;
    }
    case Placement::kRandom: {
      // Seeded Fisher-Yates: the fragmented allocation of a busy
      // scheduler.  Seed 0 derives from the machine seed so one knob
      // reseeds the whole run.
      Rng rng(cfg_.seed != 0 ? cfg_.seed
                             : (m_->options().seed ^ 0x7e9a'9c1e'5eed'0001ULL));
      for (std::size_t i = order.size(); i > 1; --i) {
        const std::size_t j = rng.next_below(static_cast<std::uint32_t>(i));
        std::swap(order[i - 1], order[j]);
      }
      break;
    }
  }
  std::size_t cursor = 0;
  for (Job& job : jobs_) {
    job.pes_.assign(order.begin() + static_cast<std::ptrdiff_t>(cursor),
                    order.begin() +
                        static_cast<std::ptrdiff_t>(cursor + job.size()));
    cursor += static_cast<std::size_t>(job.size());
    // Ascending global ids: job-local rank order is deterministic and
    // placement-independent.
    std::sort(job.pes_.begin(), job.pes_.end());
    for (std::size_t r = 0; r < job.pes_.size(); ++r) {
      job_of_pe_[static_cast<std::size_t>(job.pes_[r])] =
          static_cast<std::int16_t>(job.id());
      rank_of_pe_[static_cast<std::size_t>(job.pes_[r])] =
          static_cast<int>(r);
    }
  }
}

void JobManager::apply_qos() {
  if (!cfg_.qos_enable) return;
  flowcontrol::InjectionGovernor* gov = m_->layer().governor();
  if (!gov) return;  // flow control off: nothing to bound
  const flowcontrol::FlowConfig& fc = m_->options().flow;
  for (const Job& job : jobs_) {
    flowcontrol::QosParams qp;
    switch (job.qos()) {
      case QosClass::kLatency:
        // Floor above the AIMD minimum so hotspot backoff (driven by the
        // aggressors' own congestion) cannot starve the victim's GETs;
        // ceiling and drain stay at the config-wide defaults.
        qp.window_floor = std::max(fc.window_min, cfg_.qos_latency_floor);
        break;
      case QosClass::kBulk:
        qp.window_ceiling = std::min(fc.window_max, cfg_.qos_bulk_ceiling);
        qp.drain_quota = cfg_.qos_bulk_quota;
        break;
      case QosClass::kScavenger:
        qp.window_ceiling =
            std::min(fc.window_max, cfg_.qos_scavenger_ceiling);
        qp.drain_quota = cfg_.qos_scavenger_quota;
        break;
    }
    for (int pe : job.pes()) gov->set_pe_qos(pe, qp);
  }
}

void JobManager::install_attribution() {
  // Network: per-node job map (a node carries its job's id only when all
  // its PEs belong to one job — mixed nodes stay unattributed rather
  // than guessing).
  const int nodes = m_->options().nodes();
  std::vector<std::int16_t> job_of_node(static_cast<std::size_t>(nodes), -1);
  const int ppn = m_->options().effective_pes_per_node();
  for (int node = 0; node < nodes; ++node) {
    std::int16_t job = -2;  // unset
    for (int p = node * ppn; p < (node + 1) * ppn && p < m_->num_pes(); ++p) {
      const std::int16_t j = job_of_pe_[static_cast<std::size_t>(p)];
      if (job == -2) {
        job = j;
      } else if (job != j) {
        job = -1;  // mixed node
        break;
      }
    }
    job_of_node[static_cast<std::size_t>(node)] = job == -2 ? -1 : job;
  }
  m_->network().set_job_of_node(std::move(job_of_node), num_jobs());
  // Tracer: exported event rows gain a `job` column keyed by PE.
  if (trace::enabled()) trace::tracer()->set_job_of_pe(job_of_pe_);
}

std::string JobManager::metric_name(JobId id, const char* suffix) {
  return "job." + std::to_string(id) + "." + suffix;
}

trace::Histogram& JobManager::delivery_hist(JobId id) {
  return m_->metrics().histogram(metric_name(id, "delivery_us"));
}

void JobManager::collect_metrics() {
  for (const Job& job : jobs_) {
    m_->metrics()
        .gauge(metric_name(job.id(), "pes"))
        .set(static_cast<double>(job.size()));
    std::uint64_t executed = 0;
    for (int pe : job.pes()) executed += m_->pe(pe).msgs_executed();
    m_->metrics().counter(metric_name(job.id(), "msgs_executed")).set(executed);
  }
}

}  // namespace ugnirt::tenancy
