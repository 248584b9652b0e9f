#include "trace/session.hpp"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>

#include "util/config.hpp"
#include "util/log.hpp"

namespace ugnirt::trace {

namespace {

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || n == 0) return fallback;
  return static_cast<std::size_t>(n);
}

}  // namespace

TraceSession::TraceSession(std::size_t ring_capacity, std::string output_base,
                           bool base_from_env, SpanConfig span_cfg)
    : events_(ring_capacity),
      output_base_(std::move(output_base)),
      base_from_env_(base_from_env) {
  set_tracer(&events_);
  if (span_cfg.sample > 0) {
    spans_ = std::make_unique<SpanCollector>(span_cfg);
    set_span_collector(spans_.get());
  }
}

TraceSession* TraceSession::active() {
  // Function-local static: first caller pays the env parse; the session
  // lives until static destruction, whose dtor flushes output files.
  static std::unique_ptr<TraceSession> session = [] {
    SpanConfig span_cfg;
    apply_env_knobs(span_cfg);
    // Span sampling activates the session on its own: breakdowns need the
    // metrics/flush machinery even when event tracing stays off.
    if (!env_truthy("UGNIRT_TRACE") && span_cfg.sample == 0) {
      return std::unique_ptr<TraceSession>();
    }
    const char* base = std::getenv("UGNIRT_TRACE_FILE");
    std::size_t ring = env_size("UGNIRT_TRACE_RING", 1u << 16);
    bool base_from_env = base && *base;
    return std::unique_ptr<TraceSession>(
        new TraceSession(ring, base_from_env ? base : "ugnirt_trace",
                         base_from_env, span_cfg));
  }();
  return session.get();
}

void TraceSession::flush() {
  flushed_ = true;
  // Surface per-kind event loss (ring evictions + rate-limited emission
  // sites) as counters so capped telemetry is visible in the export.
  for (int i = 0; i < kEvCount; ++i) {
    const Ev type = static_cast<Ev>(i);
    if (const std::uint64_t n = events_.dropped_of(type)) {
      metrics_.counter(std::string("trace.dropped.") + event_name(type))
          .set(n);
    }
  }
  if (spans_) spans_->fill_histograms(metrics_);
  bool ok = true;
  {
    std::ofstream json(output_base_ + ".trace.json");
    events_.write_chrome_json(json);
    ok = ok && json.good();
  }
  {
    std::ofstream csv(output_base_ + ".events.csv");
    events_.write_csv(csv);
    ok = ok && csv.good();
  }
  {
    std::ofstream csv(output_base_ + ".metrics.csv");
    metrics_.write_csv(csv);
    ok = ok && csv.good();
  }
  {
    std::ofstream json(output_base_ + ".metrics.json");
    metrics_.write_json(json);
    ok = ok && json.good();
  }
  if (spans_) {
    std::ofstream json(output_base_ + ".spans.json");
    spans_->write_chrome_json(json);
    ok = ok && json.good();
  }
  if (!ok) {
    std::cerr << "[ugnirt trace] ERROR: could not write trace files at base '"
              << output_base_ << "'\n";
    metrics_.dump_table(std::cerr);
    return;
  }
  std::cerr << "[ugnirt trace] wrote " << output_base_ << ".trace.json ("
            << events_.total_events() << " events, "
            << events_.total_dropped() << " dropped), " << output_base_
            << ".metrics.csv (" << metrics_.size() << " metrics)";
  if (spans_) {
    std::cerr << ", " << output_base_ << ".spans.json ("
              << spans_->span_count() << " spans)";
  }
  std::cerr << "\n";
  metrics_.dump_table(std::cerr);
  if (spans_) spans_->write_breakdown(std::cerr);
}

TraceSession::~TraceSession() {
  if (!flushed_) flush();
  set_span_collector(nullptr);
  set_tracer(nullptr);
}

}  // namespace ugnirt::trace
