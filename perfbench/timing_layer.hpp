// A forwarding LRTS MachineLayer that times the layer from outside.
//
// The traced run of a benchmark-driven workload hands the machine this
// wrapper around the real layer (UgniLayer or SmpLayer).  Every call is
// passed straight through; the four per-message entry points (submit,
// advance, alloc, free_msg) are additionally timed with steady_clock.
// The wrapper charges no virtual time, so every virtual-time result must
// be bit-identical to a machine built by lrts::make_machine; the driver
// checks exactly that.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>

#include "converse/machine.hpp"

namespace perfbench {

namespace cv = ugnirt::converse;

/// Host time spent in one layer entry point.
struct LayerCall {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

class TimingLayer final : public cv::MachineLayer {
 public:
  explicit TimingLayer(std::unique_ptr<cv::MachineLayer> inner)
      : inner_(std::move(inner)) {}

  const char* name() const override { return inner_->name(); }
  void init_pe(cv::Pe& pe) override { inner_->init_pe(pe); }

  void* alloc(ugnirt::sim::Context& ctx, cv::Pe& pe,
              std::size_t bytes) override {
    const auto t0 = Clock::now();
    void* p = inner_->alloc(ctx, pe, bytes);
    stop(alloc_, t0);
    return p;
  }
  void free_msg(ugnirt::sim::Context& ctx, cv::Pe& pe, void* msg) override {
    const auto t0 = Clock::now();
    inner_->free_msg(ctx, pe, msg);
    stop(free_, t0);
  }
  void submit(ugnirt::sim::Context& ctx, cv::Pe& src, int dest_pe,
              cv::MsgView msg, const cv::SendOptions& opts) override {
    const auto t0 = Clock::now();
    inner_->submit(ctx, src, dest_pe, msg, opts);
    stop(submit_, t0);
  }
  void advance(ugnirt::sim::Context& ctx, cv::Pe& pe) override {
    const auto t0 = Clock::now();
    inner_->advance(ctx, pe);
    stop(advance_, t0);
  }

  std::uint32_t recommended_batch_bytes(cv::Pe& src,
                                        int dest_pe) const override {
    return inner_->recommended_batch_bytes(src, dest_pe);
  }
  bool has_backlog(const cv::Pe& pe) const override {
    return inner_->has_backlog(pe);
  }
  void collect_metrics(ugnirt::trace::MetricsRegistry& reg) override {
    inner_->collect_metrics(reg);
  }
  ugnirt::flowcontrol::InjectionGovernor* governor() override {
    return inner_->governor();
  }
  cv::PersistentHandle create_persistent(ugnirt::sim::Context& ctx,
                                         cv::Pe& src, int dest_pe,
                                         std::uint32_t max_bytes) override {
    return inner_->create_persistent(ctx, src, dest_pe, max_bytes);
  }

  const LayerCall& submit_calls() const { return submit_; }
  const LayerCall& advance_calls() const { return advance_; }
  const LayerCall& alloc_calls() const { return alloc_; }
  const LayerCall& free_calls() const { return free_; }

  /// Host ns spent inside the layer so far, over all four entry points.
  std::uint64_t total_ns() const {
    return submit_.ns + advance_.ns + alloc_.ns + free_.ns;
  }
  /// Forget what machine construction cost, so the totals cover run().
  void reset() { submit_ = advance_ = alloc_ = free_ = LayerCall{}; }

 private:
  using Clock = std::chrono::steady_clock;

  static void stop(LayerCall& c, Clock::time_point t0) {
    c.ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    ++c.calls;
  }

  std::unique_ptr<cv::MachineLayer> inner_;
  LayerCall submit_, advance_, alloc_, free_;
};

}  // namespace perfbench
