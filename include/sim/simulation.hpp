#pragma once
// Simulation: the deterministic world one experiment runs in — an event
// scheduler, seeded RNG streams, a metrics registry (counters + high-
// watermark gauges) and optional structured traces. Protocol code never
// touches wall-clock time or global RNG state, only this object.
//
// A Simulation can be planned with execution contexts ("domains", one per
// BR subtree, plus a serialized global context). rng(), trace() and now()
// route to the currently-executing context, so the same protocol code runs
// unchanged on the single-heap oracle Scheduler (threads == 0) or the
// domain-sharded parallel engine (threads > 0) — and, because both engines
// execute the identical per-context event order with identical per-context
// RNG streams, the two modes produce identical delivery traces.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/sharded_scheduler.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace ringnet::sim {

enum class TraceKind : std::uint8_t {
  TokenPass,     // a = epoch, b = rotation counter
  TokenRegen,    // a = new epoch
  TokenDestroy,  // a = epoch of the destroyed duplicate
  NodeCrash,
  RingRepair,    // a = surviving ring size
  Handoff,       // a = 1 hot attach, 0 cold
  GapSkip,       // a = number of sequence numbers skipped
  Deliver,       // a = gseq
};

struct TraceEvent {
  TraceKind kind{};
  SimTime at;
  NodeId node;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class Trace {
 public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Cap retained events at `cap` (keep-latest ring); 0 restores the
  /// unbounded default. A capped trace can stay enabled through soak runs:
  /// memory is O(cap) and `dropped()` counts what fell off the front.
  void set_capacity(std::size_t cap) {
    capacity_ = cap;
    while (over_capacity()) {
      events_.pop_front();
      ++dropped_;
    }
  }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }

  void record(TraceKind kind, SimTime at, NodeId node, std::uint64_t a = 0,
              std::uint64_t b = 0) {
    if (!enabled_) return;
    events_.push_back(TraceEvent{kind, at, node, a, b});
    if (over_capacity()) {
      events_.pop_front();
      ++dropped_;
    }
  }

  const std::deque<TraceEvent>& events() const { return events_; }

  /// Visit every retained event of `kind` in order without materializing a
  /// filtered copy.
  template <typename Fn>
  void for_each(TraceKind kind, Fn&& fn) const {
    for (const auto& ev : events_) {
      if (ev.kind == kind) fn(ev);
    }
  }

  std::size_t count(TraceKind kind) const {
    std::size_t n = 0;
    for_each(kind, [&n](const TraceEvent&) { ++n; });
    return n;
  }

  std::vector<TraceEvent> filter(TraceKind kind) const {
    std::vector<TraceEvent> out;
    out.reserve(count(kind));
    for_each(kind, [&out](const TraceEvent& ev) { out.push_back(ev); });
    return out;
  }

 private:
  bool over_capacity() const {
    return capacity_ != 0 && events_.size() > capacity_;
  }

  bool enabled_ = false;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t dropped_ = 0;
  std::deque<TraceEvent> events_;
};

/// Execution plan for a Simulation. domains == 0 is the classic
/// single-context simulation. With domains > 0, threads selects the
/// engine: 0 runs the single-heap deterministic oracle (same contexts,
/// same event keys, serial execution); > 0 runs the domain-sharded
/// conservative-lookahead engine on that many pool workers.
struct ShardPlan {
  Domain domains = 0;
  SimTime lookahead = msecs(5);  // inter-domain latency floor
  std::size_t threads = 0;
};

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed) : Simulation(seed, ShardPlan{}) {}

  Simulation(std::uint64_t seed, ShardPlan plan)
      : plan_(plan),
        seed_(seed),
        single_(plan.domains),
        metrics_(static_cast<std::size_t>(plan.domains) + 1) {
    const std::size_t n_ctx = static_cast<std::size_t>(plan.domains) + 1;
    rngs_.reserve(n_ctx);
    for (std::size_t i = 0; i < n_ctx; ++i) {
      // The global context keeps the raw seed (bit-compatible with the
      // pre-sharding single-stream simulation); shard streams split off
      // with a fixed odd multiplier.
      rngs_.emplace_back(i + 1 == n_ctx
                             ? seed
                             : seed ^ (0x9E3779B97F4A7C15ull * (i + 1)));
    }
    traces_.resize(n_ctx);
    if (plan.domains > 0 && plan.threads > 0) {
      sharded_ = std::make_unique<ShardedScheduler>(
          plan.domains, plan.lookahead, plan.threads);
      sharded_->set_metrics(&metrics_);
    }
  }

  std::uint64_t seed() const { return seed_; }
  const ShardPlan& plan() const { return plan_; }
  Domain domain_count() const { return plan_.domains; }
  Domain global_domain() const { return plan_.domains; }
  bool sharded() const { return sharded_ != nullptr; }
  SimTime lookahead() const { return plan_.lookahead; }

  /// The context currently executing (global when called between runs).
  Domain current_ctx() const {
    return tls_exec_ctx ? tls_exec_ctx->domain : global_domain();
  }

  SimTime now() const {
    if (tls_exec_ctx) return tls_exec_ctx->now;
    return sharded_ ? sharded_->now() : single_.now();
  }

  Scheduler& scheduler() { return single_; }
  util::Rng& rng() { return rngs_[current_ctx()]; }
  Trace& trace() { return traces_[current_ctx()]; }
  const Trace& trace() const { return traces_[current_ctx()]; }
  obs::Metrics& metrics() { return metrics_; }
  const obs::Metrics& metrics() const { return metrics_; }

  /// Every per-context trace (index global_domain() is the global one).
  const std::vector<Trace>& traces() const { return traces_; }

  /// Enable (and optionally cap) tracing in every context.
  void enable_trace(std::size_t capacity = 0) {
    for (auto& t : traces_) {
      t.enable();
      if (capacity != 0) t.set_capacity(capacity);
    }
  }

  std::uint64_t executed_events() const {
    return sharded_ ? sharded_->executed() : single_.executed();
  }
  std::size_t pending_events() const {
    return sharded_ ? sharded_->pending() : single_.pending();
  }

  /// Schedule into the currently-executing context.
  void at(SimTime t, Action action) {
    if (sharded_) {
      sharded_->schedule_at(t, std::move(action));
    } else {
      single_.schedule_at(t, std::move(action));
    }
  }
  void after(SimTime delay, Action action) {
    at(now() + delay, std::move(action));
  }

  /// Schedule into an explicit target context.
  void at(Domain target, SimTime t, Action action) {
    if (sharded_) {
      sharded_->schedule(target, t, std::move(action));
    } else {
      single_.schedule(target, t, std::move(action));
    }
  }
  void after(Domain target, SimTime delay, Action action) {
    at(target, now() + delay, std::move(action));
  }

  /// Advance simulated time by `span`, running everything due in between.
  void run_for(SimTime span) {
    const SimTime until = now() + span;
    if (sharded_) {
      sharded_->run_until(until);
    } else {
      single_.run_until(until);
    }
  }
  void run_to_completion() {
    if (sharded_) {
      sharded_->run_to_completion();
    } else {
      single_.run_to_completion();
    }
  }

 private:
  ShardPlan plan_;
  std::uint64_t seed_;
  Scheduler single_;
  std::unique_ptr<ShardedScheduler> sharded_;
  std::vector<util::Rng> rngs_;
  std::vector<Trace> traces_;
  obs::Metrics metrics_;
};

}  // namespace ringnet::sim
