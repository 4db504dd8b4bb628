#pragma once
// Per-node event loop: one thread per node, which alone touches node state.
// Each pass computes the next due time — the earlier of the periodic tick
// and the node's own next_deadline_us() — waits for a datagram until then
// (Transport::recv), drains the socket without blocking until it is empty
// or the due time has passed (so a flood never starves the timers), and
// fires RuntimeNode::on_tick once the due time has passed. A token hold or
// a source's next submit therefore fires at its own deadline, not at the
// next tick. Reading node state from outside is safe only after stop() has
// joined the thread.

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>

#include "runtime/transport.hpp"
#include "util/clock.hpp"

namespace ringnet::runtime {

/// Role logic driven by a NodeLoop. Every method is called from the loop
/// thread only, with `now_us` read from the injected clock.
class RuntimeNode {
 public:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  virtual ~RuntimeNode() = default;
  virtual void on_start(std::int64_t now_us) = 0;
  virtual void on_datagram(const Datagram& d, std::int64_t now_us) = 0;
  virtual void on_tick(std::int64_t now_us) = 0;
  /// The time the node next needs on_tick, if sooner than the periodic
  /// tick; kNoDeadline leaves it to the tick.
  virtual std::int64_t next_deadline_us() const { return kNoDeadline; }
};

class NodeLoop {
 public:
  NodeLoop(RuntimeNode& node, Transport& transport, util::Clock& clock,
           std::int64_t tick_us = 1000);
  ~NodeLoop();

  NodeLoop(const NodeLoop&) = delete;
  NodeLoop& operator=(const NodeLoop&) = delete;

  void start();
  /// Signal the loop thread and join it; it sees the flag within one wait
  /// (at most one tick). Datagrams still queued are drained through the
  /// node before the thread exits. Idempotent.
  void stop();

 private:
  void run();

  RuntimeNode& node_;
  Transport& transport_;
  util::Clock& clock_;
  const std::int64_t tick_us_;
  std::atomic<bool> stop_flag_{false};
  std::thread thread_;
};

}  // namespace ringnet::runtime
