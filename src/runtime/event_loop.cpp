#include "runtime/event_loop.hpp"

#include <algorithm>

namespace ringnet::runtime {

NodeLoop::NodeLoop(RuntimeNode& node, Transport& transport,
                   util::Clock& clock, std::int64_t tick_us)
    : node_(node),
      transport_(transport),
      clock_(clock),
      tick_us_(tick_us > 0 ? tick_us : 1000) {}

NodeLoop::~NodeLoop() { stop(); }

void NodeLoop::start() {
  if (thread_.joinable()) return;
  stop_flag_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run(); });
}

void NodeLoop::stop() {
  if (!thread_.joinable()) return;
  stop_flag_.store(true, std::memory_order_relaxed);
  thread_.join();
}

void NodeLoop::run() {
  node_.on_start(clock_.now_us());
  std::int64_t next_tick_us = clock_.now_us() + tick_us_;
  while (!stop_flag_.load(std::memory_order_relaxed)) {
    std::int64_t due_us = std::min(next_tick_us, node_.next_deadline_us());
    auto d = transport_.recv(due_us - clock_.now_us());
    while (d) {
      node_.on_datagram(*d, clock_.now_us());
      // A datagram can move the node's deadline earlier (a token arrives).
      due_us = std::min(due_us, node_.next_deadline_us());
      if (clock_.now_us() >= due_us) break;
      d = transport_.recv(0);
    }
    const std::int64_t now_us = clock_.now_us();
    if (now_us < due_us) continue;
    node_.on_tick(now_us);
    if (now_us >= next_tick_us) next_tick_us = now_us + tick_us_;
  }
  while (auto d = transport_.recv(0)) node_.on_datagram(*d, clock_.now_us());
}

}  // namespace ringnet::runtime
