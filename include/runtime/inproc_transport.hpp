#pragma once
// In-process transport twin: the channel-model counterpart of UdpTransport
// for deterministic runtime tests. An InProcNet owns one mailbox per node;
// send() appends to the destination mailbox under its mutex and recv()
// blocks on its condition variable. A drop hook lets tests script losses
// (e.g. "lose the first token frame BR0 forwards") and so exercise the
// wall-clock watchdog paths that never fire on a quiet loopback.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "runtime/transport.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace ringnet::runtime {

class InProcTransport;

/// The shared "wire": mailboxes for every registered node. Register every
/// node before starting any loop; the mailbox map is not resized after.
class InProcNet {
 public:
  /// Decide frame fate: return true to drop. Called on the sender's thread.
  /// Install before any loop starts; not synchronized against send().
  using DropHook = std::function<bool(NodeId from, NodeId to,
                                      const Datagram& d)>;

  std::unique_ptr<InProcTransport> attach(NodeId id);

  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

 private:
  friend class InProcTransport;

  struct Mailbox {
    util::Mutex mu;
    util::CondVar cv;
    std::deque<Datagram> queue RN_GUARDED_BY(mu);
  };

  bool deliver(NodeId from, NodeId to, Datagram d);

  std::unordered_map<NodeId, std::unique_ptr<Mailbox>> boxes_;
  DropHook drop_hook_;
};

class InProcTransport final : public Transport {
 public:
  bool send(NodeId to, const std::vector<std::uint8_t>& bytes) override {
    if (refuse_oversize(bytes)) return false;
    auto d = unframe(bytes.data(), bytes.size());
    if (!d) {
      ++send_failures_;
      return false;
    }
    if (!net_->deliver(self_, to, std::move(*d))) {
      ++send_failures_;
      return false;
    }
    ++sent_;
    return true;
  }

  std::optional<Datagram> recv(std::int64_t timeout_us) override {
    util::MutexLock lock(box_->mu);
    if (box_->queue.empty() && timeout_us > 0) {
      (void)box_->cv.wait_for_us(box_->mu, timeout_us);
    }
    if (box_->queue.empty()) return std::nullopt;
    Datagram d = std::move(box_->queue.front());
    box_->queue.pop_front();
    ++received_;
    return d;
  }

 private:
  friend class InProcNet;

  InProcTransport(NodeId self, InProcNet* net, InProcNet::Mailbox* box)
      : Transport(self), net_(net), box_(box) {}

  InProcNet* net_;
  InProcNet::Mailbox* box_;
};

inline std::unique_ptr<InProcTransport> InProcNet::attach(NodeId id) {
  auto& slot = boxes_[id];
  if (!slot) slot = std::make_unique<Mailbox>();
  return std::unique_ptr<InProcTransport>(
      new InProcTransport(id, this, slot.get()));
}

inline bool InProcNet::deliver(NodeId from, NodeId to, Datagram d) {
  const auto it = boxes_.find(to);
  if (it == boxes_.end()) return false;
  if (drop_hook_ && drop_hook_(from, to, d)) return true;  // sent, "lost"
  Mailbox& box = *it->second;
  {
    util::MutexLock lock(box.mu);
    box.queue.push_back(std::move(d));
  }
  box.cv.notify_one();
  return true;
}

}  // namespace ringnet::runtime
