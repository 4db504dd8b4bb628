#pragma once
// Per-member delivery chains, shared by the simulator (core/protocol) and
// the UDP runtime (runtime/node). A downlink frame sits at coordinate
// gseq + 1 and links to the coordinate the member must reach first: the
// BR-stamped prev_chain for a group-set frame, its own gseq for a
// single-group frame (contiguous delivery is the chain rule with
// prev_chain = gseq). MemberInbox is the member side, ChainLog the serving
// BR's record of one member's chain; engines supply I/O as callbacks.

#include <cstddef>
#include <deque>
#include <iterator>
#include <map>

#include "proto/messages.hpp"

namespace ringnet::core {

class MemberInbox {
 public:
  /// Hold bound: a member wedged behind a lost frame must not accrete every
  /// later forward. Shed frames come back via ack-driven resends.
  static constexpr std::size_t kHoldCap = 4096;

  /// Coordinate of the last delivered frame: the ack watermark.
  GlobalSeq tail() const { return tail_; }
  std::size_t held() const { return held_.size(); }

  /// Calls `deliver` for `msg` and every held frame it unblocks, in chain
  /// order. False on a duplicate, or when the hold overflowed and shed.
  template <typename Deliver>
  bool receive(const proto::DataMsg& msg, Deliver&& deliver) {
    const GlobalSeq coord = msg.gseq + 1;
    if (coord <= tail_) return false;
    if (link_of(msg) <= tail_ &&
        (held_.empty() || coord < held_.begin()->first)) {
      tail_ = coord;  // in chain and ahead of everything held
      deliver(msg);
      drain(deliver);
      return true;
    }
    const auto [held, inserted] = held_.try_emplace(coord, msg);
    if (!inserted) {
      // A resend after the BR spliced a lost predecessor out carries a
      // repaired (lower) link; the stale held link would wait forever.
      if (link_of(msg) >= link_of(held->second)) return false;
      held->second.prev_chain = msg.prev_chain;
    }
    drain(deliver);
    if (held_.size() <= kHoldCap) return true;
    held_.erase(std::prev(held_.end()));  // shed the farthest-future frame
    return false;
  }

  /// Single-group floor push: the BR retains nothing below `floor`.
  /// Delivers the held frames below it in order, moves the tail there and
  /// drains; returns how many gseqs of the skipped range were missing.
  template <typename Deliver>
  GlobalSeq skip_to(GlobalSeq floor, Deliver&& deliver) {
    if (floor <= tail_) return 0;
    GlobalSeq missing = floor - tail_;
    for (; !held_.empty() && held_.begin()->first <= floor; --missing) {
      deliver_front(deliver);
    }
    tail_ = floor;
    drain(deliver);
    return missing;
  }

  /// Chain restart on (re)attach: holds against the old chain never link.
  void restart() { held_.clear(); }

 private:
  static GlobalSeq link_of(const proto::DataMsg& m) {
    return m.groups.empty() ? m.gseq : m.prev_chain;
  }

  template <typename Deliver>
  void deliver_front(Deliver& deliver) {
    const auto it = held_.begin();
    tail_ = it->first;
    deliver(it->second);
    held_.erase(it);
  }

  template <typename Deliver>
  void drain(Deliver& deliver) {
    while (!held_.empty() && link_of(held_.begin()->second) <= tail_) {
      deliver_front(deliver);
    }
  }

  GlobalSeq tail_ = 0;
  // lint: map-ok — drained smallest-coordinate-first (only begin() can
  // extend the tail) and shed from the far end; bounded by kHoldCap.
  std::map<GlobalSeq, proto::DataMsg> held_;
};

/// The unacked forwards to one member, oldest first, each with the link it
/// was stamped with.
class ChainLog {
 public:
  enum class Verdict { Send, Wait, Stop, Lost };

  bool empty() const { return log_.empty(); }
  GlobalSeq head() const { return log_.front().gseq; }

  /// Chain a forward of `gseq`; returns the link to stamp on it. Past
  /// `cap` entries the oldest drops (ack() relinks over it), so a member
  /// that never acks does not grow state with the run.
  GlobalSeq stamp(GlobalSeq gseq, std::size_t cap) {
    const GlobalSeq link = tail_;
    tail_ = gseq + 1;
    log_.push_back(Entry{gseq, link});
    if (log_.size() > cap) log_.pop_front();
    return link;
  }

  /// Drop what the member settled (chain tail `tail`). True when the
  /// surviving head linked past a predecessor the member can no longer get
  /// and was relinked to `tail`.
  bool ack(GlobalSeq tail) {
    while (!log_.empty() && log_.front().gseq + 1 <= tail) log_.pop_front();
    if (log_.empty() || log_.front().link <= tail) return false;
    log_.front().link = tail;
    return true;
  }

  /// Walk oldest first: `classify(gseq)` says Send (`send(gseq, link)`,
  /// at most `limit` times), Wait (skip it), Stop (end the walk) or Lost.
  /// A Lost entry is spliced out: its successor inherits its link or, if
  /// it was the newest, the tail rolls back to it. Returns the splices.
  template <typename Classify, typename Send>
  std::size_t resend(std::size_t limit, Classify&& classify, Send&& send) {
    std::size_t sent = 0;
    std::size_t spliced = 0;
    for (auto it = log_.begin(); it != log_.end() && sent < limit;) {
      const Verdict v = classify(it->gseq);
      if (v == Verdict::Stop) break;
      if (v == Verdict::Lost) {
        const Entry dead = *it;
        it = log_.erase(it);
        if (it != log_.end()) {
          it->link = dead.link;
        } else if (tail_ == dead.gseq + 1) {
          tail_ = dead.link;
        }
        ++spliced;
        continue;
      }
      if (v == Verdict::Send) {
        send(it->gseq, it->link);
        ++sent;
      }
      ++it;
    }
    return spliced;
  }

  /// Fresh chain at the member's tail (attach at a BR new to it).
  void restart(GlobalSeq tail) {
    tail_ = tail;
    log_.clear();
  }

 private:
  struct Entry {
    GlobalSeq gseq;
    GlobalSeq link;
  };
  std::deque<Entry> log_;
  GlobalSeq tail_ = 0;
};

}  // namespace ringnet::core
