#pragma once
// MessageQueue (the paper's MQ): an ordered buffer of globally-sequenced
// messages keyed by gseq, and the one gseq-indexed message store of both
// engines. It absorbs out-of-order arrival (gap windows), advances a
// contiguous acked watermark, and retains a bounded tail (`retention`
// entries behind it, the ValidFront lag) so handed-off members can
// resynchronize without end-to-end retransmission. Each caller brings its
// own retention policy: the sim's BRs ack behind their subtree's
// DeliveryAcks and its assignment archive behind the ring-wide floor; the
// runtime BR keeps a window of the newest gseqs with skip_to.
//
// Storage is a base-offset deque: gseqs are assigned contiguously by the
// token, so entry g lives at slot (g - base) and every hot operation
// (store, find, ack_below, prune) is an index, not an ordered-tree
// descent. Slots inside the span that have not arrived yet are explicit
// holes; the span stays O(retention + in-flight window).

#include <algorithm>
#include <cstddef>
#include <deque>
#include <optional>

#include "proto/messages.hpp"
#include "sim/time.hpp"

namespace ringnet::core {

class MessageQueue {
 public:
  explicit MessageQueue(std::size_t retention) : retention_(retention) {}

  /// Insert a sequenced message. Returns false on duplicate (already
  /// buffered, or below the acked watermark).
  bool store(const proto::DataMsg& msg, sim::SimTime now) {
    if (msg.gseq < next_expected_) return false;  // stale: already acked
    Entry& slot = slot_for(msg.gseq);
    if (slot.present) return false;
    slot.present = true;
    slot.msg = msg;
    slot.stored_at = now;
    ++present_count_;
    max_seen_ = std::max(max_seen_, msg.gseq);
    return true;
  }

  /// Advance the acked watermark over the contiguous stored prefix below
  /// `floor`, then prune everything older than (watermark - retention),
  /// handing each pruned message to `on_prune` in gseq order.
  template <typename OnPrune>
  void ack_below(GlobalSeq floor, OnPrune&& on_prune) {
    while (next_expected_ < floor && contains(next_expected_)) {
      ++next_expected_;
    }
    prune(on_prune);
  }
  void ack_below(GlobalSeq floor) {
    ack_below(floor, [](const proto::DataMsg&) {});
  }

  const proto::DataMsg* find(GlobalSeq gseq) const {
    const Entry* e = entry_at(gseq);
    return e != nullptr && e->present ? &e->msg : nullptr;
  }

  bool contains(GlobalSeq gseq) const { return find(gseq) != nullptr; }

  /// When the entry is still materialized, the sim time it was stored.
  std::optional<sim::SimTime> stored_at(GlobalSeq gseq) const {
    const Entry* e = entry_at(gseq);
    if (e == nullptr || !e->present) return std::nullopt;
    return e->stored_at;
  }

  /// Oldest gseq this queue can still serve: the start of the retained
  /// prefix, or next_expected when nothing older is materialized. A hole
  /// at the *front* (oldest entry above next_expected because it is still
  /// in flight) does not advance the front — only pruning does.
  GlobalSeq valid_front() const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].present) {
        return std::min(next_expected_,
                        base_ + static_cast<GlobalSeq>(i));
      }
    }
    return next_expected_;
  }

  /// Force the acked watermark forward (gap skip after retention loss).
  void skip_to(GlobalSeq gseq) {
    if (gseq <= next_expected_) return;
    next_expected_ = gseq;
    prune([](const proto::DataMsg&) {});
  }

  GlobalSeq next_expected() const { return next_expected_; }
  GlobalSeq max_seen() const { return max_seen_; }
  bool empty() const { return present_count_ == 0; }
  std::size_t size() const { return present_count_; }

 private:
  struct Entry {
    proto::DataMsg msg;
    sim::SimTime stored_at;
    bool present = false;
  };

  const Entry* entry_at(GlobalSeq gseq) const {
    if (gseq < base_ || gseq - base_ >= entries_.size()) return nullptr;
    return &entries_[static_cast<std::size_t>(gseq - base_)];
  }

  /// The slot for `gseq`, growing the span (with holes) as needed.
  Entry& slot_for(GlobalSeq gseq) {
    if (entries_.empty()) {
      base_ = gseq;
      entries_.emplace_back();
      return entries_.front();
    }
    while (gseq < base_) {
      entries_.emplace_front();
      --base_;
    }
    while (gseq - base_ >= entries_.size()) entries_.emplace_back();
    return entries_[static_cast<std::size_t>(gseq - base_)];
  }

  template <typename OnPrune>
  void prune(OnPrune&& on_prune) {
    // Keep `retention_` acked entries behind the watermark.
    const GlobalSeq cut =
        next_expected_ > retention_ ? next_expected_ - retention_ : 0;
    while (!entries_.empty() && base_ < cut) {
      if (entries_.front().present) {
        on_prune(entries_.front().msg);
        --present_count_;
      }
      entries_.pop_front();
      ++base_;
    }
    // Unfillable holes at the front (store() rejects anything below the
    // acked watermark) only waste span: drop them.
    while (!entries_.empty() && !entries_.front().present &&
           base_ < next_expected_) {
      entries_.pop_front();
      ++base_;
    }
  }

  std::deque<Entry> entries_;  // slot i holds gseq base_ + i
  GlobalSeq base_ = 0;
  std::size_t present_count_ = 0;
  GlobalSeq next_expected_ = 0;
  GlobalSeq max_seen_ = 0;  // highest gseq ever stored (0 before any)
  std::size_t retention_;
};

}  // namespace ringnet::core
