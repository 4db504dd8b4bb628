#pragma once
// The token step shared by the simulator (core/protocol) and the socket
// runtime (runtime/node): the paper's §3 Message-Ordering and the seed of
// Token-Regeneration. It is the only code that mutates the token's sequence
// state (lint rule RN009); custody, duplicate-token rules, ARQ, timers and
// the MQ stay with each engine.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "core/types.hpp"
#include "proto/messages.hpp"

namespace ringnet::core {

/// The next gseq and per-group next seqs a node has witnessed: the state a
/// regenerated token is seeded from. The marks live in token form (no WTSNP
/// rows), so they share the token's sorted per-group counter table.
class SeqHighWater {
 public:
  /// Raise the marks past `msg`'s gseq and per-group seqs. Monotone: a late
  /// or duplicate message never lowers a mark.
  void witness(const proto::DataMsg& msg) {
    if (msg.gseq >= marks_.next_gseq()) marks_.set_next_gseq(msg.gseq + 1);
    const std::size_t n = std::min(msg.groups.size(), proto::kMaxDataGroups);
    for (std::size_t i = 0; i < n; ++i) {
      if (msg.group_seqs[i] >= marks_.group_seq(msg.groups[i])) {
        marks_.set_group_seq(msg.groups[i], msg.group_seqs[i] + 1);
      }
    }
  }

  /// One past the highest gseq witnessed; 0 until something has been.
  GlobalSeq next_gseq() const { return marks_.next_gseq(); }

  /// A fresh token whose counters resume from the marks. Only witnessed
  /// groups get a counter, so a single-group token keeps the legacy wire
  /// layout (no counter section).
  proto::OrderingToken token(GroupId gid, std::uint64_t epoch,
                             std::uint64_t serial) const {
    proto::OrderingToken t(gid, epoch);
    t.set_serial(serial);
    t.set_next_gseq(marks_.next_gseq());
    for (const auto& [g, next] : marks_.group_counters()) {
      t.set_group_seq(g, next);
    }
    return t;
  }

 private:
  proto::OrderingToken marks_;
};

/// Token arrival at `self`: the ring leader counts a completed rotation,
/// and `self`'s WTSNP rows, which have now been around the whole ring and
/// seen by every member, are recycled.
inline void accept_token(proto::OrderingToken& token, NodeId self,
                         bool leader) {
  if (leader) token.bump_rotation();
  token.prune_entries_of(self);
}

/// Message-Ordering: drain `wq` in FIFO order against the token held by
/// `self`. Each message gets one WTSNP row, the token's epoch and its
/// per-group seqs; `hw` witnesses it and `sink(proto::DataMsg&&)` takes it.
template <typename Sink>
void assign_all(proto::OrderingToken& token, NodeId self,
                std::deque<proto::DataMsg>& wq, SeqHighWater& hw,
                Sink&& sink) {
  while (!wq.empty()) {
    proto::DataMsg m = std::move(wq.front());
    wq.pop_front();
    m.gseq = token.append_range(self, m.source, m.lseq, m.lseq);
    m.ordering_node = self;
    m.epoch = token.epoch();
    const std::size_t n = std::min(m.groups.size(), proto::kMaxDataGroups);
    for (std::size_t i = 0; i < n; ++i) {
      m.group_seqs[i] = token.bump_group_seq(m.groups[i]);
    }
    hw.witness(m);
    sink(std::move(m));
  }
}

}  // namespace ringnet::core
