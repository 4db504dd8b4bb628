// The shared token step (core/ordering.hpp): FIFO WQ assignment with
// contiguous gseqs, one WTSNP row per message, the leader-only rotation
// bump and own-row recycling, per-group seq draws, monotone high-water
// witnessing, and the regeneration seed.

#include <cstdint>
#include <deque>
#include <vector>

#include "core/ordering.hpp"
#include "proto/messages.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

const NodeId kBr0 = NodeId::make(Tier::BR, 0);
const NodeId kBr1 = NodeId::make(Tier::BR, 1);

proto::DataMsg mk(std::uint32_t source, LocalSeq lseq) {
  proto::DataMsg m;
  m.source = NodeId{source};
  m.lseq = lseq;
  return m;
}

proto::DataMsg grouped(std::uint32_t source, LocalSeq lseq,
                       std::vector<std::uint32_t> gids) {
  proto::DataMsg m = mk(source, lseq);
  for (std::uint32_t g : gids) m.groups.insert(GroupId{g});
  return m;
}

/// A witnessed message at `gseq` (per-group seqs parallel to its groups).
proto::DataMsg seen(GlobalSeq gseq, std::vector<std::uint32_t> gids = {},
                    std::vector<std::uint64_t> seqs = {}) {
  proto::DataMsg m = grouped(1, 0, std::move(gids));
  m.gseq = gseq;
  for (std::size_t i = 0; i < seqs.size(); ++i) m.group_seqs[i] = seqs[i];
  return m;
}

std::vector<proto::DataMsg> drain(proto::OrderingToken& token, NodeId self,
                                  std::deque<proto::DataMsg>& wq,
                                  core::SeqHighWater& hw) {
  std::vector<proto::DataMsg> out;
  core::assign_all(token, self, wq, hw,
                   [&](proto::DataMsg&& m) { out.push_back(std::move(m)); });
  return out;
}

}  // namespace

TEST(fifo_assignment_continues_from_next_gseq) {
  core::SeqHighWater hw;
  hw.witness(seen(99));
  auto token = hw.token(GroupId{1}, 3, 1);
  std::deque<proto::DataMsg> wq{mk(1, 0), mk(2, 0), mk(1, 1)};
  const auto out = drain(token, kBr0, wq, hw);
  CHECK(wq.empty());
  CHECK_EQ(out.size(), std::size_t{3});
  // FIFO: arrival order defines gseq order, contiguous from next_gseq.
  CHECK_EQ(out[0].gseq, GlobalSeq{100});
  CHECK_EQ(out[0].source.v, std::uint32_t{1});
  CHECK_EQ(out[1].gseq, GlobalSeq{101});
  CHECK_EQ(out[1].source.v, std::uint32_t{2});
  CHECK_EQ(out[2].gseq, GlobalSeq{102});
  CHECK_EQ(out[2].lseq, LocalSeq{1});
  // Each message is stamped with the holder and the token's epoch.
  for (const auto& m : out) {
    CHECK(m.ordering_node == kBr0);
    CHECK_EQ(m.epoch, std::uint64_t{3});
  }
  CHECK_EQ(token.next_gseq(), GlobalSeq{103});
  CHECK_EQ(hw.next_gseq(), GlobalSeq{103});
}

TEST(one_wtsnp_row_per_message) {
  core::SeqHighWater hw;
  auto token = hw.token(GroupId{1}, 1, 1);
  std::deque<proto::DataMsg> wq{mk(7, 4), mk(7, 5), mk(8, 0)};
  const auto out = drain(token, kBr1, wq, hw);
  const auto& rows = token.entries();
  CHECK_EQ(rows.size(), out.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    CHECK(rows[i].ordering_node == kBr1);
    CHECK(rows[i].source == out[i].source);
    CHECK_EQ(rows[i].first, out[i].lseq);
    CHECK_EQ(rows[i].last, out[i].lseq);
    CHECK_EQ(rows[i].gseq_first, out[i].gseq);
  }
  CHECK_EQ(*token.lookup(NodeId{7}, 5), GlobalSeq{1});
}

TEST(rotation_bumps_only_at_leader_and_own_rows_recycle) {
  core::SeqHighWater hw;
  auto token = hw.token(GroupId{1}, 1, 1);
  std::deque<proto::DataMsg> wq0{mk(1, 0), mk(1, 1)};
  drain(token, kBr0, wq0, hw);
  std::deque<proto::DataMsg> wq1{mk(2, 0)};
  drain(token, kBr1, wq1, hw);
  CHECK_EQ(token.entries().size(), std::size_t{3});

  // A non-leader visit: no rotation, only its own row goes.
  core::accept_token(token, kBr1, /*leader=*/false);
  CHECK_EQ(token.rotation(), std::uint64_t{0});
  CHECK_EQ(token.entries().size(), std::size_t{2});
  for (const auto& e : token.entries()) CHECK(e.ordering_node == kBr0);

  // The leader's visit completes a rotation and recycles its rows.
  core::accept_token(token, kBr0, /*leader=*/true);
  CHECK_EQ(token.rotation(), std::uint64_t{1});
  CHECK(token.entries().empty());
  CHECK_EQ(token.next_gseq(), GlobalSeq{3});  // recycling keeps the counter
}

TEST(per_group_seqs_drawn_and_witness_never_lowers) {
  core::SeqHighWater hw;
  auto token = hw.token(GroupId{1}, 1, 1);
  std::deque<proto::DataMsg> wq{grouped(1, 0, {1, 3}), grouped(1, 1, {3}),
                                grouped(2, 0, {2})};
  const auto out = drain(token, kBr0, wq, hw);
  CHECK_EQ(out[0].group_seqs[0], std::uint64_t{0});  // group 1
  CHECK_EQ(out[0].group_seqs[1], std::uint64_t{0});  // group 3
  CHECK_EQ(out[1].group_seqs[0], std::uint64_t{1});  // group 3
  CHECK_EQ(out[2].group_seqs[0], std::uint64_t{0});  // group 2
  CHECK_EQ(token.group_seq(GroupId{3}), std::uint64_t{2});

  // A late copy of an older message leaves every mark where it was.
  hw.witness(seen(0, {3}, {0}));
  const auto regen = hw.token(GroupId{1}, 2, 2);
  CHECK_EQ(regen.next_gseq(), GlobalSeq{3});
  CHECK_EQ(regen.group_seq(GroupId{1}), std::uint64_t{1});
  CHECK_EQ(regen.group_seq(GroupId{2}), std::uint64_t{1});
  CHECK_EQ(regen.group_seq(GroupId{3}), std::uint64_t{2});
}

TEST(regenerated_token_resumes_counters) {
  // Marks from messages this node only witnessed (a peer assigned them).
  core::SeqHighWater hw;
  CHECK_EQ(hw.next_gseq(), GlobalSeq{0});
  hw.witness(seen(19, {2}, {19}));
  hw.witness(seen(7, {4}, {3}));
  const auto t = hw.token(GroupId{1}, 5, 9);
  CHECK_EQ(t.epoch(), std::uint64_t{5});
  CHECK_EQ(t.serial(), std::uint64_t{9});
  CHECK_EQ(t.rotation(), std::uint64_t{0});
  CHECK(t.entries().empty());
  CHECK_EQ(t.next_gseq(), GlobalSeq{20});
  CHECK_EQ(t.group_counters().size(), std::size_t{2});
  CHECK_EQ(t.group_seq(GroupId{2}), std::uint64_t{20});
  CHECK_EQ(t.group_seq(GroupId{4}), std::uint64_t{4});
  CHECK_EQ(proto::wire_size(proto::Message(t)),
           proto::encode(proto::Message(t)).size());

  // Single-group traffic: no counter section, the legacy wire layout.
  core::SeqHighWater single;
  single.witness(seen(41));
  const auto s = single.token(GroupId{1}, 2, 3);
  CHECK_EQ(s.next_gseq(), GlobalSeq{42});
  CHECK(s.group_counters().empty());
  CHECK_EQ(proto::encode(proto::Message(s)).size(),
           proto::token_wire_size(0, 0));
}

TEST(empty_wq_leaves_token_unchanged) {
  core::SeqHighWater hw;
  hw.witness(seen(4, {1}, {4}));
  auto token = hw.token(GroupId{1}, 1, 1);
  std::deque<proto::DataMsg> wq;
  bool called = false;
  core::assign_all(token, kBr0, wq, hw,
                   [&](proto::DataMsg&&) { called = true; });
  CHECK(!called);
  CHECK_EQ(token.next_gseq(), GlobalSeq{5});
  CHECK(token.entries().empty());
  CHECK_EQ(token.group_seq(GroupId{1}), std::uint64_t{5});
  CHECK_EQ(hw.next_gseq(), GlobalSeq{5});
}

TEST_MAIN()
