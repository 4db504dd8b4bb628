// MessageQueue (MQ) semantics: the contiguous acked watermark (ack_below
// stops at a hole), worst-case out-of-order gap windows, duplicate
// rejection, retention / ValidFront pruning and the prune callback, and
// cursor skipping. (Member-side delivery order is covered by
// test_delivery_chain.)

#include <vector>

#include "core/message_queue.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

namespace {

proto::DataMsg mk(GlobalSeq g) {
  proto::DataMsg m;
  m.gid = GroupId{1};
  m.source = NodeId{1};
  m.lseq = g;
  m.gseq = g;
  return m;
}

}  // namespace

TEST(in_order_delivery) {
  core::MessageQueue mq(8);
  for (GlobalSeq g = 0; g < 5; ++g) CHECK(mq.store(mk(g), sim::SimTime{0}));
  CHECK_EQ(mq.size(), std::size_t{5});
  CHECK_EQ(mq.next_expected(), GlobalSeq{0});
  mq.ack_below(5);
  CHECK_EQ(mq.next_expected(), GlobalSeq{5});
  CHECK(mq.find(4) != nullptr);  // retained behind the watermark
}

TEST(worst_case_out_of_order_window) {
  // Reverse arrival inside a 512-wide window: the watermark cannot move
  // until gseq 0 lands, then the whole window settles at once.
  core::MessageQueue mq(16);
  const GlobalSeq window = 512;
  for (GlobalSeq i = window; i-- > 1;) {
    CHECK(mq.store(mk(i), sim::SimTime{0}));
    mq.ack_below(window);
    CHECK_EQ(mq.next_expected(), GlobalSeq{0});
  }
  CHECK_EQ(mq.size(), static_cast<std::size_t>(window - 1));
  CHECK(mq.store(mk(0), sim::SimTime{0}));
  mq.ack_below(window);
  CHECK_EQ(mq.next_expected(), window);
  // Retention bounds what survives delivery.
  CHECK_EQ(mq.size(), std::size_t{16});
  CHECK_EQ(mq.valid_front(), window - 16);
}

TEST(gap_list_and_max_seen) {
  core::MessageQueue mq(8);
  mq.store(mk(0), sim::SimTime{0});
  mq.store(mk(3), sim::SimTime{0});
  mq.store(mk(5), sim::SimTime{0});
  CHECK_EQ(mq.max_seen(), GlobalSeq{5});
  // Holes inside the span stay explicit: present exactly where stored.
  for (GlobalSeq g = 0; g <= 5; ++g) {
    CHECK_EQ(mq.contains(g), g == 0 || g == 3 || g == 5);
  }
}

TEST(duplicates_rejected) {
  core::MessageQueue mq(4);
  CHECK(mq.store(mk(0), sim::SimTime{0}));
  CHECK(!mq.store(mk(0), sim::SimTime{1}));
  mq.ack_below(1);
  // Re-store of an already-delivered gseq is stale.
  CHECK(!mq.store(mk(0), sim::SimTime{2}));
}

TEST(zero_retention_prunes_immediately) {
  core::MessageQueue mq(0);
  for (GlobalSeq g = 0; g < 10; ++g) mq.store(mk(g), sim::SimTime{0});
  mq.ack_below(10);
  CHECK(mq.empty());
  CHECK_EQ(mq.valid_front(), GlobalSeq{10});
}

TEST(valid_front_ignores_front_hole) {
  // An oldest entry above next_expected means the front is merely in
  // flight, not pruned: the queue must not claim it cannot serve it.
  core::MessageQueue mq(4);
  mq.store(mk(5), sim::SimTime{0});
  CHECK_EQ(mq.valid_front(), GlobalSeq{0});
  // Once 0..5 are delivered and pruned past, the front really moves.
  for (GlobalSeq g = 0; g < 5; ++g) mq.store(mk(g), sim::SimTime{0});
  mq.ack_below(6);
  CHECK_EQ(mq.valid_front(), GlobalSeq{2});  // retention 4 behind wm 5
}

TEST(skip_to_advances_cursor) {
  core::MessageQueue mq(4);
  mq.store(mk(100), sim::SimTime{0});
  CHECK_EQ(mq.next_expected(), GlobalSeq{0});  // gap below blocks it
  mq.skip_to(100);
  CHECK_EQ(mq.next_expected(), GlobalSeq{100});
  CHECK(mq.contains(mq.next_expected()));  // the buffered entry is next
  // skip_to never rewinds.
  mq.skip_to(50);
  CHECK_EQ(mq.next_expected(), GlobalSeq{100});
  mq.ack_below(101);
  CHECK_EQ(mq.next_expected(), GlobalSeq{101});
}

TEST(stored_at_visible_until_pruned) {
  core::MessageQueue mq(0);
  mq.store(mk(0), sim::SimTime{42});
  CHECK(mq.stored_at(0).has_value());
  CHECK_EQ(mq.stored_at(0)->us, std::int64_t{42});
  mq.ack_below(1);
  CHECK(!mq.stored_at(0).has_value());
}

TEST(ack_below_stops_at_hole_until_filled) {
  core::MessageQueue mq(0);
  for (GlobalSeq g : {0u, 1u, 3u, 4u}) mq.store(mk(g), sim::SimTime{0});
  mq.ack_below(5);
  CHECK_EQ(mq.next_expected(), GlobalSeq{2});  // 2 is still in flight
  CHECK(mq.contains(3));
  // The late fill lets the watermark run on to the floor, never past it.
  CHECK(mq.store(mk(2), sim::SimTime{0}));
  mq.store(mk(5), sim::SimTime{0});
  mq.ack_below(5);
  CHECK_EQ(mq.next_expected(), GlobalSeq{5});
  CHECK(mq.contains(5));
}

TEST(on_prune_sees_pruned_messages_in_gseq_order) {
  core::MessageQueue mq(2);
  for (GlobalSeq g = 0; g < 8; ++g) mq.store(mk(g), sim::SimTime{0});
  std::vector<GlobalSeq> pruned;
  const auto note = [&](const proto::DataMsg& m) { pruned.push_back(m.gseq); };
  mq.ack_below(4, note);
  CHECK_EQ(pruned.size(), std::size_t{2});  // 0, 1; 2 and 3 retained
  mq.ack_below(7, note);
  CHECK_EQ(pruned.size(), std::size_t{5});
  for (std::size_t i = 0; i < pruned.size(); ++i) {
    CHECK_EQ(pruned[i], static_cast<GlobalSeq>(i));
  }
  // A floor that does not move prunes nothing more.
  mq.ack_below(7, note);
  CHECK_EQ(pruned.size(), std::size_t{5});
}

TEST(contiguous_queue_keeps_retention_behind_floor) {
  // The assignment archive's shape: contiguous stores acked at a rising
  // floor keep exactly the gseqs in [floor - retention, newest].
  const std::size_t keep = 16;
  core::MessageQueue mq(keep);
  GlobalSeq next = 0;
  for (GlobalSeq floor : {5u, 16u, 17u, 40u, 100u}) {
    while (next < floor + 10) mq.store(mk(next++), sim::SimTime{0});
    mq.ack_below(floor);
    const GlobalSeq cut = floor > keep ? floor - keep : 0;
    CHECK_EQ(mq.next_expected(), floor);
    CHECK_EQ(mq.valid_front(), cut);
    CHECK_EQ(mq.size(), static_cast<std::size_t>(next - cut));
    CHECK(mq.contains(cut));
    if (cut > 0) CHECK(!mq.contains(cut - 1));
  }
}

TEST_MAIN()
