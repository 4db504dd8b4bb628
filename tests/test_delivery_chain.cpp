// The shared delivery chain (core/delivery_chain.hpp): MemberInbox's one
// chain rule in single-group and group-set form, floor skips, link
// repair, the hold cap and restart; ChainLog's stamping, ack pruning,
// head splice, resend walk splices and cap.

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "core/delivery_chain.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;
using core::ChainLog;
using core::MemberInbox;

namespace {

/// Single-group frame: links to its own gseq.
proto::DataMsg plain(GlobalSeq g) {
  proto::DataMsg m;
  m.gid = GroupId{1};
  m.source = NodeId{1};
  m.lseq = g;
  m.ordering_node = NodeId{1};
  m.gseq = g;
  return m;
}

/// Group-set frame at gseq `g` linked to coordinate `link`.
proto::DataMsg chained(GlobalSeq g, GlobalSeq link) {
  proto::DataMsg m = plain(g);
  m.groups.insert(GroupId{1});
  m.prev_chain = link;
  return m;
}

/// Records delivered gseqs in order.
struct Sink {
  std::vector<GlobalSeq> got;
  auto fn() {
    return [this](const proto::DataMsg& m) { got.push_back(m.gseq); };
  }
};

constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();

}  // namespace

// --- MemberInbox -----------------------------------------------------------

TEST(inbox_single_group_reorders_and_drops_duplicates) {
  MemberInbox in;
  Sink s;
  CHECK(in.receive(plain(2), s.fn()));  // held: gseq 0 and 1 missing
  CHECK(in.receive(plain(1), s.fn()));
  CHECK(s.got.empty());
  CHECK_EQ(in.held(), std::size_t{2});
  CHECK(!in.receive(plain(2), s.fn()));  // duplicate of a held frame
  CHECK(in.receive(plain(0), s.fn()));   // opens the whole run
  CHECK_EQ(s.got, (std::vector<GlobalSeq>{0, 1, 2}));
  CHECK_EQ(in.tail(), GlobalSeq{3});
  CHECK_EQ(in.held(), std::size_t{0});
  CHECK(!in.receive(plain(1), s.fn()));  // duplicate of a delivered frame
  CHECK_EQ(s.got.size(), std::size_t{3});
}

TEST(inbox_skip_to_delivers_held_frames_in_the_gap) {
  MemberInbox in;
  Sink s;
  in.receive(plain(0), s.fn());
  // 1, 2, 4 never arrive; 3 and 6 are held, 5 too.
  in.receive(plain(3), s.fn());
  in.receive(plain(5), s.fn());
  in.receive(plain(6), s.fn());
  CHECK_EQ(s.got, (std::vector<GlobalSeq>{0}));
  // The BR retains nothing below gseq 5: frames 3 (held, in the gap) still
  // deliver; only gseqs 1, 2 and 4 are lost. Then 5 and 6 link up.
  const GlobalSeq lost = in.skip_to(5, s.fn());
  CHECK_EQ(lost, GlobalSeq{3});
  CHECK_EQ(s.got, (std::vector<GlobalSeq>{0, 3, 5, 6}));
  CHECK_EQ(in.tail(), GlobalSeq{7});
  // A floor at or below the tail is a no-op.
  CHECK_EQ(in.skip_to(4, s.fn()), GlobalSeq{0});
  CHECK_EQ(in.tail(), GlobalSeq{7});
  // Stragglers from the skipped range are duplicates.
  CHECK(!in.receive(plain(2), s.fn()));
}

TEST(inbox_chain_skips_non_destination_holes) {
  // Group-set frames: gseq holes are messages for other groups, bridged by
  // the links the BR stamped.
  MemberInbox in;
  Sink s;
  CHECK(in.receive(chained(9, 4), s.fn()));  // waits for coordinate 4
  CHECK(in.receive(chained(3, 0), s.fn()));  // chain head
  CHECK_EQ(s.got, (std::vector<GlobalSeq>{3, 9}));
  CHECK_EQ(in.tail(), GlobalSeq{10});
}

TEST(inbox_merges_repaired_link_on_resend) {
  // The chain-splice regression: the BR spliced a lost predecessor out and
  // resends the held successor with a lower link. It must adopt the lower
  // link and drain, not be dropped as a duplicate.
  MemberInbox in;
  Sink s;
  CHECK(in.receive(chained(5, 3), s.fn()));
  CHECK(!in.receive(chained(5, 3), s.fn()));  // byte-identical duplicate
  CHECK(s.got.empty());
  CHECK(in.receive(chained(5, 0), s.fn()));  // repaired link
  CHECK_EQ(s.got, (std::vector<GlobalSeq>{5}));
  CHECK_EQ(in.tail(), GlobalSeq{6});
  // A stale resend with the old link after delivery stays a duplicate.
  CHECK(!in.receive(chained(5, 3), s.fn()));
  CHECK_EQ(s.got.size(), std::size_t{1});
}

TEST(inbox_hold_cap_sheds_farthest_future_frame) {
  MemberInbox in;
  Sink s;
  const GlobalSeq cap = MemberInbox::kHoldCap;
  for (GlobalSeq g = 2; g < 2 + cap; ++g) {
    CHECK(in.receive(chained(g, g), s.fn()));
  }
  CHECK_EQ(in.held(), static_cast<std::size_t>(cap));
  // One nearer frame past the cap: it is kept, the farthest one is shed.
  CHECK(!in.receive(chained(1, 1), s.fn()));
  CHECK_EQ(in.held(), static_cast<std::size_t>(cap));
  CHECK(in.receive(chained(0, 0), s.fn()));
  CHECK_EQ(s.got.size(), static_cast<std::size_t>(cap + 1));
  CHECK_EQ(s.got.back(), 2 + cap - 2);  // the shed frame is absent
  CHECK_EQ(in.held(), std::size_t{0});
}

TEST(inbox_restart_drops_old_chain_holds) {
  MemberInbox in;
  Sink s;
  in.receive(chained(0, 0), s.fn());
  in.receive(chained(7, 5), s.fn());  // held behind a lost coordinate 5
  CHECK_EQ(in.held(), std::size_t{1});
  in.restart();
  CHECK_EQ(in.held(), std::size_t{0});
  CHECK_EQ(in.tail(), GlobalSeq{1});  // the delivered tail survives
  // The new BR chains from the tail.
  CHECK(in.receive(chained(7, 1), s.fn()));
  CHECK_EQ(s.got, (std::vector<GlobalSeq>{0, 7}));
}

TEST(inbox_fast_path_interleaves_with_held_frames) {
  MemberInbox in;
  Sink s;
  in.receive(plain(0), s.fn());  // fast path: nothing held
  in.receive(plain(3), s.fn());  // held
  in.receive(plain(1), s.fn());  // fast path ahead of the held 3
  CHECK_EQ(s.got, (std::vector<GlobalSeq>{0, 1}));
  CHECK_EQ(in.held(), std::size_t{1});
  in.receive(plain(2), s.fn());  // fast path, then drains the held 3
  CHECK_EQ(s.got, (std::vector<GlobalSeq>{0, 1, 2, 3}));
  CHECK_EQ(in.held(), std::size_t{0});
  // A satisfied link behind a blocked held frame waits its turn: chain
  // order is smallest coordinate first.
  in.receive(chained(9, 8), s.fn());  // held, link 8 not reached
  CHECK(in.receive(chained(12, 4), s.fn()));
  CHECK_EQ(s.got.size(), std::size_t{4});
  in.receive(chained(7, 4), s.fn());  // fast path: 7 < 9, link 4 met
  CHECK_EQ(s.got, (std::vector<GlobalSeq>{0, 1, 2, 3, 7, 9, 12}));
}

// --- ChainLog --------------------------------------------------------------

namespace {

/// Runs a resend walk with a fixed verdict per gseq; returns the sends.
std::vector<std::pair<GlobalSeq, GlobalSeq>> walk(
    ChainLog& log, std::size_t limit,
    const std::vector<std::pair<GlobalSeq, ChainLog::Verdict>>& verdicts,
    std::size_t* spliced = nullptr) {
  std::vector<std::pair<GlobalSeq, GlobalSeq>> sent;
  const std::size_t n = log.resend(
      limit,
      [&](GlobalSeq g) {
        for (const auto& [vg, v] : verdicts) {
          if (vg == g) return v;
        }
        return ChainLog::Verdict::Send;
      },
      [&](GlobalSeq g, GlobalSeq link) { sent.emplace_back(g, link); });
  if (spliced != nullptr) *spliced = n;
  return sent;
}

}  // namespace

TEST(chainlog_stamps_links_in_forward_order) {
  ChainLog log;
  CHECK(log.empty());
  CHECK_EQ(log.stamp(3, kNoCap), GlobalSeq{0});  // chain head
  CHECK_EQ(log.stamp(7, kNoCap), GlobalSeq{4});
  CHECK_EQ(log.stamp(8, kNoCap), GlobalSeq{8});
  CHECK_EQ(log.head(), GlobalSeq{3});
  const auto sent = walk(log, 16, {});
  CHECK_EQ(sent, (std::vector<std::pair<GlobalSeq, GlobalSeq>>{
                     {3, 0}, {7, 4}, {8, 8}}));
  CHECK_EQ(log.stamp(20, kNoCap), GlobalSeq{9});
}

TEST(chainlog_ack_prunes_and_splices_head) {
  ChainLog log;
  log.stamp(3, kNoCap);
  log.stamp(7, kNoCap);
  log.stamp(8, kNoCap);
  // The member settled through coordinate 4 (gseq 3): prune it; the head
  // (7, link 4) is consistent, so no rewrite.
  CHECK(!log.ack(4));
  CHECK_EQ(log.head(), GlobalSeq{7});
  // Ack past everything empties the log.
  ChainLog all;
  all.stamp(1, kNoCap);
  CHECK(!all.ack(2));
  CHECK(all.empty());
  // A head whose predecessor fell out of the log (the cap dropped it) is
  // relinked to the member's tail.
  ChainLog capped;
  capped.stamp(1, 2);
  capped.stamp(2, 2);
  capped.stamp(5, 2);  // drops (1, link 0); head is now (2, link 2)
  CHECK_EQ(capped.head(), GlobalSeq{2});
  CHECK(capped.ack(1));  // member is at coordinate 1, below link 2
  const auto sent = walk(capped, 16, {});
  CHECK_EQ(sent, (std::vector<std::pair<GlobalSeq, GlobalSeq>>{
                     {2, 1}, {5, 3}}));
}

TEST(chainlog_resend_splice_passes_link_to_successor) {
  ChainLog log;
  log.stamp(2, kNoCap);  // link 0
  log.stamp(4, kNoCap);  // link 3
  log.stamp(6, kNoCap);  // link 5
  std::size_t spliced = 0;
  const auto sent =
      walk(log, 16, {{4, ChainLog::Verdict::Lost}}, &spliced);
  CHECK_EQ(spliced, std::size_t{1});
  // 6 inherits 4's link (3): the member delivers 2 then 6.
  CHECK_EQ(sent, (std::vector<std::pair<GlobalSeq, GlobalSeq>>{
                     {2, 0}, {6, 3}}));
  CHECK_EQ(walk(log, 16, {}).size(), std::size_t{2});  // the splice stuck
  CHECK_EQ(log.stamp(8, kNoCap), GlobalSeq{7});  // newest forward untouched
}

TEST(chainlog_splicing_newest_entry_rolls_tail_back) {
  ChainLog log;
  log.stamp(2, kNoCap);  // link 0
  log.stamp(4, kNoCap);  // link 3
  std::size_t spliced = 0;
  walk(log, 16, {{4, ChainLog::Verdict::Lost}}, &spliced);
  CHECK_EQ(spliced, std::size_t{1});
  // The next forward links behind gseq 2, not the spliced 4.
  CHECK_EQ(log.stamp(9, kNoCap), GlobalSeq{3});
}

TEST(chainlog_stop_verdict_halts_walk) {
  ChainLog log;
  log.stamp(1, kNoCap);
  log.stamp(2, kNoCap);
  log.stamp(3, kNoCap);
  log.stamp(4, kNoCap);
  std::size_t spliced = 9;
  const auto sent = walk(log, 16,
                         {{2, ChainLog::Verdict::Wait},
                          {3, ChainLog::Verdict::Stop},
                          {4, ChainLog::Verdict::Lost}},
                         &spliced);
  // 1 sent, 2 skipped, 3 stops the walk before 4 is ever classified.
  CHECK_EQ(sent, (std::vector<std::pair<GlobalSeq, GlobalSeq>>{{1, 0}}));
  CHECK_EQ(spliced, std::size_t{0});
  CHECK_EQ(walk(log, 16, {}).size(), std::size_t{4});  // nothing removed
  // The send limit bounds a walk too.
  CHECK_EQ(walk(log, 2, {}).size(), std::size_t{2});
}

TEST(chainlog_cap_bounds_unacked_forwards) {
  ChainLog log;
  for (GlobalSeq g = 0; g < 10; ++g) log.stamp(g, 4);
  CHECK_EQ(log.head(), GlobalSeq{6});
  CHECK_EQ(walk(log, 16, {}).size(), std::size_t{4});
  // restart() starts a fresh chain at a member's tail.
  log.restart(3);
  CHECK(log.empty());
  CHECK_EQ(log.stamp(5, 4), GlobalSeq{3});
}

TEST_MAIN()
