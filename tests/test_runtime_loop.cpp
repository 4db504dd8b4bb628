// Threaded runtime over the in-process transport twin: a tiny Figure-1
// deployment must boot through the supervisor handshake, deliver the whole
// scripted workload in total order, and survive scripted token loss (the
// per-hop ARQ and, when that is exhausted, the leader's regeneration
// watchdog). NodeLoop unit coverage: one thread per node, ticks at the
// node's own deadline and under a flood, stop() draining the queue. Plus
// direct single-threaded MhRuntime unit coverage for the reordering buffer
// and gap-skip accounting.

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/groups.hpp"
#include "proto/messages.hpp"
#include "ringnet_test.hpp"
#include "runtime/inproc_transport.hpp"
#include "runtime/node.hpp"
#include "runtime/orchestrator.hpp"
#include "util/clock.hpp"
#include "util/sync.hpp"

using namespace ringnet;
using namespace ringnet::runtime;

namespace {

LoopbackSpec tiny_spec() {
  LoopbackSpec spec;
  spec.num_brs = 1;
  spec.aps_per_br = 1;
  spec.mhs_per_ap = 2;
  spec.rate_hz = 100.0;
  spec.msgs_per_source = 8;
  spec.use_udp = false;
  return spec;
}

bool is_token_frame(const Datagram& d) {
  if (d.kind != FrameKind::Proto) return false;
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  return msg && msg->type() == proto::MsgType::Token;
}

proto::DataMsg ordered_data(GlobalSeq gseq, NodeId source, LocalSeq lseq) {
  proto::DataMsg m;
  m.gid = kRuntimeGroup;
  m.source = source;
  m.lseq = lseq;
  m.ordering_node = NodeId::make(Tier::BR, 0);
  m.gseq = gseq;
  m.epoch = 1;
  m.payload_size = 32;
  return m;
}

Datagram proto_datagram(const proto::Message& msg) {
  Datagram d;
  d.src = NodeId::make(Tier::BR, 0);
  d.kind = FrameKind::Proto;
  d.payload = proto::encode(msg);
  return d;
}

proto::DataMsg chain_data(GlobalSeq gseq, GlobalSeq prev, NodeId source,
                          LocalSeq lseq) {
  proto::DataMsg m = ordered_data(gseq, source, lseq);
  m.groups.insert(GroupId{1});
  m.group_seqs[0] = lseq;
  m.prev_chain = prev;
  return m;
}

MhConfig chain_cfg(NodeId self) {
  MhConfig cfg;
  cfg.self = self;
  cfg.source_id = NodeId{2};
  cfg.ap = NodeId::make(Tier::AP, 0);
  cfg.ss = NodeId{0x00FFFFFEu};
  cfg.msgs_to_send = 0;
  cfg.groups.count = 4;
  cfg.groups.groups_per_mh = 1;
  cfg.groups.dest_groups = 1;
  return cfg;
}

/// Scriptable RuntimeNode for the NodeLoop unit tests. Records the thread
/// of every callback; the counters are atomic so the test thread can poll
/// them while the loop runs, everything else is read after stop().
struct ScriptedNode final : RuntimeNode {
  explicit ScriptedNode(util::Clock& c) : clock(c) {}

  util::Clock& clock;
  // Script (set before start).
  std::int64_t deadline_after_start_us = -1;  // one-shot deadline, or none
  std::int64_t busy_us_per_datagram = 0;      // simulated handler cost
  std::int64_t hold_first_datagram_us = 0;    // stall on the first one

  // Observations.
  std::atomic<std::uint64_t> datagrams{0};
  std::atomic<std::uint64_t> ticks{0};
  std::int64_t start_us = -1;
  std::int64_t first_tick_us = -1;
  std::int64_t deadline_us = kNoDeadline;
  std::vector<std::thread::id> threads;

  void on_start(std::int64_t now_us) override {
    threads.push_back(std::this_thread::get_id());
    start_us = now_us;
    if (deadline_after_start_us >= 0) {
      deadline_us = now_us + deadline_after_start_us;
    }
  }
  void on_datagram(const Datagram&, std::int64_t now_us) override {
    threads.push_back(std::this_thread::get_id());
    const std::int64_t stall =
        datagrams.load() == 0 ? hold_first_datagram_us : busy_us_per_datagram;
    while (clock.now_us() - now_us < stall) {
    }
    datagrams.fetch_add(1);
  }
  void on_tick(std::int64_t now_us) override {
    threads.push_back(std::this_thread::get_id());
    if (first_tick_us < 0) first_tick_us = now_us;
    deadline_us = kNoDeadline;
    ticks.fetch_add(1);
  }
  std::int64_t next_deadline_us() const override { return deadline_us; }
};

/// Token frames between BRs, stamped on the sending thread.
struct TokenLog {
  util::Mutex mu;
  std::vector<std::pair<std::int64_t, NodeId>> sends RN_GUARDED_BY(mu);
};

}  // namespace

// --- NodeLoop over InProc ---------------------------------------------------

TEST(node_loop_runs_every_callback_on_one_thread) {
  InProcNet net;
  auto rx = net.attach(NodeId{1});
  auto tx = net.attach(NodeId{2});
  util::WallClock clock;
  ScriptedNode node(clock);
  NodeLoop loop(node, *rx, clock, 1000);
  loop.start();
  for (std::uint64_t i = 0; i < 20; ++i) {
    CHECK(tx->send_control(NodeId{1}, ControlMsg{ControlOp::Ready, i}));
    clock.sleep_us(500);
  }
  loop.stop();
  CHECK_EQ(node.datagrams.load(), 20u);
  CHECK(node.ticks.load() > 0);
  CHECK(!node.threads.empty());
  const auto loop_thread = node.threads.front();
  CHECK(loop_thread != std::this_thread::get_id());
  CHECK(std::all_of(node.threads.begin(), node.threads.end(),
                    [&](std::thread::id t) { return t == loop_thread; }));
}

TEST(node_loop_ticks_at_node_deadline_before_periodic_tick) {
  InProcNet net;
  auto rx = net.attach(NodeId{1});
  util::WallClock clock;
  ScriptedNode node(clock);
  node.deadline_after_start_us = 200;
  NodeLoop loop(node, *rx, clock, 50'000);
  loop.start();
  const std::int64_t give_up = clock.now_us() + 200'000;
  while (node.ticks.load() == 0 && clock.now_us() < give_up) {
    clock.sleep_us(1000);
  }
  loop.stop();
  CHECK(node.first_tick_us >= 0);
  const std::int64_t waited = node.first_tick_us - node.start_us;
  CHECK(waited >= 200);
  CHECK(waited < 20'000);  // the periodic tick would be 50 ms out
}

TEST(node_loop_ticks_keep_firing_under_flood) {
  InProcNet net;
  auto rx = net.attach(NodeId{1});
  auto tx = net.attach(NodeId{2});
  util::WallClock clock;
  ScriptedNode node(clock);
  // Each datagram costs the loop 50us, and the flooder keeps a backlog of
  // up to 256 queued, so the mailbox is never empty while it runs.
  node.busy_us_per_datagram = 50;
  NodeLoop loop(node, *rx, clock, 1000);
  loop.start();
  std::atomic<bool> flooding{true};
  std::thread flooder([&] {
    std::uint64_t sent = 0;
    while (flooding.load()) {
      if (sent - node.datagrams.load() < 256) {
        (void)tx->send_control(NodeId{1}, ControlMsg{ControlOp::Ready, sent});
        ++sent;
      } else {
        std::this_thread::yield();
      }
    }
  });
  while (node.datagrams.load() == 0) clock.sleep_us(100);
  const std::uint64_t ticks0 = node.ticks.load();
  clock.sleep_us(100'000);
  const std::uint64_t ticks1 = node.ticks.load();
  const std::uint64_t handled = node.datagrams.load();
  flooding.store(false);
  flooder.join();
  loop.stop();
  CHECK(handled > 256);
  // 100 ticks fall due in 100 ms; a fifth of them tolerates slow hosts.
  CHECK(ticks1 - ticks0 >= 20);
}

TEST(node_loop_stop_drains_queue_within_one_tick) {
  InProcNet net;
  auto rx = net.attach(NodeId{1});
  auto tx = net.attach(NodeId{2});
  util::WallClock clock;
  constexpr std::int64_t kTickUs = 50'000;
  {
    // The first datagram stalls the loop past its tick while nine more
    // queue behind it, so the loop sees the stop flag with all nine still
    // queued; stop() must hand them to the node before it returns.
    ScriptedNode node(clock);
    node.hold_first_datagram_us = 2 * kTickUs;
    NodeLoop loop(node, *rx, clock, kTickUs);
    loop.start();
    CHECK(tx->send_control(NodeId{1}, ControlMsg{ControlOp::Ready, 0}));
    clock.sleep_us(5'000);
    for (std::uint64_t i = 1; i < 10; ++i) {
      CHECK(tx->send_control(NodeId{1}, ControlMsg{ControlOp::Ready, i}));
    }
    loop.stop();
    CHECK_EQ(node.datagrams.load(), 10u);
  }
  {
    // An idle loop waits at most one tick, so stop() returns within one.
    ScriptedNode node(clock);
    NodeLoop loop(node, *rx, clock, kTickUs);
    loop.start();
    clock.sleep_us(5'000);
    const std::int64_t t0 = clock.now_us();
    loop.stop();
    CHECK(clock.now_us() - t0 < 2 * kTickUs);
  }
}

// --- full deployment over InProc + NodeLoop --------------------------------

TEST(inproc_tiny_hierarchy_completes_in_order) {
  const auto spec = tiny_spec();
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.order_violation.has_value());
  CHECK_EQ(res.n_mh, spec.n_mhs());
  for (const auto count : res.delivered_counts) {
    CHECK_EQ(count, spec.expected_total());
  }
  CHECK_EQ(res.counters.really_lost, 0u);
  CHECK_EQ(res.frames_malformed, 0u);
  CHECK(res.counters.tokens_held > 0);
}

TEST(token_loss_recovers_via_arq) {
  auto spec = tiny_spec();
  spec.num_brs = 2;  // a real ring: token frames cross between BRs
  // Lose the first two inter-BR token transmissions; the per-hop ARQ
  // must retransmit until one lands, with no order or loss impact.
  auto dropped = std::make_shared<std::atomic<int>>(0);
  spec.drop_hook = [dropped](NodeId from, NodeId to, const Datagram& d) {
    if (from.tier() == Tier::BR && to.tier() == Tier::BR &&
        is_token_frame(d) && dropped->load() < 2) {
      ++*dropped;
      return true;
    }
    return false;
  };
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.order_violation.has_value());
  CHECK(dropped->load() >= 2);
  CHECK(res.counters.token_retx >= 2);
  CHECK_EQ(res.counters.really_lost, 0u);
  for (const auto count : res.delivered_counts) {
    CHECK_EQ(count, spec.expected_total());
  }
}

TEST(token_destroyed_recovers_via_leader_regeneration) {
  auto spec = tiny_spec();
  spec.num_brs = 2;
  // Shrink the watchdogs so exhausting the ARQ (max_retx attempts) and the
  // subsequent regeneration fit comfortably in a test budget.
  spec.opts.retx_timeout_us = 5'000;
  spec.opts.max_retx = 3;
  spec.opts.heartbeat_period_us = 10'000;
  // Swallow every inter-BR token frame until the sender has burned through
  // all ARQ attempts: the token dies on the wire, and only the leader's
  // regeneration watchdog can revive the ring.
  auto dropped = std::make_shared<std::atomic<int>>(0);
  const int kill_budget = 2 * (spec.opts.max_retx + 1);
  spec.drop_hook = [dropped, kill_budget](NodeId from, NodeId to,
                                          const Datagram& d) {
    if (from.tier() == Tier::BR && to.tier() == Tier::BR &&
        is_token_frame(d) && dropped->load() < kill_budget) {
      ++*dropped;
      return true;
    }
    return false;
  };
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.order_violation.has_value());
  CHECK(res.counters.token_regenerated >= 1);
  CHECK_EQ(res.counters.really_lost, 0u);
  for (const auto count : res.delivered_counts) {
    CHECK_EQ(count, spec.expected_total());
  }
}

TEST(br_releases_token_at_hold_deadline_not_tick) {
  // With a 50 ms tick, a BR that accepted the token must still forward it
  // after token_hold_us: NodeLoop wakes at BrRuntime::next_deadline_us().
  auto spec = tiny_spec();
  spec.num_brs = 2;
  spec.tick_us = 50'000;
  auto log = std::make_shared<TokenLog>();
  auto clock = std::make_shared<util::WallClock>();
  spec.drop_hook = [log, clock](NodeId from, NodeId to, const Datagram& d) {
    if (from.tier() == Tier::BR && to.tier() == Tier::BR &&
        is_token_frame(d)) {
      TokenLog& tl = *log;
      util::MutexLock lock(tl.mu);
      tl.sends.emplace_back(clock->now_us(), from);
    }
    return false;
  };
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.order_violation.has_value());
  // Hold = from one BR's token send to the receiving BR's next send.
  std::vector<std::int64_t> holds;
  {
    TokenLog& tl = *log;
    util::MutexLock lock(tl.mu);
    auto& sends = tl.sends;
    std::sort(sends.begin(), sends.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (std::size_t i = 1; i < sends.size(); ++i) {
      if (sends[i].second != sends[i - 1].second) {
        holds.push_back(sends[i].first - sends[i - 1].first);
      }
    }
  }
  CHECK(holds.size() > 10);
  if (holds.empty()) return;
  std::nth_element(holds.begin(), holds.begin() + holds.size() / 2,
                   holds.end());
  const std::int64_t median = holds[holds.size() / 2];
  CHECK(median >= spec.opts.token_hold_us);
  CHECK(median < 10 * spec.opts.token_hold_us);
}

// --- MhRuntime unit coverage (single-threaded, no loop) --------------------

TEST(mh_reorders_out_of_order_gseq) {
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 0);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));  // ack sink

  MhConfig cfg;
  cfg.self = mh_id;
  cfg.source_id = NodeId{0};
  cfg.ap = NodeId::make(Tier::AP, 0);
  cfg.ss = NodeId{0x00FFFFFEu};
  cfg.msgs_to_send = 0;
  MhRuntime mh(cfg, *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  mh.on_datagram(proto_datagram(proto::Message(ordered_data(1, src, 11))), 10);
  CHECK_EQ(mh.delivered_count(), 0u);  // holding for gseq 0
  mh.on_datagram(proto_datagram(proto::Message(ordered_data(0, src, 10))), 20);
  CHECK_EQ(mh.delivered_count(), 2u);  // contiguous drain
  mh.on_datagram(proto_datagram(proto::Message(ordered_data(2, src, 12))), 30);
  CHECK_EQ(mh.delivered_count(), 3u);

  const auto& log = mh.deliveries();
  CHECK_EQ(log.size(), 3u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    CHECK_EQ(log[i].gseq, i);
  }

  // Replays of anything already delivered or buffered only bump the
  // duplicate counter.
  mh.on_datagram(proto_datagram(proto::Message(ordered_data(1, src, 11))), 40);
  CHECK_EQ(mh.delivered_count(), 3u);
  CHECK_EQ(mh.counters().duplicates, 1u);
}

TEST(mh_gap_skip_counts_really_lost) {
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 1);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));

  MhConfig cfg;
  cfg.self = mh_id;
  cfg.source_id = NodeId{1};
  cfg.ap = NodeId::make(Tier::AP, 0);
  cfg.ss = NodeId{0x00FFFFFEu};
  MhRuntime mh(cfg, *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  mh.on_datagram(proto_datagram(proto::Message(ordered_data(0, src, 0))), 10);
  // gseq 1,2 never arrive; 3 is buffered beyond the gap.
  mh.on_datagram(proto_datagram(proto::Message(ordered_data(3, src, 3))), 20);
  CHECK_EQ(mh.delivered_count(), 1u);

  // The ordering BR advances the floor past the pruned range: the MH must
  // account the two missing messages as really lost (one contiguous gap)
  // and then drain the buffered gseq 3.
  proto::DeliveryAckMsg floor_advance;
  floor_advance.gid = kRuntimeGroup;
  floor_advance.member = mh_id;
  floor_advance.watermark = 3;
  mh.on_datagram(proto_datagram(proto::Message(floor_advance)), 30);

  CHECK_EQ(mh.delivered_count(), 2u);
  CHECK_EQ(mh.counters().really_lost, 2u);
  CHECK_EQ(mh.counters().gaps_skipped, 1u);
  const auto& log = mh.deliveries();
  CHECK_EQ(log.back().gseq, 3u);
}

TEST(mh_chain_merges_repaired_link_on_resend) {
  // Chain-splice regression: when the BR finds a predecessor unrecoverable
  // it splices it out and resends the successor with a rewritten (lower)
  // prev_chain. The member already holds that successor from the original
  // transmission — dropping the resend as a duplicate would wedge the
  // chain forever.
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 2);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));
  MhRuntime mh(chain_cfg(mh_id), *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  // gseq 5 chained behind coordinate 3: its predecessor (gseq 2) was lost
  // on the downlink, so the frame is held undeliverable.
  mh.on_datagram(proto_datagram(proto::Message(chain_data(5, 3, src, 1))), 10);
  CHECK_EQ(mh.delivered_count(), 0u);
  // A byte-identical duplicate is dropped and changes nothing.
  mh.on_datagram(proto_datagram(proto::Message(chain_data(5, 3, src, 1))), 20);
  CHECK_EQ(mh.delivered_count(), 0u);
  CHECK_EQ(mh.counters().duplicates, 1u);
  // The splice resend carries the repaired link: the held copy must adopt
  // the lower link and drain.
  mh.on_datagram(proto_datagram(proto::Message(chain_data(5, 0, src, 1))), 30);
  CHECK_EQ(mh.delivered_count(), 1u);
  CHECK_EQ(mh.deliveries().back().gseq, 5u);
  // The chain continues from the new tail (coordinate 6).
  mh.on_datagram(proto_datagram(proto::Message(chain_data(9, 6, src, 2))), 40);
  CHECK_EQ(mh.delivered_count(), 2u);
  // A stale resend of the settled coordinate stays a plain duplicate.
  mh.on_datagram(proto_datagram(proto::Message(chain_data(5, 3, src, 1))), 50);
  CHECK_EQ(mh.delivered_count(), 2u);
  CHECK_EQ(mh.counters().duplicates, 2u);
}

TEST(mh_chain_hold_queue_is_bounded) {
  // A member wedged behind a missing head must not accrete unbounded held
  // frames: past the cap the farthest-future frame is shed (the BR's
  // ack-driven resend replays it once the tail catches up).
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 3);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));
  MhRuntime mh(chain_cfg(mh_id), *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  // gseq 1 (coordinate 2) never arrives; 4096 successors pile up held,
  // each linked to its immediate predecessor's coordinate.
  const GlobalSeq cap = 4096;
  for (GlobalSeq g = 2; g < 2 + cap; ++g) {
    mh.on_datagram(proto_datagram(proto::Message(chain_data(g, g, src, g))),
                   10);
  }
  CHECK_EQ(mh.delivered_count(), 0u);
  CHECK_EQ(mh.counters().duplicates, 0u);
  // One past the cap: shed instead of held.
  const GlobalSeq over = 2 + cap;
  mh.on_datagram(proto_datagram(proto::Message(chain_data(over, over, src,
                                                          over))), 20);
  CHECK_EQ(mh.counters().duplicates, 1u);
  // The missing head arrives: everything held drains in chain order; only
  // the shed frame is absent (a later resend would replay it).
  mh.on_datagram(proto_datagram(proto::Message(chain_data(1, 0, src, 1))), 30);
  CHECK_EQ(mh.delivered_count(), cap + 1);
  CHECK_EQ(mh.deliveries().back().gseq, 2 + cap - 1);
}

// --- flight recorder through the live roles --------------------------------

TEST(mh_flight_recorder_wraps_under_load) {
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 4);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));

  MhConfig cfg;
  cfg.self = mh_id;
  cfg.source_id = NodeId{4};
  cfg.ap = NodeId::make(Tier::AP, 0);
  cfg.ss = NodeId{0x00FFFFFEu};
  MhRuntime mh(cfg, *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  const std::uint64_t n = obs::FlightRecorder::kDefaultCapacity + 50;
  for (std::uint64_t g = 0; g < n; ++g) {
    mh.on_datagram(proto_datagram(proto::Message(ordered_data(g, src, g))),
                   static_cast<std::int64_t>(10 * g));
  }
  CHECK_EQ(mh.delivered_count(), n);
  const auto& fr = mh.flight_recorder();
  CHECK_EQ(fr.size(), fr.capacity());  // ring is full and wrapped
  CHECK(fr.total_recorded() >= n);     // every delivery was recorded
  const auto snap = mh.flight_recorder().snapshot();
  CHECK_EQ(snap.size(), fr.capacity());
  // Newest retained event is the last delivery; the oldest deliveries were
  // overwritten.
  CHECK(snap.back().kind == obs::FrEvent::Deliver);
  CHECK_EQ(snap.back().a, n - 1);
  // Routine traffic never arms an auto-dump, but an on-demand dump (the
  // daemon's SIGUSR1 path) renders the retained window as one JSON line.
  CHECK(!mh.flight_recorder().take_dump_request());
  const std::string json = fr.dump_json("mh[4]", "sigusr1");
  CHECK(json.find("\"reason\":\"sigusr1\"") != std::string::npos);
  CHECK(json.find("\"ev\":\"deliver\"") != std::string::npos);
}

TEST(mh_chain_regression_rejected_without_dump) {
  // The receive layer rejects any chain frame whose coordinate is at or
  // below the live tail, so a regressed gseq can never reach deliver()'s
  // order-violation arm from the wire — the auto-dump stays quiet and the
  // frame is accounted as a duplicate. (The arming semantics themselves
  // are unit-covered in test_obs; deliver()'s check is defense-in-depth
  // against a future receive-path bug.)
  InProcNet net;
  auto mh_id = NodeId::make(Tier::MH, 5);
  auto tr = net.attach(mh_id);
  (void)net.attach(NodeId::make(Tier::AP, 0));
  MhRuntime mh(chain_cfg(mh_id), *tr);
  mh.on_start(0);

  const auto src = NodeId{3};
  mh.on_datagram(proto_datagram(proto::Message(chain_data(5, 0, src, 1))), 10);
  CHECK_EQ(mh.delivered_count(), 1u);
  CHECK(!mh.flight_recorder().take_dump_request());
  // gseq 3 (coordinate 4, below the tail at 6): rejected, not delivered.
  mh.on_datagram(proto_datagram(proto::Message(chain_data(3, 6, src, 2))), 20);
  CHECK_EQ(mh.delivered_count(), 1u);
  CHECK_EQ(mh.counters().duplicates, 1u);
  CHECK(!mh.flight_recorder().take_dump_request());
  const std::string json = mh.flight_recorder().dump_json("mh[5]", "manual");
  CHECK(json.find("\"ev\":\"order_violation\"") == std::string::npos);
}

TEST(br_token_loss_arms_watchdog_dump) {
  // Scripted token loss at the BR: the peer BR never acks, the forward ARQ
  // burns its budget (token_dropped arms a dump), and the leader's
  // regeneration watchdog revives the ring (token_regen arms another).
  InProcNet net;
  const auto br0 = NodeId::make(Tier::BR, 0);
  const auto br1 = NodeId::make(Tier::BR, 1);
  const auto ss = NodeId{0x00FFFFFEu};
  auto tr = net.attach(br0);
  (void)net.attach(br1);  // silent peer: every token transmission is lost
  (void)net.attach(ss);

  BrConfig cfg;
  cfg.self = br0;
  cfg.ss = ss;
  cfg.ring = {br0, br1};
  cfg.opts.token_hold_us = 200;
  cfg.opts.retx_timeout_us = 1'000;
  cfg.opts.max_retx = 2;
  cfg.opts.heartbeat_period_us = 2'000;
  cfg.opts.heartbeat_miss_limit = 4;
  BrRuntime br(cfg, *tr);
  br.on_start(0);

  const std::int64_t horizon =
      cfg.opts.token_regen_timeout_us() + 5 * cfg.opts.retx_timeout_us;
  bool drop_dump_armed = false;
  for (std::int64_t t = 100; t <= horizon; t += 100) {
    br.on_tick(t);
    if (br.counters().token_dropped >= 1 && !drop_dump_armed) {
      // ARQ exhaustion armed the auto-dump before regeneration happened.
      drop_dump_armed = br.flight_recorder().take_dump_request();
    }
  }
  CHECK(drop_dump_armed);
  const auto c = br.counters();
  CHECK(c.token_retx >= 2);
  CHECK(c.token_dropped >= 1);
  CHECK(c.token_regenerated >= 1);
  CHECK_EQ(br.epoch(), 2u);
  // Regeneration re-armed the dump; its JSON names the watchdog event.
  CHECK(br.flight_recorder().take_dump_request());
  const std::string json = br.flight_recorder().dump_json("br[0]", "auto");
  CHECK(json.find("\"ev\":\"token_dropped\"") != std::string::npos);
  CHECK(json.find("\"ev\":\"token_regen\"") != std::string::npos);
  // The unified registry reports the same vocabulary the sim uses.
  CHECK_EQ(br.metrics().counter("token.dropped"), c.token_dropped);
  CHECK_EQ(br.metrics().counter("token.regenerated"), c.token_regenerated);
}

TEST(br_regeneration_keeps_peer_group_seqs) {
  // The leader stores peer BR1's ordered gseqs 0-19, all for group 2 (seqs
  // 0-19), then loses its token forward to the silent peer. The token it
  // regenerates must resume group 2 at 20, not reissue seqs BR1 assigned.
  InProcNet net;
  const auto br0 = NodeId::make(Tier::BR, 0);
  const auto br1 = NodeId::make(Tier::BR, 1);
  const auto ss = NodeId{0x00FFFFFEu};
  auto tr = net.attach(br0);
  auto peer = net.attach(br1);  // silent: never acks a token frame
  (void)net.attach(ss);

  BrConfig cfg;
  cfg.self = br0;
  cfg.ss = ss;
  cfg.ring = {br0, br1};
  cfg.groups.count = 4;
  cfg.opts.token_hold_us = 200;
  cfg.opts.retx_timeout_us = 1'000;
  cfg.opts.max_retx = 2;
  cfg.opts.heartbeat_period_us = 2'000;
  cfg.opts.heartbeat_miss_limit = 4;
  BrRuntime br(cfg, *tr);
  br.on_start(0);
  for (GlobalSeq g = 0; g < 20; ++g) {
    proto::DataMsg m = ordered_data(g, NodeId{5}, g);
    m.ordering_node = br1;
    m.groups.insert(GroupId{2});
    m.group_seqs[0] = g;
    Datagram d = proto_datagram(proto::Message(m));
    d.src = br1;
    br.on_datagram(d, 50);
  }
  const std::int64_t horizon =
      cfg.opts.token_regen_timeout_us() + 5 * cfg.opts.retx_timeout_us;
  for (std::int64_t t = 100; t <= horizon; t += 100) br.on_tick(t);
  CHECK_EQ(br.epoch(), 2u);

  std::optional<proto::OrderingToken> regen;
  while (const auto d = peer->recv(0)) {
    const auto msg = proto::decode(d->payload.data(), d->payload.size());
    if (msg && msg->type() == proto::MsgType::Token &&
        msg->token().epoch() == 2) {
      regen = msg->token();
    }
  }
  CHECK(regen.has_value());
  CHECK_EQ(regen->next_gseq(), GlobalSeq{20});
  CHECK_EQ(regen->group_seq(GroupId{2}), std::uint64_t{20});
}

TEST(br_mq_keeps_newest_window) {
  // Peer BR1's distributions of gseq 1-40 reach BR0 with gseq 0 lost. The
  // MQ keeps the newest mq_retention gseqs whether or not the subtree has
  // acked them, so its floor moves past the hole at 0 and past everything a
  // member stalled at 0 still lacks.
  for (const bool multi : {false, true}) {
    InProcNet net;
    const auto br0 = NodeId::make(Tier::BR, 0);
    const auto br1 = NodeId::make(Tier::BR, 1);
    const auto ap = NodeId::make(Tier::AP, 0);
    const auto mh = NodeId::make(Tier::MH, 0);
    const auto ss = NodeId{0x00FFFFFEu};
    auto tr = net.attach(br0);
    auto ap_tr = net.attach(ap);
    (void)net.attach(br1);
    (void)net.attach(ss);

    BrConfig cfg;
    cfg.self = br0;
    cfg.ss = ss;
    cfg.ring = {br0, br1};
    cfg.own_aps = {ap};
    cfg.members = {mh};
    cfg.member_ap = {ap};
    cfg.opts.mq_retention = 8;
    if (multi) {
      cfg.groups.count = 4;
      cfg.groups.groups_per_mh = 1;
      cfg.groups.dest_groups = 1;
    }
    BrRuntime br(cfg, *tr);
    br.on_start(0);
    for (GlobalSeq g = 1; g <= 40; ++g) {
      proto::DataMsg m = ordered_data(g, NodeId{5}, g);
      m.ordering_node = br1;
      if (multi) {
        m.groups = core::member_groups(mh.index(), cfg.groups);
        m.group_seqs[0] = g;
      }
      Datagram d = proto_datagram(proto::Message(m));
      d.src = br1;
      br.on_datagram(d, 50);
    }
    CHECK_EQ(br.mq_floor(), GlobalSeq{33});

    std::vector<GlobalSeq> forwarded;
    while (const auto d = ap_tr->recv(0)) {
      const auto msg = proto::decode(d->payload.data(), d->payload.size());
      if (msg && msg->type() == proto::MsgType::Data) {
        forwarded.push_back(msg->data().gseq);
      }
    }
    CHECK_EQ(forwarded.size(), std::size_t{40});
    for (std::size_t i = 0; i < forwarded.size(); ++i) {
      CHECK_EQ(forwarded[i], static_cast<GlobalSeq>(i + 1));
    }
    if (multi) continue;  // chain forwarding resumed at gseq 1

    // A member stalled at 0 is pushed to the floor once: 1-32 are gone.
    for (int i = 0; i < 4; ++i) {
      br.on_datagram(proto_datagram(proto::Message(proto::DeliveryAckMsg{
                         kRuntimeGroup, mh, 0})),
                     100);
    }
    CHECK_EQ(br.counters().floor_advances, 1u);
    CHECK_EQ(br.counters().retransmits, 0u);
    std::optional<proto::DeliveryAckMsg> push;
    while (const auto d = ap_tr->recv(0)) {
      const auto msg = proto::decode(d->payload.data(), d->payload.size());
      if (msg && msg->type() == proto::MsgType::DeliveryAck) push = msg->ack();
    }
    CHECK(push.has_value());
    if (push) {
      CHECK_EQ(push->member, mh);
      CHECK_EQ(push->watermark, GlobalSeq{33});
    }
  }
}

TEST(loopback_spans_capture_all_stages) {
  auto spec = tiny_spec();
  spec.opts.record_spans = true;
  const auto res = run_loopback(scaled(spec));
  CHECK(res.completed);
  CHECK(!res.spans.empty());
  const auto expected =
      static_cast<std::uint64_t>(spec.n_mhs()) * spec.expected_total();
  CHECK_EQ(res.spans.total().count(), expected);
  for (std::size_t i = 0; i < obs::kSpanStages; ++i) {
    CHECK_EQ(res.spans.stage(static_cast<obs::SpanStage>(i)).count(),
             expected);
  }
}

TEST_MAIN()
