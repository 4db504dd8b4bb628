// E10: google-benchmark micro suite — the per-operation costs of the data
// structures on the protocol's hot paths: MQ store/deliver, member chain
// reassembly, the token step (WQ drain + WTSNP assignment), token WTSNP
// update/lookup, wire codec, event scheduler and histogram.

#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "core/delivery_chain.hpp"
#include "core/message_queue.hpp"
#include "core/ordering.hpp"
#include "core/protocol.hpp"
#include "net/channel.hpp"
#include "proto/messages.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"
#include "stats/histogram.hpp"
#include "util/rng.hpp"

namespace {

using namespace ringnet;

proto::DataMsg make_data(GlobalSeq g) {
  proto::DataMsg m;
  m.gid = GroupId{1};
  m.source = NodeId{1};
  m.lseq = g;
  m.ordering_node = NodeId{1};
  m.gseq = g;
  m.epoch = 1;
  m.payload_size = 256;
  return m;
}

void BM_MessageQueueStoreDeliver(benchmark::State& state) {
  core::MessageQueue mq(1024);
  GlobalSeq g = 0;
  for (auto _ : state) {
    mq.store(make_data(g), sim::SimTime{0});
    mq.ack_below(++g);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(g));
}
BENCHMARK(BM_MessageQueueStoreDeliver);

void BM_MessageQueueOutOfOrderWindow(benchmark::State& state) {
  const auto window = static_cast<GlobalSeq>(state.range(0));
  core::MessageQueue mq(16);
  GlobalSeq base = 0;
  for (auto _ : state) {
    // Arrivals in reverse inside a window: worst-case gap materialization.
    for (GlobalSeq i = window; i-- > 0;) {
      mq.store(make_data(base + i), sim::SimTime{0});
    }
    base += window;
    mq.ack_below(base);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(base));
}
BENCHMARK(BM_MessageQueueOutOfOrderWindow)->Arg(8)->Arg(64)->Arg(512);

void BM_MemberInboxInOrder(benchmark::State& state) {
  // MH chain reassembly per delivery on the common path: every arrival is
  // next in chain and takes the fast path past the hold map.
  core::MemberInbox inbox;
  GlobalSeq g = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    inbox.receive(make_data(g), [&](const proto::DataMsg&) { ++delivered; });
    ++g;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(g));
}
BENCHMARK(BM_MemberInboxInOrder);

void BM_MemberInboxReorder(benchmark::State& state) {
  const auto window = static_cast<GlobalSeq>(state.range(0));
  core::MemberInbox inbox;
  GlobalSeq base = 0;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    // Arrivals in reverse inside a window: all but the last are held, then
    // the whole window drains in chain order.
    for (GlobalSeq i = window; i-- > 0;) {
      inbox.receive(make_data(base + i),
                    [&](const proto::DataMsg&) { ++delivered; });
    }
    base += window;
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(base));
}
BENCHMARK(BM_MemberInboxReorder)->Arg(8)->Arg(64)->Arg(512);

void BM_TokenAssign(benchmark::State& state) {
  // One BR token hold per iteration on an 8-BR ring: re-stage N uplink
  // messages, then accept_token (rotation bump at the leader, own-row
  // recycling) and assign_all (one WTSNP row, gseq and epoch per message).
  // In steady state the token carries the other seven holders' N rows.
  constexpr std::uint32_t kRing = 8;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<proto::DataMsg> staged(n);
  for (std::size_t i = 0; i < n; ++i) staged[i].payload_size = 256;
  core::SeqHighWater hw;
  proto::OrderingToken token = hw.token(GroupId{1}, 1, 1);
  std::deque<proto::DataMsg> wq;
  std::uint32_t holder = 0;
  LocalSeq lseq = 0;
  std::uint64_t items = 0;
  GlobalSeq last = 0;
  for (auto _ : state) {
    const NodeId br = NodeId::make(Tier::BR, holder);
    for (auto& m : staged) {
      m.source = NodeId{holder};
      m.lseq = lseq++;
    }
    wq.assign(staged.begin(), staged.end());
    core::accept_token(token, br, holder == 0);
    core::assign_all(token, br, wq, hw, [&](proto::DataMsg&& m) {
      last = m.gseq;
      ++items;
    });
    holder = (holder + 1) % kRing;
  }
  benchmark::DoNotOptimize(last);
  state.SetItemsProcessed(static_cast<std::int64_t>(items));
}
BENCHMARK(BM_TokenAssign)->Arg(1)->Arg(16)->Arg(256);

void BM_TokenUpdateAndLookup(benchmark::State& state) {
  const auto ring = static_cast<std::uint32_t>(state.range(0));
  proto::OrderingToken token(GroupId{1}, 1);
  LocalSeq lseq = 0;
  std::uint32_t holder = 0;
  for (auto _ : state) {
    token.prune_entries_of(NodeId{holder});
    token.append_range(NodeId{holder}, NodeId{holder}, lseq, lseq + 9);
    benchmark::DoNotOptimize(token.lookup(NodeId{holder}, lseq + 5));
    lseq += 10;
    holder = (holder + 1) % ring;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenUpdateAndLookup)->Arg(3)->Arg(8)->Arg(32);

void BM_TokenSerialize(benchmark::State& state) {
  proto::OrderingToken token(GroupId{1}, 1);
  for (int i = 0; i < state.range(0); ++i) {
    token.append_range(NodeId{static_cast<std::uint32_t>(i)},
                       NodeId{static_cast<std::uint32_t>(i)}, 0, 99);
  }
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    proto::WireWriter w;
    token.serialize(w);
    bytes += w.size();
    benchmark::DoNotOptimize(w);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_TokenSerialize)->Arg(4)->Arg(32);

void BM_TokenDecodeOwned(benchmark::State& state) {
  // Relay-side cost of materializing a received token: full deserialize
  // into an owned OrderingToken (vector<WtsnpEntry> allocation + copy),
  // then one WTSNP lookup.
  proto::OrderingToken token(GroupId{1}, 1);
  for (int i = 0; i < state.range(0); ++i) {
    token.append_range(NodeId{static_cast<std::uint32_t>(i)},
                       NodeId{static_cast<std::uint32_t>(i)}, 0, 99);
  }
  proto::WireWriter w;
  token.serialize(w);
  const std::vector<std::uint8_t> bytes = w.take();
  for (auto _ : state) {
    proto::WireReader r(bytes);
    auto decoded = proto::OrderingToken::deserialize(r);
    benchmark::DoNotOptimize(decoded->lookup(NodeId{0}, 50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenDecodeOwned)->Arg(4)->Arg(32);

void BM_TokenDecodeView(benchmark::State& state) {
  // Same frame, zero-copy: TokenView::parse validates the length once and
  // the lookup reads WTSNP rows in place — no per-hop entry vector.
  proto::OrderingToken token(GroupId{1}, 1);
  for (int i = 0; i < state.range(0); ++i) {
    token.append_range(NodeId{static_cast<std::uint32_t>(i)},
                       NodeId{static_cast<std::uint32_t>(i)}, 0, 99);
  }
  proto::WireWriter w;
  token.serialize(w);
  const std::vector<std::uint8_t> bytes = w.take();
  for (auto _ : state) {
    auto view = proto::TokenView::parse(bytes);
    benchmark::DoNotOptimize(view->lookup(NodeId{0}, 50));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenDecodeView)->Arg(4)->Arg(32);

void BM_TokenForwardRing(benchmark::State& state) {
  // The ordering loop with members and traffic stripped out: the token
  // circulates an 8-BR ring, so each iteration pays token_arrive (serial
  // check, rotation bump, WTSNP prune, empty WQ drain, next-hop pick) and
  // the scheduler hop — the flat alive-ring/ring-pos hot path.
  sim::Simulation sim(1);
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 8;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 1;
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  cfg.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  cfg.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  cfg.num_sources = 1;
  cfg.source.rate_hz = 0.0;  // no traffic: pure token machinery
  cfg.record_deliveries = false;
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  for (auto _ : state) {
    sim.run_for(sim::msecs(50));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.metrics().counter("token.held")));
}
BENCHMARK(BM_TokenForwardRing);

void BM_DistributeBatchDeliver(benchmark::State& state) {
  // The delivery fan-out path end to end: ordered batches distributed
  // ring-wide, forwarded down 64-member subtrees and delivered in gseq
  // order — dominated by forward_down + mh_receive + chain reassembly.
  sim::Simulation sim(1);
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 4;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 8;
  cfg.hierarchy.mhs_per_ap = 8;
  cfg.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  cfg.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  cfg.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  cfg.num_sources = 8;
  cfg.source.rate_hz = 400.0;
  cfg.options.ack_period = sim::msecs(50);
  cfg.record_deliveries = false;
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  for (auto _ : state) {
    sim.run_for(sim::msecs(10));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.metrics().counter("mh.delivered")));
}
BENCHMARK(BM_DistributeBatchDeliver);

void BM_DataMsgCodecRoundTrip(benchmark::State& state) {
  const proto::Message msg = make_data(123456789);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto encoded = proto::encode(msg);
    bytes += encoded.size();
    auto decoded = proto::decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_DataMsgCodecRoundTrip);

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler sched;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sched.schedule_at(sim::SimTime{i}, [&sink] { ++sink; });
    }
    sched.run_to_completion();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerThroughput);

void BM_MetricsIncrStringKey(benchmark::State& state) {
  // The pre-interning hot path: every incr pays a string hash + lookup.
  obs::Metrics m;
  for (auto _ : state) {
    m.incr("arq.retransmits");
  }
  benchmark::DoNotOptimize(m.counter("arq.retransmits"));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsIncrStringKey);

void BM_MetricsIncrInterned(benchmark::State& state) {
  // The protocol's hot path: handles interned once, incr is a vector index.
  obs::Metrics m;
  const auto id = m.intern("arq.retransmits");
  for (auto _ : state) {
    m.incr(id);
  }
  benchmark::DoNotOptimize(m.counter(id));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsIncrInterned);

void BM_TraceRecordCapped(benchmark::State& state) {
  // Ring-capped tracing: steady-state cost of record + keep-latest trim.
  sim::Trace trace;
  trace.enable();
  trace.set_capacity(static_cast<std::size_t>(state.range(0)));
  std::int64_t t = 0;
  for (auto _ : state) {
    trace.record(sim::TraceKind::Deliver, sim::SimTime{t++}, NodeId{1}, 7);
  }
  benchmark::DoNotOptimize(trace.events().size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecordCapped)->Arg(1024)->Arg(65536);

void BM_HistogramRecord(benchmark::State& state) {
  stats::Histogram h;
  util::Rng rng(1);
  for (auto _ : state) {
    h.record(rng.next() & 0xFFFFF);
  }
  benchmark::DoNotOptimize(h.p99());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace

BENCHMARK_MAIN();
