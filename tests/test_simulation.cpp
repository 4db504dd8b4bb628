// Simulation container: trace filtering, metrics counters / high-watermark
// gauges, and whole-run determinism — the same (seed, config) must replay
// an identical protocol trace, which is what makes every bench reproducible.

#include <string>

#include "baseline/harness.hpp"
#include "core/protocol.hpp"
#include "ringnet_test.hpp"
#include "sim/simulation.hpp"

using namespace ringnet;

TEST(metrics_counters_and_gauges) {
  sim::Simulation sim(1);
  sim.metrics().incr("a");
  sim.metrics().incr("a", 4);
  CHECK_EQ(sim.metrics().counter("a"), std::uint64_t{5});
  CHECK_EQ(sim.metrics().counter("missing"), std::uint64_t{0});
  sim.metrics().gauge_max("g", 3.0);
  sim.metrics().gauge_max("g", 7.0);
  sim.metrics().gauge_max("g", 5.0);
  CHECK_NEAR(sim.metrics().gauge("g"), 7.0, 1e-9);
}

TEST(trace_filter) {
  sim::Simulation sim(1);
  sim.trace().enable();
  sim.trace().record(sim::TraceKind::TokenPass, sim::SimTime{1}, NodeId{1}, 9);
  sim.trace().record(sim::TraceKind::Handoff, sim::SimTime{2}, NodeId{2});
  sim.trace().record(sim::TraceKind::TokenPass, sim::SimTime{3}, NodeId{3}, 9);
  const auto passes = sim.trace().filter(sim::TraceKind::TokenPass);
  CHECK_EQ(passes.size(), std::size_t{2});
  CHECK_EQ(passes[1].at.us, std::int64_t{3});
  CHECK_EQ(passes[1].a, std::uint64_t{9});
  // Disabled traces record nothing.
  sim::Simulation quiet(1);
  quiet.trace().record(sim::TraceKind::TokenPass, sim::SimTime{1}, NodeId{1});
  CHECK(quiet.trace().events().empty());
}

TEST(metrics_interned_handles_alias_string_keys) {
  obs::Metrics m;
  const auto id = m.intern("hot.counter");
  CHECK_EQ(m.intern("hot.counter"), id);  // idempotent
  m.incr(id, 3);
  m.incr("hot.counter", 2);
  CHECK_EQ(m.counter(id), std::uint64_t{5});
  CHECK_EQ(m.counter("hot.counter"), std::uint64_t{5});
  const auto g = m.intern("hot.gauge");
  m.gauge_max(g, 4.0);
  m.gauge_max("hot.gauge", 9.0);
  m.gauge_max(g, 6.0);
  CHECK_NEAR(m.gauge("hot.gauge"), 9.0, 1e-9);
  CHECK_NEAR(m.gauge(g), 9.0, 1e-9);
}

TEST(trace_ring_capacity_keeps_latest) {
  sim::Trace trace;
  trace.enable();
  trace.set_capacity(3);
  for (std::int64_t i = 0; i < 5; ++i) {
    trace.record(sim::TraceKind::Deliver, sim::SimTime{i}, NodeId{1},
                 static_cast<std::uint64_t>(i));
  }
  CHECK_EQ(trace.events().size(), std::size_t{3});
  CHECK_EQ(trace.dropped(), std::uint64_t{2});
  CHECK_EQ(trace.events().front().a, std::uint64_t{2});  // oldest kept
  CHECK_EQ(trace.events().back().a, std::uint64_t{4});
  // Shrinking the cap trims the front immediately.
  trace.set_capacity(1);
  CHECK_EQ(trace.events().size(), std::size_t{1});
  CHECK_EQ(trace.events().front().a, std::uint64_t{4});
  CHECK_EQ(trace.dropped(), std::uint64_t{4});
  // for_each visits without materializing; count matches filter.
  trace.record(sim::TraceKind::Handoff, sim::SimTime{9}, NodeId{2});
  CHECK_EQ(trace.count(sim::TraceKind::Handoff), std::size_t{1});
  CHECK_EQ(trace.filter(sim::TraceKind::Handoff).size(), std::size_t{1});
  std::uint64_t sum = 0;
  trace.for_each(sim::TraceKind::Handoff,
                 [&sum](const sim::TraceEvent& ev) { sum += ev.node.v; });
  CHECK_EQ(sum, std::uint64_t{2});
}

namespace {

std::string trace_fingerprint(std::uint64_t seed) {
  sim::Simulation sim(seed);
  sim.trace().enable();
  core::ProtocolConfig cfg;
  cfg.hierarchy.num_brs = 3;
  cfg.hierarchy.ags_per_br = 1;
  cfg.hierarchy.aps_per_ag = 2;
  cfg.hierarchy.mhs_per_ap = 1;
  cfg.hierarchy.wireless = net::ChannelModel::wireless(0.05);
  cfg.num_sources = 2;
  cfg.source.rate_hz = 200.0;
  cfg.mobility.handoff_rate_hz = 2.0;
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  sim.run_for(sim::secs(1.0));
  std::string fp;
  for (const auto& ev : sim.trace().events()) {
    fp += std::to_string(static_cast<int>(ev.kind)) + ":" +
          std::to_string(ev.at.us) + ":" + std::to_string(ev.node.v) + ":" +
          std::to_string(ev.a) + ";";
  }
  fp += "|delivered=" + std::to_string(sim.metrics().counter("mh.delivered"));
  fp += "|retx=" + std::to_string(sim.metrics().counter("arq.retransmits"));
  return fp;
}

}  // namespace

TEST(same_seed_same_trace) {
  const auto a = trace_fingerprint(42);
  const auto b = trace_fingerprint(42);
  CHECK(!a.empty());
  CHECK(a == b);
}

TEST(different_seed_different_trace) {
  // Loss sampling and mobility depend on the seed, so two seeds should
  // diverge somewhere in a 1-second lossy, mobile run.
  CHECK(trace_fingerprint(1) != trace_fingerprint(2));
}

TEST_MAIN()
