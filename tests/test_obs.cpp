// Observability layer: the unified metrics registry (concurrent intern vs
// hot-path mutation, chunked slot growth, sharded histograms), the span
// breakdown, and the flight recorder (ring wrap, auto-dump arming, JSON
// dump shape). The concurrent cases are the TSan regression net for the
// registry's lock-free read path.

#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/span.hpp"
#include "ringnet_test.hpp"

using namespace ringnet;

TEST(metrics_intern_is_idempotent) {
  obs::Metrics m;
  const auto a = m.intern("x.alpha");
  const auto b = m.intern("x.beta");
  CHECK(a != b);
  CHECK_EQ(m.intern("x.alpha"), a);
  m.incr(a, 3);
  m.incr("x.alpha");
  CHECK_EQ(m.counter(a), std::uint64_t{4});
  CHECK_EQ(m.counter("x.alpha"), std::uint64_t{4});
  CHECK_EQ(m.counter("x.never-interned"), std::uint64_t{0});
}

TEST(metrics_gauge_keeps_maximum) {
  obs::Metrics m;
  const auto g = m.intern("x.peak");
  m.gauge_max(g, 4.0);
  m.gauge_max(g, 9.0);
  m.gauge_max(g, 2.0);
  CHECK_NEAR(m.gauge(g), 9.0, 1e-12);
}

TEST(metrics_slots_survive_chunk_growth) {
  // Handles must stay valid while intern crosses chunk boundaries (64
  // slots per chunk): write through early handles after 300 later interns.
  obs::Metrics m;
  const auto first = m.intern("grow.first");
  m.incr(first);
  std::vector<obs::Metrics::MetricId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(m.intern("grow." + std::to_string(i)));
  }
  for (const auto id : ids) m.incr(id);
  m.incr(first);
  CHECK_EQ(m.counter(first), std::uint64_t{2});
  for (const auto id : ids) CHECK_EQ(m.counter(id), std::uint64_t{1});
  std::size_t seen = 0;
  std::uint64_t sum = 0;
  m.for_each_counter([&](const std::string&, std::uint64_t c, double) {
    ++seen;
    sum += c;
  });
  CHECK_EQ(seen, std::size_t{301} + obs::names::kCounterCount);
  CHECK_EQ(sum, std::uint64_t{302});
}

// Every well-known spelling is distinct: two handles under one name would
// split one metric across two slots.
constexpr bool counter_names_distinct() {
  for (std::uint32_t i = 0; i < obs::names::kCounterCount; ++i) {
    for (std::uint32_t j = i + 1; j < obs::names::kCounterCount; ++j) {
      if (std::string_view{obs::names::kCounterNames[i]} ==
          std::string_view{obs::names::kCounterNames[j]}) {
        return false;
      }
    }
  }
  return true;
}
static_assert(counter_names_distinct());

TEST(metrics_well_known_names_are_fixed_handles) {
  obs::Metrics m;
  for (std::uint32_t i = 0; i < obs::names::kCounterCount; ++i) {
    CHECK_EQ(m.intern(obs::names::kCounterNames[i]), i);
  }
  for (int i = 0; i < 300; ++i) {
    CHECK(m.intern("dyn." + std::to_string(i)) >= obs::names::kCounterCount);
  }
  for (std::uint32_t i = 0; i < obs::names::kCounterCount; ++i) {
    CHECK_EQ(m.intern(obs::names::kCounterNames[i]), i);
  }
  // The handle and its spelling read and write one slot.
  m.incr(obs::names::kRetransmits, 2);
  m.incr(obs::names::kCounterNames[obs::names::kRetransmits]);
  CHECK_EQ(m.counter(obs::names::kRetransmits), std::uint64_t{3});
  CHECK_EQ(m.counter(obs::names::kCounterNames[obs::names::kRetransmits]),
           std::uint64_t{3});
  m.gauge_max(obs::names::kBufMqPeak, 5.0);
  CHECK_NEAR(m.gauge(obs::names::kCounterNames[obs::names::kBufMqPeak]), 5.0,
             1e-12);
}

TEST(metrics_for_each_counter_reports_each_well_known_name_once) {
  obs::Metrics m;
  m.incr("dyn.extra");
  std::map<std::string, int> seen;
  m.for_each_counter(
      [&](const std::string& name, std::uint64_t, double) { ++seen[name]; });
  CHECK_EQ(seen.size(), std::size_t{obs::names::kCounterCount} + 1);
  for (const char* name : obs::names::kCounterNames) CHECK_EQ(seen[name], 1);
  CHECK_EQ(seen["dyn.extra"], 1);
}

TEST(metrics_concurrent_intern_vs_incr) {
  // The TSan net: writer threads hammer held handles while intern threads
  // force chunk publications. Any growth on the read path is a data race
  // the sanitizer leg catches; the count check catches lost updates.
  obs::Metrics m;
  const auto hot = m.intern("race.hot");
  constexpr int kWriters = 4;
  constexpr int kIncrsPerWriter = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 2);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&m, hot] {
      for (int i = 0; i < kIncrsPerWriter; ++i) m.incr(hot);
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&m, t] {
      for (int i = 0; i < 200; ++i) {
        const auto id =
            m.intern("race.t" + std::to_string(t) + "." + std::to_string(i));
        m.incr(id);
        // Same-name interning from both threads must converge on one slot.
        m.incr(m.intern("race.shared." + std::to_string(i)));
      }
    });
  }
  for (auto& th : threads) th.join();
  CHECK_EQ(m.counter(hot),
           std::uint64_t{kWriters} * std::uint64_t{kIncrsPerWriter});
  CHECK_EQ(m.counter("race.shared.0"), std::uint64_t{2});
}

TEST(metrics_sharded_hist_merges_on_read) {
  obs::Metrics m(4);
  CHECK_EQ(m.hist_shards(), std::size_t{4});
  const auto h = m.intern_hist(obs::names::kMhLatencyUs);
  for (std::uint64_t v = 0; v < 400; ++v) m.hist_record(h, v % 4, v);
  const auto merged = m.hist(h);
  CHECK_EQ(merged.count(), std::uint64_t{400});
  CHECK_EQ(merged.max(), std::uint64_t{399});
  CHECK_EQ(m.hist(obs::names::kMhLatencyUs).count(), std::uint64_t{400});
  CHECK_EQ(m.hist("obs.no-such-hist").count(), std::uint64_t{0});
  std::size_t hists = 0;
  m.for_each_hist([&](const std::string&, const stats::Histogram& hist) {
    ++hists;
    CHECK_EQ(hist.count(), std::uint64_t{400});
  });
  CHECK_EQ(hists, std::size_t{1});
}

TEST(span_breakdown_records_and_renders) {
  obs::SpanBreakdown b;
  CHECK(b.empty());
  for (std::uint64_t i = 1; i <= 10; ++i) {
    b.record(obs::SpanStage::Submit, i);
    b.record(obs::SpanStage::Assign, 10 * i);
    b.record(obs::SpanStage::Relay, 100 * i);
    b.record(obs::SpanStage::Deliver, i);
    b.record_total(111 * i + i);
  }
  CHECK(!b.empty());
  CHECK_EQ(b.stage(obs::SpanStage::Assign).count(), std::uint64_t{10});
  CHECK_EQ(b.total().count(), std::uint64_t{10});

  obs::SpanBreakdown other;
  other.record(obs::SpanStage::Submit, 7);
  other.record_total(7);
  b.merge_from(other);
  CHECK_EQ(b.stage(obs::SpanStage::Submit).count(), std::uint64_t{11});
  CHECK_EQ(b.total().count(), std::uint64_t{11});

  const std::string t = b.table("unit");
  CHECK(t.find("unit") != std::string::npos);
  for (std::size_t i = 0; i < obs::kSpanStages; ++i) {
    CHECK(t.find(obs::stage_name(static_cast<obs::SpanStage>(i))) !=
          std::string::npos);
  }
  CHECK(t.find("total") != std::string::npos);
}

TEST(flight_recorder_ring_wraps) {
  obs::FlightRecorder fr(8);
  CHECK_EQ(fr.capacity(), std::size_t{8});
  for (std::uint64_t i = 0; i < 20; ++i) {
    fr.record(obs::FrEvent::Deliver, static_cast<std::int64_t>(i), i);
  }
  CHECK_EQ(fr.size(), std::size_t{8});
  CHECK_EQ(fr.total_recorded(), std::uint64_t{20});
  const auto snap = fr.snapshot();
  CHECK_EQ(snap.size(), std::size_t{8});
  // Oldest-to-newest: the retained window is exactly the last 8 records.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    CHECK_EQ(snap[i].a, std::uint64_t{12 + i});
    CHECK(snap[i].kind == obs::FrEvent::Deliver);
  }
}

TEST(flight_recorder_auto_dump_arming) {
  obs::FlightRecorder fr;
  CHECK(!fr.take_dump_request());
  fr.record(obs::FrEvent::TokenRx, 1, 5);
  fr.record(obs::FrEvent::Deliver, 2, 9);
  CHECK(!fr.take_dump_request());  // routine events never arm a dump
  fr.record(obs::FrEvent::TokenRegen, 3, 2);
  CHECK(fr.take_dump_request());
  CHECK(!fr.take_dump_request());  // take clears it
  fr.record(obs::FrEvent::OrderViolation, 4, 11, 10);
  fr.record(obs::FrEvent::TokenDropped, 5, 7);
  CHECK(fr.take_dump_request());
  CHECK(!fr.take_dump_request());
}

TEST(flight_recorder_dump_json_shape) {
  obs::FlightRecorder fr(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    fr.record(obs::FrEvent::TokenTx, static_cast<std::int64_t>(100 + i), i,
              i + 1);
  }
  const std::string json = fr.dump_json("br[0]", "sigusr1");
  CHECK(json.find("\"flight_recorder\"") != std::string::npos);
  CHECK(json.find("\"node\":\"br[0]\"") != std::string::npos);
  CHECK(json.find("\"reason\":\"sigusr1\"") != std::string::npos);
  CHECK(json.find("\"recorded\":6") != std::string::npos);
  CHECK(json.find("\"retained\":4") != std::string::npos);
  CHECK(json.find("\"ev\":\"token_tx\"") != std::string::npos);
  CHECK(json.find('\n') == std::string::npos);  // single line for the daemon
  // Balanced braces/brackets: a cheap well-formedness proxy the CI soak
  // backs with a real json.loads parse.
  int depth = 0;
  bool ok = true;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) ok = false;
  }
  CHECK(ok);
  CHECK_EQ(depth, 0);
  // An empty recorder still dumps well-formed JSON (quiet AP nodes).
  const obs::FlightRecorder empty;
  const std::string ej = empty.dump_json("ap[1]", "auto");
  CHECK(ej.find("\"retained\":0") != std::string::npos);
  CHECK(ej.find("\"events\":[]") != std::string::npos);
}

TEST(names_constants_are_namespaced) {
  // The RN008 lint forces core/runtime call sites through these constants;
  // sanity-pin a few so a rename cannot silently decouple sim and runtime.
  const std::string held = obs::names::kCounterNames[obs::names::kTokenHeld];
  const std::string delivered =
      obs::names::kCounterNames[obs::names::kMhDelivered];
  CHECK_EQ(held, std::string{"token.held"});
  CHECK_EQ(delivered, std::string{"mh.delivered"});
  CHECK_EQ(std::string{obs::names::kMhLatencyUs},
           std::string{"mh.latency_us"});
  CHECK_EQ(std::string{obs::stage_name(obs::SpanStage::Submit)},
           std::string{obs::names::kStageSubmit});
}

TEST_MAIN()
