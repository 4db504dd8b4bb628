// sim_100k: the E13 bench_scale shape at 100k MHs (16 BR domains x 25 APs
// x 250 MHs, 32 constant 4 Hz sources, zero-loss channels, 100 ms acks),
// run on the domain-sharded engine with 4 workers. It drives core/protocol
// and sim/ only; runtime/ is never touched.
//
// run_for is advanced in fixed 5 ms slices of simulated time, and each
// slice's wall time is one "step latency" sample: the time a user of the
// simulator waits for it to advance the 100k-MH system by one slice.

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <vector>

#include "baseline/harness.hpp"
#include "common.hpp"
#include "core/protocol.hpp"
#include "obs/names.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

using namespace ringnet;

constexpr std::size_t kBrs = 16;
constexpr std::size_t kApsPerBr = 25;
constexpr std::size_t kMhs = 100'000;
constexpr std::size_t kWorkers = 4;
const sim::SimTime kRun = sim::secs(0.25);
const sim::SimTime kDrain = sim::secs(0.1);
const sim::SimTime kSlice = sim::msecs(5);

baseline::RunSpec make_spec(std::uint64_t seed) {
  baseline::RunSpec spec;
  spec.config.hierarchy.num_brs = kBrs;
  spec.config.hierarchy.ags_per_br = 1;
  spec.config.hierarchy.aps_per_ag = kApsPerBr;
  spec.config.hierarchy.mhs_per_ap = kMhs / (kBrs * kApsPerBr);
  spec.config.hierarchy.wan = net::ChannelModel::wired_wan(0.0);
  spec.config.hierarchy.lan = net::ChannelModel::wired_lan(0.0);
  spec.config.hierarchy.wireless = net::ChannelModel::wireless(0.0);
  spec.config.num_sources = 32;
  spec.config.source.rate_hz = 4.0;
  spec.config.source.pattern = core::TrafficPattern::Constant;
  spec.config.options.ack_period = sim::msecs(100);
  // Kept on (bench_scale turns it off): the output check needs the log.
  spec.config.record_deliveries = true;
  spec.warmup = sim::SimTime::zero();
  spec.run = kRun;
  spec.drain = kDrain;
  spec.seed = seed;
  spec.shard = true;
  spec.shard_threads = kWorkers;
  return spec;
}

struct Accum {
  std::vector<Rep> rep_stats;
  std::uint64_t attempted = 0, missing = 0, duplicates = 0;
  std::uint64_t events = 0, deliveries = 0, windows = 0, serial = 0, deferred = 0;
  std::size_t reps = 0;
  Usage usage;
  std::uint64_t msgs = 0;
  std::string violation;
};

void advance(sim::Simulation& sim, sim::SimTime span, std::vector<double>& step_us) {
  for (sim::SimTime done = sim::SimTime::zero(); done < span; done = done + kSlice) {
    const std::int64_t t0 = mono_ns();
    sim.run_for(kSlice);
    step_us.push_back(static_cast<double>(mono_ns() - t0) / 1e3);
  }
}

void run_rep(std::uint64_t seed, Accum& acc) {
  const HostCpu host0 = HostCpu::now();
  Rep rep;
  const baseline::RunSpec spec = make_spec(seed);
  const core::ProtocolConfig cfg = baseline::effective_config(spec);

  const std::int64_t s0 = mono_ns();
  sim::Simulation sim(spec.seed, baseline::shard_plan(spec, cfg));
  core::RingNetProtocol proto(sim, cfg);
  proto.start();
  rep.setup_s = static_cast<double>(mono_ns() - s0) / 1e9;

  std::vector<double>& step_us = rep.lat_us;
  const Usage u0 = Usage::now();
  const std::int64_t w0 = mono_ns();
  advance(sim, spec.run, step_us);
  proto.stop_sources();
  advance(sim, spec.drain, step_us);
  const double wall_s = static_cast<double>(mono_ns() - w0) / 1e9;
  const Usage used = Usage::now() - u0;
  rep.steal = HostCpu::now().steal_share_since(host0);

  // Output checks: total order over the whole log, and every submitted
  // message delivered exactly once at every MH.
  const core::DeliveryLog& log = proto.deliveries();
  if (const auto v = log.check_total_order(); v && acc.violation.empty()) {
    acc.violation = "total order: " + *v;
  }
  const std::uint64_t sent = proto.total_sent();
  std::unordered_map<std::uint64_t, std::uint64_t> reach;
  std::vector<std::uint64_t> keys;
  for (const auto& recs : log.per_mh()) {
    keys.clear();
    for (const auto& r : recs) {
      keys.push_back((static_cast<std::uint64_t>(r.source.v) << 40) ^ r.lseq);
    }
    std::sort(keys.begin(), keys.end());
    const auto uniq = static_cast<std::size_t>(std::unique(keys.begin(), keys.end()) - keys.begin());
    acc.duplicates += keys.size() - uniq;
    acc.missing += sent > uniq ? sent - uniq : 0;
    for (std::size_t i = 0; i < uniq; ++i) ++reach[keys[i]];
    acc.deliveries += recs.size();
  }
  std::uint64_t complete = 0;
  for (const auto& [key, n] : reach) complete += n == log.per_mh().size() ? 1 : 0;
  acc.attempted += sent * log.per_mh().size();
  acc.msgs += complete;

  const auto& m = sim.metrics();
  const std::uint64_t events = sim.executed_events();
  acc.events += events;
  acc.windows += m.counter(obs::names::kSchedWindows);
  acc.serial += m.counter(obs::names::kSchedSerialSteps);
  acc.deferred += m.counter(obs::names::kSchedInboxDeferred);
  acc.usage += used;
  ++acc.reps;
  rep.goodput_msgs_s = per(static_cast<double>(complete), wall_s);
  rep.cpu_us_per_msg = per(used.cpu_us(), static_cast<double>(complete));
  rep.events_s = per(static_cast<double>(events), wall_s);
  acc.rep_stats.push_back(rep);
}

Accum run_for(std::uint64_t seed, double seconds) {
  Accum acc;
  repeat_for(seconds, [&](std::size_t rep) { run_rep(seed * 0x100000001B3ull + rep, acc); });
  return acc;
}

}  // namespace

Outcome run_sim_workload(std::uint64_t seed, double seconds, bool traced) {
  Outcome out;
  // The simulator's counters are always on, so a traced run is a second,
  // identical run whose CPU cost is compared against the first.
  Accum acc = run_for(seed, traced ? seconds / 2 : seconds);
  out.attempted = acc.attempted;
  out.failed = acc.missing + acc.duplicates;
  if (!acc.violation.empty()) out.fail(acc.violation);
  if (!traced) {
    out.end_to_end = end_to_end(acc.rep_stats, out.notes);
    char line[200];
    std::snprintf(line, sizeof line,
                  "reps %zu, events %llu, deliveries %llu, missing %llu, duplicates %llu",
                  acc.reps, static_cast<unsigned long long>(acc.events),
                  static_cast<unsigned long long>(acc.deliveries),
                  static_cast<unsigned long long>(acc.missing),
                  static_cast<unsigned long long>(acc.duplicates));
    out.notes.push_back(line);
    return out;
  }
  Accum again = run_for(seed, seconds / 2);
  out.attempted += again.attempted;
  out.failed += again.missing + again.duplicates;
  if (!again.violation.empty()) out.fail(again.violation);
  const double reps = static_cast<double>(again.reps);
  const double events = static_cast<double>(again.events);
  out.per_layer = {
      {"sim.events", per(events, reps), "count", again.reps},
      {"sim.events_per_delivery", per(events, static_cast<double>(again.deliveries)), "count", again.deliveries},
      {"sim.windows", per(static_cast<double>(again.windows), reps), "count", again.reps},
      {"sim.serial_share", per(static_cast<double>(again.serial), events), "ratio", again.events},
      {"sim.inbox_deferred", per(static_cast<double>(again.deferred), reps), "count", again.reps},
      {"trace.overhead",
       per(per(again.usage.cpu_us(), static_cast<double>(again.msgs)),
           per(acc.usage.cpu_us(), static_cast<double>(acc.msgs))) - 1.0,
       "ratio", again.msgs},
  };
  return out;
}

}  // namespace perfbench
