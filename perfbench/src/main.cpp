// perfbench: the ringnet benchmark program.
//
//   perfbench --workload ring|fanout|sim_100k|all
//             [--seed N] [--seconds S] [--trace 0|1]
//   perfbench --list
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md in this directory for what each measures). Each metric is
// printed as a text line with its unit and sample count, and the last line
// of standard output is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {"name": {"value": x, "unit": "u"}, ...}}
// The exit code is 1 when an output check fails (total order violated), 2
// on a usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using perfbench::Metric;
using perfbench::Outcome;

const char* const kWorkloads[] = {"ring", "fanout", "sim_100k"};

struct Name {
  const char* name;
  const char* unit;
};

const Name kEndToEnd[] = {
    {"setup_s", "s"},          {"goodput_msgs_s", "msgs/s"}, {"lat_p50_us", "us"},
    {"lat_p99_us", "us"},      {"cpu_us_per_msg", "us"},     {"events_s", "1/s"},
};

// Every per-layer metric, in report order. A workload that does not run a
// layer reports it as 0 (the UDP workloads execute no simulator events;
// sim_100k sends no frames; only ring's traced run measures overload.*).
const Name kPerLayer[] = {
    {"proto.encode_ns.data", "ns"},
    {"proto.decode_ns.data", "ns"},
    {"proto.decode_ns.token", "ns"},
    {"proto.token_view_ns", "ns"},
    {"proto.token_bytes.max", "B"},
    {"proto.token_rows.max", "count"},
    {"transport.frames_per_msg", "count"},
    {"transport.bytes_per_msg", "B"},
    {"transport.send_us.mean", "us"},
    {"transport.unframe_ns", "ns"},
    {"transport.oversize_frames", "count"},
    {"transport.send_failures", "count"},
    {"transport.malformed", "count"},
    {"loop.handoff_us.p50", "us"},
    {"loop.handoff_us.p99", "us"},
    {"loop.csw_per_msg", "count"},
    {"loop.sys_user_ratio", "ratio"},
    {"loop.ticks_per_s", "1/s"},
    {"br.self_us_per_msg", "us"},
    {"ap.self_us_per_msg", "us"},
    {"mh.self_us_per_delivery", "us"},
    {"br.token_hold_us.p50", "us"},
    {"br.token_rotation_us.p50", "us"},
    {"br.assign_wait_us.p50", "us"},
    {"br.assign_wait_us.p99", "us"},
    {"br.msgs_per_hold", "count"},
    {"arq.token_retx", "count"},
    {"arq.token_regen", "count"},
    {"arq.dup_destroyed", "count"},
    {"arq.uplink_retx_per_msg", "count"},
    {"mh.gen_late_us.p99", "us"},
    {"overload.goodput_msgs_s", "msgs/s"},
    {"overload.token_regen", "count"},
    {"overload.token_retx", "count"},
    {"overload.dup_destroyed", "count"},
    {"overload.oversize_frames", "count"},
    {"overload.send_failures", "count"},
    {"overload.malformed", "count"},
    {"overload.token_bytes.max", "B"},
    {"overload.msgs_per_hold", "count"},
    {"overload.uplink_retx_per_msg", "count"},
    {"overload.failure_share", "ratio"},
    {"sim.events", "count"},
    {"sim.events_per_delivery", "count"},
    {"sim.windows", "count"},
    {"sim.serial_share", "ratio"},
    {"sim.inbox_deferred", "count"},
    {"trace.overhead", "ratio"},
};

/// The reported set in canonical order, filling layers the workload does
/// not run with 0.
template <std::size_t N>
std::vector<Metric> canonical(const Name (&names)[N], const std::vector<Metric>& got) {
  std::vector<Metric> out;
  for (const Name& n : names) {
    Metric m{n.name, 0.0, n.unit, 0};
    for (const Metric& g : got) {
      if (g.name == n.name) m = g;
    }
    out.push_back(m);
  }
  return out;
}

Outcome run_one(const std::string& workload, std::uint64_t seed, double seconds, bool traced) {
  Outcome o = workload == "sim_100k"
                  ? perfbench::run_sim_workload(seed, seconds, traced)
                  : perfbench::run_udp_workload(workload, seed, seconds, traced);
  o.end_to_end = traced ? std::vector<Metric>{} : canonical(kEndToEnd, o.end_to_end);
  o.per_layer = traced ? canonical(kPerLayer, o.per_layer) : std::vector<Metric>{};
  return o;
}

void print_block(const std::string& workload, const Outcome& o) {
  std::printf("== %s: correct=%s attempted=%llu failed=%llu\n", workload.c_str(),
              o.correct ? "yes" : "NO", static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  if (!o.correct) std::printf("   violation: %s\n", o.violation.c_str());
  for (const auto* set : {&o.end_to_end, &o.per_layer}) {
    for (const Metric& m : *set) {
      std::printf("   %-28s %16.6g %-7s n=%llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
  }
  for (const std::string& note : o.notes) std::printf("   # %s\n", note.c_str());
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, m] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ring|fanout|sim_100k|all "
               "[--seed N] [--seconds S] [--trace 0|1]\n       %s --list\n",
               argv0, argv0);
  return 2;
}

}  // namespace

namespace perfbench {

HostCpu HostCpu::now() {
  HostCpu h;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return h;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) h.total += static_cast<double>(x);
    h.steal = static_cast<double>(v[7]);
  }
  std::fclose(f);
  return h;
}

// How many repetitions each end-to-end metric is taken from: enough for a
// stable median, few enough that a run with a few quiet seconds has them.
constexpr std::size_t kQuietReps = 6;

std::vector<Metric> end_to_end(const std::vector<Rep>& reps, std::vector<std::string>& notes) {
  // The first repetition warms the allocator, caches and socket tables and
  // is left out whenever there is another one.
  std::vector<std::size_t> order;
  for (std::size_t i = reps.size() > 1 ? 1 : 0; i < reps.size(); ++i) order.push_back(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return reps[a].steal < reps[b].steal; });
  order.resize(std::min(order.size(), kQuietReps));
  const auto pick = [&](double Rep::*field) {
    std::vector<double> v;
    for (std::size_t i : order) v.push_back(reps[i].*field);
    return median(v);
  };
  // Latency quantiles are taken per repetition, then the median across
  // them: one repetition with a bad tail does not set the result.
  std::vector<double> p50, p99, steal;
  std::uint64_t lat_samples = 0;
  for (std::size_t i : order) {
    std::vector<double> lat = reps[i].lat_us;
    lat_samples += lat.size();
    p50.push_back(quantile(lat, 0.50));
    p99.push_back(quantile(lat, 0.99));
  }
  for (const Rep& r : reps) steal.push_back(r.steal);
  const std::uint64_t n = order.size();
  char line[200];
  std::snprintf(line, sizeof line,
                "from the %zu of %zu repetitions with the least stolen CPU%s; host CPU stolen: "
                "median %.3f, max %.3f",
                order.size(), reps.size(), reps.size() > 1 ? " (the first is warm-up)" : "",
                median(steal), steal.empty() ? 0.0 : quantile(steal, 1.0));
  notes.push_back(line);
  return {
      {"setup_s", pick(&Rep::setup_s), "s", n},
      {"goodput_msgs_s", pick(&Rep::goodput_msgs_s), "msgs/s", n},
      {"lat_p50_us", median(p50), "us", lat_samples},
      {"lat_p99_us", median(p99), "us", lat_samples},
      {"cpu_us_per_msg", pick(&Rep::cpu_us_per_msg), "us", n},
      {"events_s", pick(&Rep::events_s), "1/s", n},
  };
}

}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list") {
      for (const char* w : kWorkloads) std::printf("workload %s\n", w);
      for (const Name& n : kEndToEnd) std::printf("end_to_end %s %s\n", n.name, n.unit);
      for (const Name& n : kPerLayer) std::printf("per_layer %s %s\n", n.name, n.unit);
      return 0;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage(argv[0]);
    }
  }
  std::vector<std::string> run;
  for (const char* w : kWorkloads) {
    if (workload == "all" || workload == w) run.emplace_back(w);
  }
  if (run.empty() || !(seconds > 0.0)) return usage(argv[0]);

  std::printf("# perfbench seed=%llu seconds=%g trace=%d hardware_threads=%u\n",
              static_cast<unsigned long long>(seed), seconds, traced ? 1 : 0,
              std::thread::hardware_concurrency());
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;
  for (const std::string& w : run) {
    const Outcome o = run_one(w, seed, seconds, traced);
    print_block(w, o);
    std::fflush(stdout);
    correct = correct && o.correct;
    attempted += o.attempted;
    failed += o.failed;
    for (const auto* set : {&o.end_to_end, &o.per_layer}) {
      for (const Metric& m : *set) {
        metrics.emplace_back(run.size() > 1 ? w + "." + m.name : m.name, m);
      }
    }
  }
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
