#pragma once
// Shared vocabulary of the perfbench program: the metric record every
// workload fills, exact sample quantiles, and process resource usage.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One reported number. `samples` is how many measurements it summarizes
/// (deliveries for a latency quantile, repetitions for a per-rep median).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
};

/// What one workload invocation produced.
struct Outcome {
  bool correct = true;
  std::string violation;        // first output-check failure, if any
  std::uint64_t attempted = 0;  // expected deliveries
  std::uint64_t failed = 0;     // missing or duplicated deliveries
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // ungated diagnostics, printed as text

  void fail(const std::string& why) {
    if (correct) violation = why;
    correct = false;
  }
};

/// Exact quantile (nearest-rank on the sorted samples); sorts in place.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-wide CPU time and context switches (all threads).
struct Usage {
  double user_us = 0.0;
  double sys_us = 0.0;
  double csw = 0.0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_us = static_cast<double>(ru.ru_utime.tv_sec) * 1e6 +
                static_cast<double>(ru.ru_utime.tv_usec);
    u.sys_us = static_cast<double>(ru.ru_stime.tv_sec) * 1e6 +
               static_cast<double>(ru.ru_stime.tv_usec);
    u.csw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
  }

  Usage operator-(const Usage& o) const {
    return Usage{user_us - o.user_us, sys_us - o.sys_us, csw - o.csw};
  }
  Usage& operator+=(const Usage& o) {
    user_us += o.user_us;
    sys_us += o.sys_us;
    csw += o.csw;
    return *this;
  }
  double cpu_us() const { return user_us + sys_us; }
};

/// SplitMix64: the seed -> input derivation. Small, stable across
/// platforms, so the same --seed always yields the same inputs.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t s_;
};

inline double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Aggregate CPU time of the machine the benchmark runs on (the "cpu" line of /proc/stat, in
/// clock ticks), read to measure how much of it the hypervisor stole while
/// a repetition ran. All zero when unavailable.
struct HostCpu {
  double steal = 0.0;
  double total = 0.0;

  static HostCpu now();
  double steal_share_since(const HostCpu& before) const {
    return per(steal - before.steal, total - before.total);
  }
};

/// What one repetition measured for the end-to-end metrics.
struct Rep {
  double setup_s = 0.0;
  double goodput_msgs_s = 0.0;
  double cpu_us_per_msg = 0.0;
  double events_s = 0.0;
  std::vector<double> lat_us;  // every latency sample
  double steal = 0.0;          // share of host CPU time stolen while it ran
};

/// The end-to-end metrics of a run, from the six repetitions after the
/// first with the least host CPU time stolen by the hypervisor: each is the
/// median of their per-repetition values (latency quantiles are taken per
/// repetition). On a shared host, stolen CPU time arrives in bursts of
/// seconds to minutes, and even a few percent of it doubles the p99 of a
/// 69-thread deployment on 4 cores. Ranking the repetitions by that outside
/// signal, never by the measured values, keeps the bursts out of the result
/// unless they cover most of the run.
std::vector<Metric> end_to_end(const std::vector<Rep>& reps,
                               std::vector<std::string>& notes);

/// Call `rep` until `seconds` are used up; a new repetition starts only if
/// the previous one's duration still fits. Runs at least once.
template <typename Fn>
void repeat_for(double seconds, Fn&& rep) {
  const std::int64_t t0 = mono_ns();
  double last_s = 0.0;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = static_cast<double>(mono_ns() - t0) / 1e9;
    if (i > 0 && elapsed + last_s > seconds) break;
    const std::int64_t r0 = mono_ns();
    rep(i);
    last_s = static_cast<double>(mono_ns() - r0) / 1e9;
  }
}

/// Workload entry points (one per translation unit).
Outcome run_udp_workload(const std::string& name, std::uint64_t seed,
                         double seconds, bool traced);
Outcome run_sim_workload(std::uint64_t seed, double seconds, bool traced);

/// Frames captured by a traced UDP run, replayed through the codec after
/// the deployment has stopped (replay.cpp).
struct CapturedFrames {
  std::vector<std::vector<std::uint8_t>> data;   // framed Data datagrams
  std::vector<std::vector<std::uint8_t>> token;  // framed Token datagrams
  std::vector<std::vector<std::uint8_t>> other;  // acks, membership, ...
};
void replay_codec(const CapturedFrames& frames, Outcome& out);

}  // namespace perfbench
