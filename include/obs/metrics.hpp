#pragma once
// Unified metrics registry shared by the deterministic simulation and the
// real-socket runtime. Every registry holds the obs/names.hpp counters at
// their fixed ids from construction, so hot paths pass a names::Counter and
// every incr/gauge_max is an atomic slot write, with no per-registry
// interning; other names (benches, tests) are interned after them.
// Mutation is thread-safe (relaxed increments, CAS-max gauges) so parallel
// shards and runtime threads share one registry: additions commute and
// maxima are order-free, which keeps totals identical between the sharded
// and single-heap sim engines.
//
// intern() is safe for concurrent first-intern: the name map is mutex-
// guarded and slot storage lives in fixed-size chunks published through
// atomic pointers, so a thread incrementing an already-held handle never
// races a thread interning a new name (no deque/vector growth on the read
// path).
//
// Histogram members are sharded (one stats::Histogram per shard per name)
// with merge-on-read. Histogram recording itself is NOT atomic: the
// contract is single-writer-per-shard — the sim routes each execution
// context to its own shard, the runtime records under the node's state
// mutex — and hist() merges are taken after quiescence or under the same
// external synchronization.

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/names.hpp"
#include "stats/histogram.hpp"
#include "util/annotations.hpp"
#include "util/sync.hpp"

namespace ringnet::obs {

class Metrics {
 public:
  using MetricId = std::uint32_t;
  using HistId = std::uint32_t;

  /// `hist_shards` fixes the per-histogram shard count (one independent
  /// writer slot each); counters/gauges are atomic and need no shards.
  explicit Metrics(std::size_t hist_shards = 1)
      : hist_shards_(hist_shards == 0 ? 1 : hist_shards) {
    for (MetricId id = 0; id < names::kCounterCount; id += kChunk) {
      ensure_chunk(slots_, id);
    }
  }
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  /// Idempotent: interning the same name again returns the same handle,
  /// and a well-known name returns its names::Counter id. Safe to call
  /// concurrently with other intern() calls and with hot-path mutation
  /// through previously returned handles.
  MetricId intern(const std::string& name) {
    if (const MetricId id = well_known(name); id != kNoId) return id;
    util::MutexLock lock(mu_);
    const auto [it, inserted] = ids_.emplace(name, next_id_);
    if (inserted) {
      ensure_chunk(slots_, next_id_);
      ++next_id_;
    }
    return it->second;
  }

  void incr(MetricId id, std::uint64_t delta = 1) {
    slot(id).counter.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t counter(MetricId id) const {
    return slot(id).counter.load(std::memory_order_relaxed);
  }

  /// Record an observation; the gauge keeps the maximum ever seen.
  void gauge_max(MetricId id, double value) {
    std::atomic<double>& g = slot(id).gauge;
    double cur = g.load(std::memory_order_relaxed);
    while (value > cur &&
           !g.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  double gauge(MetricId id) const {
    return slot(id).gauge.load(std::memory_order_relaxed);
  }

  void incr(const std::string& name, std::uint64_t delta = 1) {
    incr(intern(name), delta);
  }
  std::uint64_t counter(const std::string& name) const {
    const MetricId id = find_id(name);
    return id == kNoId ? 0 : counter(id);
  }
  void gauge_max(const std::string& name, double value) {
    gauge_max(intern(name), value);
  }
  double gauge(const std::string& name) const {
    const MetricId id = find_id(name);
    return id == kNoId ? 0.0 : gauge(id);
  }

  /// Visit every (name, counter, gauge) triple: each well-known name, then
  /// each interned one. Snapshot-consistent only after quiescence; live
  /// values are relaxed reads.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    for (MetricId id = 0; id < names::kCounterCount; ++id) {
      fn(std::string{names::kCounterNames[id]}, counter(id), gauge(id));
    }
    util::MutexLock lock(mu_);
    for (const auto& [name, id] : ids_) fn(name, counter(id), gauge(id));
  }

  // --- histograms (sharded, merge-on-read) ---

  std::size_t hist_shards() const { return hist_shards_; }

  HistId intern_hist(const std::string& name) {
    util::MutexLock lock(mu_);
    const auto [it, inserted] = hist_ids_.emplace(name, next_hist_id_);
    if (inserted) {
      ensure_chunk(hists_, next_hist_id_, hist_shards_);
      ++next_hist_id_;
    }
    return it->second;
  }

  /// Record into `shard`'s slot for `id`. Single writer per (id, shard):
  /// the caller routes each concurrent writer to its own shard.
  void hist_record(HistId id, std::size_t shard, std::uint64_t value) {
    hist_slot(id)[shard % hist_shards_].record(value);
  }

  /// All shards of `id` folded into one histogram (merge-on-read). Take
  /// it after the writers quiesced or under their synchronization.
  stats::Histogram hist(HistId id) const {
    stats::Histogram merged;
    const std::vector<stats::Histogram>& shards = hist_slot(id);
    for (const auto& h : shards) merged.merge_from(h);
    return merged;
  }
  stats::Histogram hist(const std::string& name) const {
    HistId id = 0;
    {
      util::MutexLock lock(mu_);
      const auto it = hist_ids_.find(name);
      if (it == hist_ids_.end()) return {};
      id = it->second;
    }
    return hist(id);
  }

  /// Visit every (name, merged histogram) pair; same quiescence contract
  /// as hist().
  template <typename Fn>
  void for_each_hist(Fn&& fn) const {
    std::vector<std::pair<std::string, HistId>> snap;
    {
      util::MutexLock lock(mu_);
      snap.assign(hist_ids_.begin(), hist_ids_.end());
    }
    for (const auto& [name, id] : snap) fn(name, hist(id));
  }

 private:
  // Fixed-geometry chunked storage: a slot's address never changes after
  // intern, and chunk pointers are published with release/acquire, so the
  // lock-free read path never observes a container mid-growth.
  static constexpr std::size_t kChunkBits = 6;
  static constexpr std::size_t kChunk = 1u << kChunkBits;  // 64 slots
  static constexpr std::size_t kMaxChunks = 256;           // 16384 names

  struct Slot {
    std::atomic<std::uint64_t> counter{0};
    std::atomic<double> gauge{0.0};
  };

  template <typename T>
  struct Chunk {
    std::array<T, kChunk> slots;
  };

  template <typename T>
  struct ChunkTable {
    std::array<std::atomic<Chunk<T>*>, kMaxChunks> chunks{};

    ~ChunkTable() {
      for (auto& c : chunks) delete c.load(std::memory_order_relaxed);
    }
    T& at(std::uint32_t id) const {
      Chunk<T>* c =
          chunks[id >> kChunkBits].load(std::memory_order_acquire);
      return c->slots[id & (kChunk - 1)];
    }
  };

  template <typename T, typename... Args>
  static void ensure_chunk(ChunkTable<T>& table, std::uint32_t id,
                           Args&&... init) {
    const std::size_t c = id >> kChunkBits;
    assert(c < kMaxChunks && "metric name space exhausted");
    if (table.chunks[c].load(std::memory_order_relaxed) == nullptr) {
      auto* chunk = new Chunk<T>;
      if constexpr (sizeof...(Args) > 0) {
        for (auto& s : chunk->slots) s = T(std::forward<Args>(init)...);
      }
      table.chunks[c].store(chunk, std::memory_order_release);
    }
  }

  static constexpr MetricId kNoId = std::numeric_limits<MetricId>::max();

  /// The fixed id of a well-known name, or kNoId. One table per process,
  /// built on first use, so building a registry costs no per-name work.
  static MetricId well_known(std::string_view name) {
    static const std::unordered_map<std::string_view, MetricId> table = [] {
      std::unordered_map<std::string_view, MetricId> t;
      for (MetricId id = 0; id < names::kCounterCount; ++id) {
        t.emplace(names::kCounterNames[id], id);
      }
      return t;
    }();
    const auto it = table.find(name);
    return it == table.end() ? kNoId : it->second;
  }

  /// The id `name` already has, or kNoId; never interns.
  MetricId find_id(const std::string& name) const {
    if (const MetricId id = well_known(name); id != kNoId) return id;
    util::MutexLock lock(mu_);
    const auto it = ids_.find(name);
    return it == ids_.end() ? kNoId : it->second;
  }

  Slot& slot(MetricId id) const { return slots_.at(id); }
  std::vector<stats::Histogram>& hist_slot(HistId id) const {
    return hists_.at(id);
  }

  mutable util::Mutex mu_;
  std::unordered_map<std::string, MetricId> ids_ RN_GUARDED_BY(mu_);
  std::unordered_map<std::string, HistId> hist_ids_ RN_GUARDED_BY(mu_);
  MetricId next_id_ RN_GUARDED_BY(mu_) = names::kCounterCount;
  HistId next_hist_id_ RN_GUARDED_BY(mu_) = 0;
  std::size_t hist_shards_;
  ChunkTable<Slot> slots_;
  ChunkTable<std::vector<stats::Histogram>> hists_;
};

}  // namespace ringnet::obs
