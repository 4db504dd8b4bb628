// Real-UDP workloads: ring and fanout, plus the overload regime that the
// ring workload's traced run measures.
//
// The deployment is wired here from the runtime's public types, the same
// way runtime/orchestrator.cpp does it (UdpTransport + AddressBook, one
// NodeLoop per node, BR/AP/MH/SS roles, the SS Ready/Start handshake), so
// that boot time and every layer boundary stay visible. Nothing inside the
// program is instrumented: every measurement is taken from outside, at
// public functions.
//
//   * Every MH is wrapped in a Probe (a RuntimeNode forwarding to the real
//     MhRuntime) that reads submitted_count() and deliveries() after each
//     call, timestamping every submit and every delivery at every receiver
//     with the same `now_us` the program itself sees. That is the only
//     wrapping in an untraced run.
//   * A traced run also wraps every node's Transport (TracedTransport:
//     send/recv timers, frame classification and capture) and every role
//     (Probe with a NodeTrace: handler time, self time, token hold, uplink
//     arrival), all of it on the thread that already owns that state.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/protocol.hpp"
#include "proto/messages.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/node.hpp"
#include "runtime/udp_transport.hpp"
#include "util/clock.hpp"

namespace perfbench {
namespace {

using namespace ringnet;
using namespace ringnet::runtime;

// Same supervisor address the orchestrator uses: outside every role's id
// space, so it never collides with a node or a message source id.
constexpr NodeId kSupervisorId{0x00FFFFFEu};

struct Shape {
  const char* name;
  std::size_t brs;
  std::size_t aps_per_br;
  std::size_t mhs_per_ap;
  double rate_hz;          // per source
  bool one_source_per_ap;  // false: every MH is a source
  double script_s;         // submit duration of one repetition
  double deadline_s;       // give up on a repetition after this long
};

// Open-loop sources: each submits on a fixed schedule whatever the ring
// does, so queues can grow.
constexpr Shape kShapes[] = {
    {"ring", 4, 1, 1, 2000.0, false, 0.75, 8.0},
    {"fanout", 2, 2, 4, 500.0, true, 0.75, 8.0},
};

// The ring shape offered 24k msgs/s for a fixed 5 s script: far beyond what
// the ring orders, so the backlog, the oversize token and its regeneration
// cascade (ROADMAP open item 1) all run. Whether and when a stall sets the
// cascade off varies from one repetition to the next, so its delivered
// rate swings by about 15% and its latency by 10x between runs: it is
// reported among the ungated per-layer metrics of ring's traced run, never
// resized or re-seeded to hide the defect.
constexpr Shape kOverload = {"overload", 4, 1, 1, 6000.0, false, 5.0, 40.0};

const Shape* find_shape(const std::string& name) {
  for (const Shape& s : kShapes) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::int64_t period_us(double rate_hz) {
  // The schedule MhRuntime follows: one submit every 1e6 / rate µs.
  return static_cast<std::int64_t>(1e6 / rate_hz);
}

std::uint64_t key_of(NodeId source, LocalSeq lseq) {
  return (static_cast<std::uint64_t>(source.v) << 40) ^ lseq;
}

// ---------------------------------------------------------------------------
// Traced-run bookkeeping, one per node. Fields are written only by the
// thread named beside them and read by the workload after NodeLoop::stop()
// has joined that thread.

enum class Role { Br, Ap, Mh, Ss };

template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t cap, std::uint64_t seed) : cap_(cap), rng_(seed) {}
  void offer(const T& x) {
    ++seen_;
    if (items_.size() < cap_) {
      items_.push_back(x);
    } else if (const auto j = rng_.below(seen_); j < cap_) {
      items_[j] = x;
    }
  }
  std::vector<T>& items() { return items_; }

 private:
  std::size_t cap_;
  SeedRng rng_;
  std::uint64_t seen_ = 0;
  std::vector<T> items_;
};

using Frame = std::vector<std::uint8_t>;

struct NodeTrace {
  NodeTrace(Role r, NodeId id, std::uint64_t seed)
      : role(r),
        self(id),
        cap_data(1024, seed ^ 1),
        cap_token(48, seed ^ 2),
        cap_other(256, seed ^ 3) {}

  Role role;
  NodeId self;

  // rx thread: the time recv() handed each datagram to the loop.
  std::vector<std::int64_t> rx_ns;

  // protocol thread (Probe and TracedTransport::send share it).
  std::vector<std::int64_t> dispatch_ns;  // on_datagram entry, same order
  std::int64_t handler_ns = 0;            // inside role callbacks
  std::int64_t in_send_ns = 0;            // inside TracedTransport::send
  std::int64_t send_syscall_ns = 0;       // inside the real send()
  std::uint64_t sends = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t oversize = 0;
  std::uint64_t ticks = 0;
  std::uint64_t token_bytes_max = 0;
  std::uint64_t token_rows_max = 0;
  std::uint64_t token_tx = 0;        // token frames sent (incl. ARQ resends)
  std::int64_t hold_start_ns = -1;  // token accepted, not yet forwarded
  std::vector<double> hold_us;
  std::vector<std::int64_t> accept_ns;  // every token accept (rotation)
  // BR: datagram index of each uplink's first arrival, and the first send
  // of its ordered copy.
  std::unordered_map<std::uint64_t, std::size_t> uplink_rx_index;
  std::unordered_map<std::uint64_t, std::int64_t> ordered_tx_ns;
  Reservoir<Frame> cap_data;
  Reservoir<Frame> cap_token;
  Reservoir<Frame> cap_other;
};

bool is_proto_frame(const std::vector<std::uint8_t>& bytes) {
  return bytes.size() > kFrameHeaderBytes &&
         bytes[4] == static_cast<std::uint8_t>(FrameKind::Proto);
}

/// Transport wrapper for traced runs: times the real send, classifies and
/// samples every outgoing frame, and stamps every datagram recv() returns.
class TracedTransport final : public Transport {
 public:
  TracedTransport(std::unique_ptr<UdpTransport> inner, NodeTrace& t)
      : Transport(inner->self()), inner_(std::move(inner)), t_(t) {}

  UdpTransport& inner() { return *inner_; }

  bool send(NodeId to, const std::vector<std::uint8_t>& bytes) override {
    const std::int64_t t0 = mono_ns();
    const bool ok = inner_->send(to, bytes);
    const std::int64_t t1 = mono_ns();
    t_.send_syscall_ns += t1 - t0;
    ++t_.sends;
    t_.frame_bytes += bytes.size();
    if (bytes.size() > kMaxDatagramBytes) ++t_.oversize;
    if (is_proto_frame(bytes)) classify(bytes, t1);
    t_.in_send_ns += mono_ns() - t0;
    return ok;
  }

  std::optional<Datagram> recv(std::int64_t timeout_us) override {
    auto d = inner_->recv(timeout_us);
    if (d) t_.rx_ns.push_back(mono_ns());
    return d;
  }

 private:
  void classify(const std::vector<std::uint8_t>& bytes, std::int64_t sent_ns) {
    const std::uint8_t* body = bytes.data() + kFrameHeaderBytes;
    const std::size_t body_size = bytes.size() - kFrameHeaderBytes;
    switch (static_cast<proto::MsgType>(body[0])) {
      case proto::MsgType::Token: {
        ++t_.token_tx;
        if (t_.hold_start_ns >= 0) {
          t_.hold_us.push_back(static_cast<double>(sent_ns - t_.hold_start_ns) / 1e3);
          t_.hold_start_ns = -1;
        }
        t_.token_bytes_max = std::max<std::uint64_t>(t_.token_bytes_max, bytes.size());
        if (const auto view = proto::TokenView::parse(body + 1, body_size - 1)) {
          t_.token_rows_max = std::max<std::uint64_t>(t_.token_rows_max, view->entry_count());
        }
        t_.cap_token.offer(bytes);
        break;
      }
      case proto::MsgType::Data: {
        t_.cap_data.offer(bytes);
        if (t_.role != Role::Br) break;
        const auto msg = proto::decode(body, body_size);
        if (msg && msg->data().ordering_node == t_.self) {
          t_.ordered_tx_ns.emplace(key_of(msg->data().source, msg->data().lseq), sent_ns);
        }
        break;
      }
      default:
        t_.cap_other.offer(bytes);
        break;
    }
  }

  std::unique_ptr<UdpTransport> inner_;
  NodeTrace& t_;
};

// ---------------------------------------------------------------------------
// Probe: the RuntimeNode the NodeLoop drives, forwarding to the real role.

/// Cross-node window bookkeeping. The first MH to see Start opens the
/// window; the last MH to complete its expected deliveries closes it.
struct Window {
  std::atomic<bool> opened{false};
  std::atomic<bool> closed{false};
  std::atomic<std::size_t> mhs_done{0};
  std::size_t n_mh = 0;
  // Written once by whichever thread wins the flag above.
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  Usage start_usage;
  Usage end_usage;

  void close(std::int64_t now_us) {
    if (closed.exchange(true)) return;
    end_usage = Usage::now();
    end_us = now_us;
  }
};

struct MhStamps {
  std::int64_t start_us = -1;            // first Start seen by this MH
  std::vector<std::int64_t> submit_us;   // by lseq
  std::vector<std::int64_t> deliver_us;  // parallel to deliveries()
};

class Probe final : public RuntimeNode {
 public:
  Probe(RuntimeNode& role, Window& w) : role_(role), w_(w) {}

  void stamp_mh(MhRuntime& mh, std::uint64_t expected) {
    mh_ = &mh;
    expected_ = expected;
  }
  void trace(NodeTrace& t, BrRuntime* br) {
    t_ = &t;
    br_ = br;
  }
  const MhStamps& stamps() const { return stamps_; }

  void on_start(std::int64_t now_us) override {
    call([&] { role_.on_start(now_us); }, now_us);
  }

  void on_datagram(const Datagram& d, std::int64_t now_us) override {
    if (mh_ != nullptr && d.kind == FrameKind::Control && stamps_.start_us < 0) {
      // MhRuntime anchors its submit schedule at the first Start it sees:
      // lseq l is due at start + submit_phase_us + l * period.
      const auto ctl = decode_control(d.payload.data(), d.payload.size());
      if (ctl && ctl->op == ControlOp::Start) {
        stamps_.start_us = now_us;
        if (!w_.opened.exchange(true)) {
          w_.start_usage = Usage::now();
          w_.start_us = now_us;
        }
      }
    }
    if (t_ != nullptr) {
      const std::size_t index = t_->dispatch_ns.size();
      t_->dispatch_ns.push_back(mono_ns());
      if (br_ != nullptr && d.kind == FrameKind::Proto && !d.payload.empty() &&
          d.payload[0] == static_cast<std::uint8_t>(proto::MsgType::Data)) {
        const auto msg = proto::decode(d.payload.data(), d.payload.size());
        if (msg && !msg->data().ordering_node.valid()) {
          t_->uplink_rx_index.emplace(key_of(msg->data().source, msg->data().lseq), index);
        }
      }
    }
    call([&] { role_.on_datagram(d, now_us); }, now_us);
  }

  void on_tick(std::int64_t now_us) override {
    if (t_ != nullptr) ++t_->ticks;
    call([&] { role_.on_tick(now_us); }, now_us);
  }

 private:
  template <typename Fn>
  void call(Fn&& fn, std::int64_t now_us) {
    if (t_ == nullptr) {
      fn();
    } else {
      const std::uint64_t held = br_ != nullptr ? br_->counters().tokens_held : 0;
      const std::int64_t send0 = t_->in_send_ns;
      const std::uint64_t token_tx0 = t_->token_tx;
      const std::int64_t t0 = mono_ns();
      fn();
      const std::int64_t t1 = mono_ns();
      t_->handler_ns += (t1 - t0) - (t_->in_send_ns - send0);
      if (br_ != nullptr && br_->counters().tokens_held > held) {
        // Accepted a token in this call; the hold ends at the next token
        // frame this node sends (a pass forwarded within the same call
        // is not a hold).
        t_->accept_ns.push_back(t0);
        if (t_->token_tx == token_tx0) t_->hold_start_ns = t0;
      }
    }
    if (mh_ != nullptr) stamp(now_us);
  }

  void stamp(std::int64_t now_us) {
    while (stamps_.submit_us.size() < mh_->submitted_count()) {
      stamps_.submit_us.push_back(now_us);
    }
    const std::size_t delivered = mh_->deliveries().size();
    if (stamps_.deliver_us.size() == delivered) return;
    stamps_.deliver_us.resize(delivered, now_us);
    if (!done_ && delivered >= expected_) {
      done_ = true;
      if (w_.mhs_done.fetch_add(1) + 1 == w_.n_mh) w_.close(now_us);
    }
  }

  RuntimeNode& role_;
  Window& w_;
  MhRuntime* mh_ = nullptr;
  std::uint64_t expected_ = 0;
  bool done_ = false;
  MhStamps stamps_;
  NodeTrace* t_ = nullptr;
  BrRuntime* br_ = nullptr;
};

// ---------------------------------------------------------------------------
// One repetition: boot, run the script, tear down, check, accumulate.

struct Accum {
  std::vector<Rep> rep_stats;
  std::vector<double> lat_us;  // every delivery, every repetition
  std::vector<double> gen_late_us;
  std::vector<double> own_lat_mismatch_us;  // self-test: outside vs program
  std::uint64_t attempted = 0;
  std::uint64_t missing = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t msgs = 0;  // delivered to every destination
  std::uint64_t deliveries = 0;
  Usage usage;
  RuntimeCounters br_counters;
  RuntimeCounters mh_counters;
  std::uint64_t assigned = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t malformed = 0;
  std::size_t reps = 0;
  std::size_t incomplete_reps = 0;
  std::uint64_t port_collisions = 0;  // duplicate ephemeral ports re-bound
  std::string violation;
  // Traced runs only.
  std::vector<std::unique_ptr<NodeTrace>> traces;
  double node_lifetime_s = 0.0;  // summed over nodes
};

struct Deployment {
  std::vector<NodeId> brs, aps, mhs, all;
  std::vector<std::size_t> sources;  // MH indices that submit
  std::vector<std::int64_t> phase_us;
  std::uint32_t msgs_per_source = 0;
};

Deployment plan(const Shape& s, std::uint64_t seed, std::size_t rep) {
  Deployment d;
  for (std::size_t i = 0; i < s.brs; ++i) {
    d.brs.push_back(NodeId::make(Tier::BR, static_cast<std::uint32_t>(i)));
  }
  const std::size_t n_ap = s.brs * s.aps_per_br;
  for (std::size_t a = 0; a < n_ap; ++a) {
    d.aps.push_back(NodeId::make(Tier::AP, static_cast<std::uint32_t>(a)));
  }
  for (std::size_t m = 0; m < n_ap * s.mhs_per_ap; ++m) {
    d.mhs.push_back(NodeId::make(Tier::MH, static_cast<std::uint32_t>(m)));
  }
  d.all = d.brs;
  d.all.insert(d.all.end(), d.aps.begin(), d.aps.end());
  d.all.insert(d.all.end(), d.mhs.begin(), d.mhs.end());

  // The seed picks which MH in each cell is the source (fanout) and each
  // source's phase within one period; a repetition index varies both so
  // repetitions of one run are not replicas of each other.
  SeedRng rng(seed * 0x100000001B3ull + rep);
  const std::int64_t period = period_us(s.rate_hz);
  d.phase_us.assign(d.mhs.size(), 0);
  for (std::size_t a = 0; a < n_ap; ++a) {
    if (s.one_source_per_ap) {
      d.sources.push_back(a * s.mhs_per_ap + rng.below(s.mhs_per_ap));
    } else {
      for (std::size_t k = 0; k < s.mhs_per_ap; ++k) {
        d.sources.push_back(a * s.mhs_per_ap + k);
      }
    }
  }
  for (std::size_t m : d.sources) {
    d.phase_us[m] = static_cast<std::int64_t>(rng.below(static_cast<std::uint64_t>(period)));
  }
  d.msgs_per_source = static_cast<std::uint32_t>(s.rate_hz * s.script_s);
  return d;
}

void run_rep(const Shape& s, const Deployment& dep, bool traced,
             std::uint64_t trace_seed, Accum& acc) {
  const HostCpu host0 = HostCpu::now();
  const std::size_t n_br = dep.brs.size();
  const std::size_t n_ap = dep.aps.size();
  const std::size_t n_mh = dep.mhs.size();
  const std::size_t n_src = dep.sources.size();
  const std::uint64_t per_mh_expected =
      static_cast<std::uint64_t>(n_src) * dep.msgs_per_source;
  RuntimeOptions opts;  // the program's defaults

  util::WallClock clock;
  Window win;
  win.n_mh = n_mh;
  const std::int64_t boot_us = clock.now_us();

  // Sockets first: every transport bound and the address book complete
  // before any loop starts, exactly as the orchestrator does.
  auto book = std::make_shared<AddressBook>();
  std::vector<NodeId> ids = dep.all;
  ids.push_back(kSupervisorId);
  std::vector<std::unique_ptr<UdpTransport>> udp;
  std::set<std::uint16_t> ports;
  for (NodeId id : ids) {
    // UdpTransport sets SO_REUSEADDR before binding port 0, and Linux may
    // then hand out a port another SO_REUSEADDR socket of this deployment
    // already holds: both nodes share one address and one of them never
    // receives anything. Bind again until the address is unique (the
    // sockets holding taken ports stay open meanwhile) and count it.
    std::vector<std::unique_ptr<UdpTransport>> rejected;
    auto t = std::make_unique<UdpTransport>(id, book);
    while (!ports.insert(t->local_endpoint().port).second) {
      ++acc.port_collisions;
      rejected.push_back(std::move(t));
      t = std::make_unique<UdpTransport>(id, book);
    }
    book->set(id, t->local_endpoint());
    udp.push_back(std::move(t));
  }
  std::vector<std::unique_ptr<NodeTrace>> traces;
  std::vector<std::unique_ptr<TracedTransport>> wrapped;
  std::vector<Transport*> tr;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!traced) {
      tr.push_back(udp[i].get());
      continue;
    }
    const Role role = i < n_br                ? Role::Br
                      : i < n_br + n_ap       ? Role::Ap
                      : i < n_br + n_ap + n_mh ? Role::Mh
                                               : Role::Ss;
    traces.push_back(std::make_unique<NodeTrace>(role, ids[i], trace_seed + i));
    wrapped.push_back(std::make_unique<TracedTransport>(std::move(udp[i]), *traces.back()));
    tr.push_back(wrapped.back().get());
  }

  std::vector<std::unique_ptr<BrRuntime>> br_nodes;
  std::vector<std::unique_ptr<ApRuntime>> ap_nodes;
  std::vector<std::unique_ptr<MhRuntime>> mh_nodes;
  for (std::size_t i = 0; i < n_br; ++i) {
    BrConfig cfg;
    cfg.self = dep.brs[i];
    cfg.ss = kSupervisorId;
    cfg.ring = dep.brs;
    for (std::size_t a = i * s.aps_per_br; a < (i + 1) * s.aps_per_br; ++a) {
      cfg.own_aps.push_back(dep.aps[a]);
      for (std::size_t k = 0; k < s.mhs_per_ap; ++k) {
        cfg.members.push_back(dep.mhs[a * s.mhs_per_ap + k]);
        cfg.member_ap.push_back(dep.aps[a]);
      }
    }
    cfg.opts = opts;
    br_nodes.push_back(std::make_unique<BrRuntime>(std::move(cfg), *tr[i]));
  }
  for (std::size_t a = 0; a < n_ap; ++a) {
    ApConfig cfg;
    cfg.self = dep.aps[a];
    cfg.br = dep.brs[a / s.aps_per_br];
    cfg.ss = kSupervisorId;
    for (std::size_t k = 0; k < s.mhs_per_ap; ++k) {
      cfg.attached.push_back(dep.mhs[a * s.mhs_per_ap + k]);
    }
    cfg.opts = opts;
    ap_nodes.push_back(std::make_unique<ApRuntime>(std::move(cfg), *tr[n_br + a]));
  }
  std::vector<bool> is_source(n_mh, false);
  for (std::size_t m : dep.sources) is_source[m] = true;
  for (std::size_t m = 0; m < n_mh; ++m) {
    MhConfig cfg;
    cfg.self = dep.mhs[m];
    cfg.source_id = NodeId{static_cast<std::uint32_t>(m)};
    cfg.ap = dep.aps[m / s.mhs_per_ap];
    cfg.ss = kSupervisorId;
    cfg.rate_hz = s.rate_hz;
    cfg.msgs_to_send = is_source[m] ? dep.msgs_per_source : 0;
    cfg.expected_total = per_mh_expected;
    cfg.submit_phase_us = dep.phase_us[m];
    cfg.opts = opts;
    mh_nodes.push_back(std::make_unique<MhRuntime>(std::move(cfg), *tr[n_br + n_ap + m]));
  }
  SsConfig ss_cfg;
  ss_cfg.self = kSupervisorId;
  ss_cfg.all_nodes = dep.all;
  ss_cfg.expected_ready = dep.all.size();
  ss_cfg.expected_done = n_mh;
  ss_cfg.opts = opts;
  SsRuntime ss(ss_cfg, *tr.back());

  std::vector<RuntimeNode*> roles;
  for (auto& n : br_nodes) roles.push_back(n.get());
  for (auto& n : ap_nodes) roles.push_back(n.get());
  for (auto& n : mh_nodes) roles.push_back(n.get());
  roles.push_back(&ss);
  std::vector<std::unique_ptr<Probe>> probes;
  std::vector<std::unique_ptr<NodeLoop>> loops;
  for (std::size_t i = 0; i < roles.size(); ++i) {
    const bool is_mh = i >= n_br + n_ap && i < n_br + n_ap + n_mh;
    RuntimeNode* node = roles[i];
    if (is_mh || traced) {
      probes.push_back(std::make_unique<Probe>(*roles[i], win));
      if (is_mh) probes.back()->stamp_mh(*mh_nodes[i - n_br - n_ap], per_mh_expected);
      if (traced) probes.back()->trace(*traces[i], i < n_br ? br_nodes[i].get() : nullptr);
      node = probes.back().get();
    }
    loops.push_back(std::make_unique<NodeLoop>(*node, *tr[i], clock, 1000));
  }
  const std::int64_t loops_start_us = clock.now_us();
  for (auto& loop : loops) loop->start();

  const std::int64_t deadline_us =
      boot_us + static_cast<std::int64_t>(s.deadline_s * 1e6);
  while (!win.closed.load() && clock.now_us() < deadline_us) clock.sleep_us(500);
  win.close(clock.now_us());  // no-op unless the deadline expired
  const bool completed = win.mhs_done.load() == n_mh;
  ss.request_stop();
  for (auto& loop : loops) loop->stop();
  const std::int64_t loops_stop_us = clock.now_us();
  Rep rep;
  rep.steal = HostCpu::now().steal_share_since(host0);

  // Loops joined: every node, probe and trace is now safe to read.
  ++acc.reps;
  if (!completed) ++acc.incomplete_reps;
  if (!win.opened.load()) {
    acc.violation = "deployment never started (no Start reached an MH)";
    acc.attempted += per_mh_expected * n_mh;
    acc.missing += per_mh_expected * n_mh;
    return;
  }
  rep.setup_s = static_cast<double>(win.start_us - boot_us) / 1e6;

  const std::int64_t period = period_us(s.rate_hz);
  const std::size_t lat_begin = acc.lat_us.size();
  const auto due_us = [&](std::size_t src, LocalSeq lseq) {
    const std::size_t probe = src + (traced ? n_br + n_ap : 0);
    return probes[probe]->stamps().start_us + dep.phase_us[src] +
           static_cast<std::int64_t>(lseq) * period;
  };
  core::DeliveryLog log;
  log.reset(dep.mhs);
  // Per (source slot, lseq): how many MHs delivered it.
  std::vector<std::size_t> slot_of(n_mh, 0);
  for (std::size_t k = 0; k < n_src; ++k) slot_of[dep.sources[k]] = k;
  std::vector<std::uint32_t> reach(n_src * dep.msgs_per_source, 0);
  std::vector<std::uint8_t> seen(reach.size());
  for (std::size_t m = 0; m < n_mh; ++m) {
    const MhRuntime& mh = *mh_nodes[m];
    const MhStamps& st = probes[m + (traced ? n_br + n_ap : 0)]->stamps();
    std::fill(seen.begin(), seen.end(), 0);
    const auto& recs = mh.deliveries();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const DeliveredRec& r = recs[i];
      log.record(dep.mhs[m], r.gseq, r.source, r.lseq);
      const std::size_t src = r.source.v;
      if (src >= n_mh || !is_source[src] || r.lseq >= dep.msgs_per_source) {
        ++acc.duplicates;  // not a message anyone submitted
        continue;
      }
      const std::size_t idx = slot_of[src] * dep.msgs_per_source + r.lseq;
      if (seen[idx] != 0) {
        ++acc.duplicates;
        continue;
      }
      seen[idx] = 1;
      ++reach[idx];
      if (i >= st.deliver_us.size()) continue;
      acc.lat_us.push_back(static_cast<double>(st.deliver_us[i] - due_us(src, r.lseq)));
    }
    for (std::uint8_t x : seen) {
      if (x == 0) ++acc.missing;
    }
    // Self-test: a source's own deliveries, timed from the stamped actual
    // submit, must match the program's own latencies_us().
    std::size_t own_deliveries = 0;
    for (const DeliveredRec& r : recs) own_deliveries += r.source.v == m ? 1 : 0;
    if (is_source[m] && own_deliveries == mh.latencies_us().size()) {
      const auto& own = mh.latencies_us();
      std::size_t j = 0;
      for (std::size_t i = 0; i < recs.size() && j < own.size(); ++i) {
        if (recs[i].source.v != m || recs[i].lseq >= st.submit_us.size()) continue;
        const double outside = static_cast<double>(st.deliver_us[i] - st.submit_us[recs[i].lseq]);
        acc.own_lat_mismatch_us.push_back(std::abs(outside - static_cast<double>(own[j++])));
      }
    }
    if (is_source[m]) {
      for (std::size_t l = 0; l < st.submit_us.size(); ++l) {
        acc.gen_late_us.push_back(static_cast<double>(st.submit_us[l] - due_us(m, l)));
      }
    }
    acc.deliveries += recs.size();
    const RuntimeCounters c = mh.counters();
    acc.mh_counters.merge(c);
    acc.malformed += c.malformed;
  }
  if (const auto v = log.check_total_order(); v && acc.violation.empty()) {
    acc.violation = "total order: " + *v;
  }
  rep.lat_us.assign(acc.lat_us.begin() + static_cast<std::ptrdiff_t>(lat_begin),
                    acc.lat_us.end());
  acc.attempted += per_mh_expected * n_mh;
  std::uint64_t complete = 0;
  for (std::uint32_t r : reach) {
    if (r == n_mh) ++complete;
  }
  acc.msgs += complete;

  const double window_s = static_cast<double>(win.end_us - win.start_us) / 1e6;
  const Usage used = win.end_usage - win.start_usage;
  acc.usage += used;
  std::uint64_t rx = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Transport& t = traced ? static_cast<Transport&>(wrapped[i]->inner()) : *udp[i];
    acc.frames_sent += t.sent();
    rx += t.received();
    acc.send_failures += t.send_failures();
    acc.malformed += t.dropped_malformed();
  }
  acc.frames_received += rx;
  rep.goodput_msgs_s = per(static_cast<double>(complete), window_s);
  rep.cpu_us_per_msg = per(used.cpu_us(), static_cast<double>(complete));
  rep.events_s = per(static_cast<double>(rx), window_s);
  acc.rep_stats.push_back(rep);
  for (const auto& n : br_nodes) {
    acc.br_counters.merge(n->counters());
    acc.assigned += n->assigned();
  }
  for (const auto& n : br_nodes) acc.malformed += n->counters().malformed;
  for (const auto& n : ap_nodes) acc.malformed += n->counters().malformed;
  if (traced) {
    acc.node_lifetime_s +=
        static_cast<double>(loops_stop_us - loops_start_us) / 1e6 * static_cast<double>(ids.size());
    for (auto& t : traces) acc.traces.push_back(std::move(t));
  }
}

Accum run_for(const Shape& s, std::uint64_t seed, double seconds, bool traced,
              std::size_t rep_base) {
  Accum acc;
  repeat_for(seconds, [&](std::size_t rep) {
    run_rep(s, plan(s, seed, rep_base + rep), traced, seed + rep, acc);
  });
  return acc;
}

void check(const Accum& acc, Outcome& out) {
  out.attempted += acc.attempted;
  out.failed += acc.missing + acc.duplicates;
  if (!acc.violation.empty()) out.fail(acc.violation);
}

void add_end_to_end(const Accum& acc, Outcome& out) {
  out.end_to_end = end_to_end(acc.rep_stats, out.notes);
  std::vector<double> lat = acc.lat_us;
  const std::uint64_t n = lat.size();
  char line[256];
  std::snprintf(line, sizeof line,
                "diagnostic lat_p999_us %.1f us over %llu deliveries (%llu beyond it); ungated",
                quantile(lat, 0.999), static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(n / 1000));
  out.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "reps %zu (incomplete %zu, port collisions re-bound %llu), ordered msgs %llu, "
                "deliveries %llu, missing %llu, duplicates %llu",
                acc.reps, acc.incomplete_reps, static_cast<unsigned long long>(acc.port_collisions),
                static_cast<unsigned long long>(acc.msgs),
                static_cast<unsigned long long>(acc.deliveries),
                static_cast<unsigned long long>(acc.missing),
                static_cast<unsigned long long>(acc.duplicates));
  out.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "token regen %llu, token retx %llu, dup destroyed %llu, uplink retx %llu, "
                "send failures %llu, malformed %llu, failure share %.6f",
                static_cast<unsigned long long>(acc.br_counters.token_regenerated),
                static_cast<unsigned long long>(acc.br_counters.token_retx),
                static_cast<unsigned long long>(acc.br_counters.token_dup_destroyed),
                static_cast<unsigned long long>(acc.mh_counters.uplink_retx),
                static_cast<unsigned long long>(acc.send_failures),
                static_cast<unsigned long long>(acc.malformed),
                per(static_cast<double>(acc.missing + acc.duplicates),
                    static_cast<double>(acc.attempted)));
  out.notes.push_back(line);
}

void add_per_layer(Accum& acc, double untraced_cpu_per_msg, Outcome& out) {
  const double msgs = static_cast<double>(acc.msgs);
  std::vector<double> handoff, holds, rotation, assign_wait;
  double br_self = 0, ap_self = 0, mh_self = 0, send_ns = 0, sends = 0, bytes = 0;
  double oversize = 0, ticks = 0;
  std::uint64_t tok_bytes = 0, tok_rows = 0;
  CapturedFrames frames;
  for (auto& tp : acc.traces) {
    NodeTrace& t = *tp;
    const std::size_t n = std::min(t.rx_ns.size(), t.dispatch_ns.size());
    for (std::size_t k = 0; k < n; ++k) {
      handoff.push_back(static_cast<double>(t.dispatch_ns[k] - t.rx_ns[k]) / 1e3);
    }
    const double self_us = static_cast<double>(t.handler_ns) / 1e3;
    if (t.role == Role::Br) br_self += self_us;
    if (t.role == Role::Ap) ap_self += self_us;
    if (t.role == Role::Mh) mh_self += self_us;
    send_ns += static_cast<double>(t.send_syscall_ns);
    sends += static_cast<double>(t.sends);
    bytes += static_cast<double>(t.frame_bytes);
    oversize += static_cast<double>(t.oversize);
    ticks += static_cast<double>(t.ticks);
    tok_bytes = std::max(tok_bytes, t.token_bytes_max);
    tok_rows = std::max(tok_rows, t.token_rows_max);
    holds.insert(holds.end(), t.hold_us.begin(), t.hold_us.end());
    if (t.role == Role::Br && t.self.index() == 0) {
      for (std::size_t k = 1; k < t.accept_ns.size(); ++k) {
        rotation.push_back(static_cast<double>(t.accept_ns[k] - t.accept_ns[k - 1]) / 1e3);
      }
    }
    for (const auto& [key, index] : t.uplink_rx_index) {
      const auto tx = t.ordered_tx_ns.find(key);
      if (tx == t.ordered_tx_ns.end() || index >= t.rx_ns.size()) continue;
      assign_wait.push_back(static_cast<double>(tx->second - t.rx_ns[index]) / 1e3);
    }
    for (auto& f : t.cap_data.items()) frames.data.push_back(std::move(f));
    for (auto& f : t.cap_token.items()) frames.token.push_back(std::move(f));
    for (auto& f : t.cap_other.items()) frames.other.push_back(std::move(f));
  }
  const Usage& u = acc.usage;
  const double cpu_per_msg = per(u.cpu_us(), msgs);
  const double deliveries = static_cast<double>(acc.deliveries);
  const auto n_of = [](const std::vector<double>& v) { return static_cast<std::uint64_t>(v.size()); };
  out.per_layer = {
      {"transport.frames_per_msg", per(static_cast<double>(acc.frames_sent), msgs), "count", acc.msgs},
      {"transport.bytes_per_msg", per(bytes, msgs), "B", acc.msgs},
      {"transport.send_us.mean", per(send_ns / 1e3, sends), "us", static_cast<std::uint64_t>(sends)},
      {"transport.oversize_frames", oversize, "count", static_cast<std::uint64_t>(sends)},
      {"transport.send_failures", static_cast<double>(acc.send_failures), "count", static_cast<std::uint64_t>(sends)},
      {"transport.malformed", static_cast<double>(acc.malformed), "count", acc.frames_received},
      {"loop.handoff_us.p50", quantile(handoff, 0.50), "us", n_of(handoff)},
      {"loop.handoff_us.p99", quantile(handoff, 0.99), "us", n_of(handoff)},
      {"loop.csw_per_msg", per(u.csw, msgs), "count", acc.msgs},
      {"loop.sys_user_ratio", per(u.sys_us, u.user_us), "ratio", acc.reps},
      {"loop.ticks_per_s", per(ticks, acc.node_lifetime_s), "1/s", static_cast<std::uint64_t>(ticks)},
      {"br.self_us_per_msg", per(br_self, msgs), "us", acc.msgs},
      {"ap.self_us_per_msg", per(ap_self, msgs), "us", acc.msgs},
      {"mh.self_us_per_delivery", per(mh_self, deliveries), "us", acc.deliveries},
      {"br.token_hold_us.p50", quantile(holds, 0.50), "us", n_of(holds)},
      {"br.token_rotation_us.p50", quantile(rotation, 0.50), "us", n_of(rotation)},
      {"br.assign_wait_us.p50", quantile(assign_wait, 0.50), "us", n_of(assign_wait)},
      {"br.assign_wait_us.p99", quantile(assign_wait, 0.99), "us", n_of(assign_wait)},
      {"br.msgs_per_hold", per(static_cast<double>(acc.assigned), static_cast<double>(acc.br_counters.tokens_held)), "count", acc.br_counters.tokens_held},
      {"arq.token_retx", static_cast<double>(acc.br_counters.token_retx), "count", acc.reps},
      {"arq.token_regen", static_cast<double>(acc.br_counters.token_regenerated), "count", acc.reps},
      {"arq.dup_destroyed", static_cast<double>(acc.br_counters.token_dup_destroyed), "count", acc.reps},
      {"arq.uplink_retx_per_msg", per(static_cast<double>(acc.mh_counters.uplink_retx), msgs), "count", acc.msgs},
      {"mh.gen_late_us.p99", quantile(acc.gen_late_us, 0.99), "us", n_of(acc.gen_late_us)},
      {"proto.token_bytes.max", static_cast<double>(tok_bytes), "B", n_of(holds)},
      {"proto.token_rows.max", static_cast<double>(tok_rows), "count", n_of(holds)},
      {"trace.overhead", per(cpu_per_msg, untraced_cpu_per_msg) - 1.0, "ratio", acc.msgs},
  };
  replay_codec(frames, out);
}

void add_overload(Accum& acc, Outcome& out) {
  std::uint64_t oversize = 0, tok_bytes = 0;
  for (const auto& t : acc.traces) {
    oversize += t->oversize;
    tok_bytes = std::max(tok_bytes, t->token_bytes_max);
  }
  const double msgs = static_cast<double>(acc.msgs);
  const double failures = static_cast<double>(acc.missing + acc.duplicates);
  out.per_layer.insert(out.per_layer.end(), {
      {"overload.goodput_msgs_s", acc.rep_stats.empty() ? 0.0 : acc.rep_stats.front().goodput_msgs_s, "msgs/s", acc.msgs},
      {"overload.token_regen", static_cast<double>(acc.br_counters.token_regenerated), "count", acc.reps},
      {"overload.token_retx", static_cast<double>(acc.br_counters.token_retx), "count", acc.reps},
      {"overload.dup_destroyed", static_cast<double>(acc.br_counters.token_dup_destroyed), "count", acc.reps},
      {"overload.oversize_frames", static_cast<double>(oversize), "count", acc.reps},
      {"overload.send_failures", static_cast<double>(acc.send_failures), "count", acc.reps},
      {"overload.malformed", static_cast<double>(acc.malformed), "count", acc.reps},
      {"overload.token_bytes.max", static_cast<double>(tok_bytes), "B", acc.reps},
      {"overload.msgs_per_hold", per(static_cast<double>(acc.assigned), static_cast<double>(acc.br_counters.tokens_held)), "count", acc.br_counters.tokens_held},
      {"overload.uplink_retx_per_msg", per(static_cast<double>(acc.mh_counters.uplink_retx), msgs), "count", acc.msgs},
      {"overload.failure_share", per(failures, static_cast<double>(acc.attempted)), "ratio", acc.attempted},
  });
}

}  // namespace

Outcome run_udp_workload(const std::string& name, std::uint64_t seed,
                         double seconds, bool traced) {
  const Shape& s = *find_shape(name);
  Outcome out;
  if (!traced) {
    Accum acc = run_for(s, seed, seconds, false, 0);
    check(acc, out);
    add_end_to_end(acc, out);
    std::vector<double> mismatch = acc.own_lat_mismatch_us;
    char line[160];
    std::snprintf(line, sizeof line,
                  "selftest own-latency max |outside - latencies_us()| = %.0f us over %zu",
                  mismatch.empty() ? 0.0 : quantile(mismatch, 1.0), mismatch.size());
    out.notes.push_back(line);
    return out;
  }
  // Traced: an untraced baseline for the overhead, then the traced run; on
  // ring also one traced repetition of the overload script.
  const bool overload = name == "ring";
  const double share = overload ? seconds / 4 : seconds / 2;
  Accum base = run_for(s, seed, share, false, 0);
  Accum acc = run_for(s, seed, share, true, 1000);
  check(base, out);
  check(acc, out);
  add_per_layer(acc, per(base.usage.cpu_us(), static_cast<double>(base.msgs)), out);
  if (overload) {
    Accum over;
    run_rep(kOverload, plan(kOverload, seed, 2000), true, seed, over);
    check(over, out);
    add_overload(over, out);
  }
  return out;
}

}  // namespace perfbench
