#include "runtime/node.hpp"

#include <algorithm>
#include <utility>

#include "core/groups.hpp"
#include "obs/names.hpp"

namespace ringnet::runtime {

namespace names = obs::names;

RuntimeCounters RuntimeCounters::read(const obs::Metrics& m) {
  RuntimeCounters c;
  c.tokens_held = m.counter(names::kTokenHeld);
  c.token_regenerated = m.counter(names::kTokenRegenerated);
  c.token_dup_destroyed = m.counter(names::kTokenDupDestroyed);
  c.token_retx = m.counter(names::kTokenRetx);
  c.token_dropped = m.counter(names::kTokenDropped);
  c.retransmits = m.counter(names::kRetransmits);
  c.floor_advances = m.counter(names::kFloorAdvances);
  c.duplicates = m.counter(names::kDuplicates);
  c.acks_sent = m.counter(names::kAcksSent);
  c.uplink_retx = m.counter(names::kUplinkRetx);
  c.uplink_dropped = m.counter(names::kUplinkDropped);
  c.really_lost = m.counter(names::kGapSkippedMsgs);
  c.gaps_skipped = m.counter(names::kGapsSkipped);
  c.malformed = m.counter(names::kMalformed);
  return c;
}

namespace {
/// Downlink/peer resend batch per ack: bounds the burst a single stuck
/// member can trigger while still closing multi-message gaps quickly.
constexpr GlobalSeq kResendWindow = 64;
constexpr std::size_t kUplinkPendingCap = 4096;
// Consecutive no-progress acks before a member counts as stalled. One
// stalled ack is routinely just pipeline lag (deliveries in flight through
// the AP); resyncing on it floods the cell with duplicates, and the storm
// feeds back into deeper inboxes and more apparent stalls.
constexpr std::uint32_t kStallAckLimit = 4;
}  // namespace

void RuntimeOptions::scale_timers(double f) {
  const auto scale = [f](std::int64_t& us) {
    us = static_cast<std::int64_t>(static_cast<double>(us) * f);
  };
  scale(token_hold_us);
  scale(ack_period_us);
  scale(heartbeat_period_us);
  scale(retx_timeout_us);
  scale(handshake_resend_us);
}

void RuntimeCounters::merge(const RuntimeCounters& o) {
  tokens_held += o.tokens_held;
  token_regenerated += o.token_regenerated;
  token_dup_destroyed += o.token_dup_destroyed;
  token_retx += o.token_retx;
  token_dropped += o.token_dropped;
  retransmits += o.retransmits;
  floor_advances += o.floor_advances;
  duplicates += o.duplicates;
  acks_sent += o.acks_sent;
  uplink_retx += o.uplink_retx;
  uplink_dropped += o.uplink_dropped;
  really_lost += o.really_lost;
  gaps_skipped += o.gaps_skipped;
  malformed += o.malformed;
}

// ---------------------------------------------------------------------------
// BrRuntime

BrRuntime::BrRuntime(BrConfig cfg, Transport& tr)
    : cfg_(std::move(cfg)), tr_(tr) {
  for (std::size_t i = 0; i < cfg_.members.size(); ++i) {
    Member m;
    m.ap = cfg_.member_ap[i];
    if (multi()) {
      m.groups = core::member_groups(cfg_.members[i].index(), cfg_.groups);
    }
    members_[cfg_.members[i].v] = std::move(m);
  }
}

NodeId BrRuntime::next_br() const {
  for (std::size_t i = 0; i < cfg_.ring.size(); ++i) {
    if (cfg_.ring[i] == cfg_.self) {
      return cfg_.ring[(i + 1) % cfg_.ring.size()];
    }
  }
  return cfg_.self;
}

void BrRuntime::on_start(std::int64_t now_us) {
  last_token_seen_us_ = now_us;
  next_hb_us_ = now_us + cfg_.opts.heartbeat_period_us;
  next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
  if (leader()) {
    // The leader seeds the first token; peer sockets are already bound (the
    // orchestrator binds every transport before starting any loop), so the
    // forward ARQ covers peers whose loops lag behind.
    accept_token(high_water_.token(kRuntimeGroup, epoch_, 1), now_us);
  }
}

void BrRuntime::on_datagram(const Datagram& d, std::int64_t now_us) {
  if (d.kind == FrameKind::Control) {
    const auto ctl = decode_control(d.payload.data(), d.payload.size());
    if (!ctl) {
      metrics_.incr(names::kMalformed);
      return;
    }
    if (ctl->op == ControlOp::Start) start_seen_ = true;
    if (ctl->op == ControlOp::Stop) {
      stop_seen_.store(true, std::memory_order_release);
    }
    return;
  }
  handle_proto(d, now_us);
}

void BrRuntime::handle_proto(const Datagram& d, std::int64_t now_us) {
  auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (!msg) {
    metrics_.incr(names::kMalformed);
    return;
  }
  switch (msg->type()) {
    case proto::MsgType::Data: {
      const proto::DataMsg& dm = msg->data();
      if (dm.ordering_node.valid()) {
        store_and_forward_ordered(dm, now_us);
      } else {
        handle_uplink(dm, now_us);
      }
      break;
    }
    case proto::MsgType::Token:
      handle_token(msg->token(), d.src, now_us);
      break;
    case proto::MsgType::TokenAck: {
      const proto::TokenAckMsg& ack = msg->token_ack();
      if (await_.active && ack.serial == await_.serial &&
          ack.rotation == await_.rotation) {
        await_.active = false;
      }
      break;
    }
    case proto::MsgType::DeliveryAck:
      handle_member_ack(msg->ack(), now_us);
      break;
    case proto::MsgType::Membership: {
      const proto::MembershipMsg& mm = msg->membership();
      for (const auto& ev : mm.events) {
        if (!ev.ap.valid()) {
          members_.erase(ev.mh.v);
          continue;
        }
        const bool ours = std::find(cfg_.own_aps.begin(), cfg_.own_aps.end(),
                                    ev.ap) != cfg_.own_aps.end();
        if (!ours) continue;
        Member fresh;
        fresh.ap = ev.ap;
        auto [it, inserted] =
            members_.try_emplace(ev.mh.v, std::move(fresh));
        if (!inserted) {
          it->second.ap = ev.ap;  // handoff: keep the watermark
        } else if (multi()) {
          it->second.groups =
              core::member_groups(ev.mh.index(), cfg_.groups);
        }
      }
      if (d.src.tier() == Tier::AP) {
        for (NodeId peer : cfg_.ring) {
          if (peer != cfg_.self) tr_.send_msg(peer, proto::Message(mm));
        }
      }
      break;
    }
    case proto::MsgType::Heartbeat:
      break;
  }
}

void BrRuntime::handle_uplink(const proto::DataMsg& msg, std::int64_t now_us) {
  SourceIn& si = uplink_[msg.source.v];
  if (msg.lseq < si.next_expected) {
    metrics_.incr(names::kDuplicates);
    ack_uplink(msg.source, si);
    return;
  }
  // Span stamp: first reception of each uplink. The stamp rides the sim-only
  // (non-serialized) DataMsg field through wq_/pending until assignment,
  // where it lands in span_assigned_.
  const bool spans = cfg_.opts.record_spans;
  if (msg.lseq == si.next_expected) {
    wq_.push_back(msg);
    if (spans) wq_.back().uplink_rx_at.us = now_us;
    ++si.next_expected;
    auto it = si.pending.find(si.next_expected);
    while (it != si.pending.end()) {
      wq_.push_back(std::move(it->second));
      si.pending.erase(it);
      ++si.next_expected;
      it = si.pending.find(si.next_expected);
    }
    ack_uplink(msg.source, si);
    return;
  }
  if (si.pending.size() >= kUplinkPendingCap &&
      !si.pending.contains(msg.lseq)) {
    metrics_.incr(names::kUplinkShed);  // the source's ARQ re-offers it
    return;
  }
  const auto [it, inserted] = si.pending.emplace(msg.lseq, msg);
  if (!inserted) {
    metrics_.incr(names::kDuplicates);
  } else if (spans) {
    it->second.uplink_rx_at.us = now_us;
  }
}

void BrRuntime::ack_uplink(NodeId source, const SourceIn& si) {
  // Multi-group mode only: a source need not be a member of its messages'
  // destination groups, so seeing its own submission come back ordered (the
  // legacy uplink-ARQ exit) is no longer guaranteed. Ack the contiguously
  // accepted prefix instead; duplicates re-trigger it, covering a lost ack.
  if (!multi()) return;
  const auto it = members_.find(NodeId::make(Tier::MH, source.index()).v);
  if (it == members_.end()) return;
  tr_.send_msg(it->second.ap,
               proto::Message(proto::DeliveryAckMsg{
                   kRuntimeGroup, NodeId::make(Tier::MH, source.index()),
                   si.next_expected}),
               NodeId::make(Tier::MH, source.index()));
}

void BrRuntime::store_and_forward_ordered(const proto::DataMsg& msg,
                                          std::int64_t now_us) {
  // Fast epoch fencing: an ordered message from a newer epoch proves a
  // regeneration happened, so any older token still circulating must be
  // destroyed on sight even before the new token reaches us.
  epoch_ = std::max(epoch_, msg.epoch);
  // Liveness witness: a current-epoch assignment can only come from the
  // live token, so the regeneration watchdog must not fire merely because
  // the token itself is crawling behind storm-deep inboxes.
  if (msg.epoch == epoch_) last_token_seen_us_ = now_us;
  if (!mq_.store(msg, sim::SimTime{now_us})) {
    metrics_.incr(names::kDuplicates);
    return;
  }
  // Span stamp: first ordered arrival of this gseq at the relay endpoint
  // for this BR's subtree (emplace keeps the earliest arrival).
  if (cfg_.opts.record_spans) span_relay_rx_us_.emplace(msg.gseq, now_us);
  high_water_.witness(msg);
  // Keep the newest mq_retention gseqs, acked or not: a BR hole is pulled
  // from a peer's MQ, and nothing keeps that copy until this BR's members
  // have acked it.
  const GlobalSeq newest = high_water_.next_gseq();
  const GlobalSeq keep = cfg_.opts.mq_retention;
  if (newest > keep) mq_.skip_to(newest - keep);
  if (multi()) {
    // Chain links must rise monotonically per member, so chain forwarding
    // walks the MQ in gseq order; an out-of-order peer distribution parks
    // in the MQ until the hole fills (peer pull closes persistent holes).
    chain_next_ = std::max(chain_next_, mq_.next_expected());
    while (const proto::DataMsg* next = mq_.find(chain_next_)) {
      forward_chain(*next);
      ++chain_next_;
    }
    return;
  }
  for (NodeId ap : cfg_.own_aps) tr_.send_msg(ap, proto::Message(msg));
}

void BrRuntime::forward_chain(const proto::DataMsg& msg) {
  // Genuine relay: only members whose memberships intersect the message's
  // destination set get a copy, each stamped with its own chain link and
  // addressed through the serving AP (relay target) instead of the legacy
  // cell broadcast.
  for (auto& [id, m] : members_) {
    if (!m.groups.intersects(msg.groups)) continue;
    proto::DataMsg copy = msg;
    // The cap backstops a member that never acks (crashed mid-run): the
    // log stays bounded like the MQ so memory stays flat.
    copy.prev_chain =
        m.chain.stamp(msg.gseq, cfg_.opts.mq_retention + kResendWindow);
    tr_.send_msg(m.ap, proto::Message(copy), NodeId{id});
  }
}

void BrRuntime::handle_token(proto::OrderingToken token, NodeId from,
                             std::int64_t now_us) {
  // Ack every token frame, even duplicates: the sender's ARQ keys on
  // (serial, rotation) and a lost ack must not keep it retransmitting.
  tr_.send_msg(from, proto::Message(proto::TokenAckMsg{
                         cfg_.self, token.serial(), token.rotation()}));
  // Destroy older epochs, and accept only a strictly newer visit of the same
  // lineage: retransmits (same rotation) and stale re-injections (lower
  // rotation) are destroyed too.
  if (token.epoch() < epoch_ ||
      (last_rx_key_.valid && token.epoch() == last_rx_key_.epoch &&
       token.serial() == last_rx_key_.serial &&
       token.rotation() <= last_rx_key_.rotation)) {
    metrics_.incr(names::kTokenDupDestroyed);
    fr_.record(obs::FrEvent::TokenDupDestroyed, now_us, token.serial());
    return;
  }
  epoch_ = std::max(epoch_, token.epoch());
  accept_token(std::move(token), now_us);
}

void BrRuntime::accept_token(proto::OrderingToken token, std::int64_t now_us) {
  // Duplicate-detection key of this visit, taken before the rotation bump.
  last_rx_key_ =
      TokenKey{token.epoch(), token.serial(), token.rotation(), true};
  has_token_ = true;
  token_ = std::move(token);
  last_token_seen_us_ = now_us;
  await_.active = false;  // custody is back; any outstanding forward is moot
  metrics_.incr(names::kTokenHeld);
  fr_.record(obs::FrEvent::TokenRx, now_us, token_.serial(),
             token_.rotation());
  core::accept_token(token_, cfg_.self, leader());
  release_deadline_us_ = now_us + cfg_.opts.token_hold_us;
  assign_staged(now_us);
}

void BrRuntime::assign_staged(std::int64_t now_us) {
  core::assign_all(
      token_, cfg_.self, wq_, high_water_, [&](proto::DataMsg&& m) {
        ++assigned_;
        if (cfg_.opts.record_spans) {
          span_assigned_.push_back(SpanAssignRec{m.source, m.lseq, m.gseq,
                                                 m.uplink_rx_at.us, now_us});
        }
        store_and_forward_ordered(m, now_us);
        for (NodeId peer : cfg_.ring) {
          if (peer != cfg_.self) tr_.send_msg(peer, proto::Message(m));
        }
      });
}

void BrRuntime::release_token(std::int64_t now_us) {
  if (!has_token_) return;
  auto bytes =
      frame(cfg_.self, FrameKind::Proto, proto::encode(proto::Message(token_)));
  await_ = AwaitedAck{true, token_.serial(), token_.rotation(),
                      std::move(bytes), 0,
                      now_us + cfg_.opts.retx_timeout_us};
  tr_.send(next_br(), await_.frame_bytes);
  fr_.record(obs::FrEvent::TokenTx, now_us, token_.serial(), next_br().v);
  has_token_ = false;
}

void BrRuntime::regenerate_token(std::int64_t now_us) {
  ++epoch_;
  metrics_.incr(names::kTokenRegenerated);
  fr_.record(obs::FrEvent::TokenRegen, now_us, epoch_);  // arms an auto-dump
  accept_token(high_water_.token(kRuntimeGroup, epoch_, next_serial_++),
               now_us);
}

void BrRuntime::handle_member_ack(const proto::DeliveryAckMsg& ack,
                                  std::int64_t now_us) {
  if (ack.member.tier() == Tier::BR) {
    // Peer-BR gap repair: a peer lost an ordered frame we assigned and asks
    // for the window starting at its hole. Serve whatever the MQ retains.
    const GlobalSeq end =
        std::min(high_water_.next_gseq(), ack.watermark + kResendWindow);
    for (GlobalSeq g = ack.watermark; g < end; ++g) {
      if (const proto::DataMsg* m = mq_.find(g)) {
        tr_.send_msg(ack.member, proto::Message(*m));
        metrics_.incr(names::kRetransmits);
      }
    }
    return;
  }
  const auto it = members_.find(ack.member.v);
  if (it == members_.end()) return;
  Member& m = it->second;
  if (multi()) {
    handle_chain_ack(m, ack.member, ack.watermark, now_us);
    return;
  }
  m.next_expected = std::max(m.next_expected, ack.watermark);
  const bool behind = m.next_expected < high_water_.next_gseq();
  if (!stalled(m, ack.watermark, behind, now_us)) return;
  const GlobalSeq want = m.next_expected;
  fr_.record(obs::FrEvent::StallResync, now_us, ack.member.v, want);
  if (want < mq_.next_expected()) {
    // The MQ no longer retains the member's gap: push its floor forward so
    // it gap-skips (those messages are "really lost" for this member).
    tr_.send_msg(m.ap,
                 proto::Message(proto::DeliveryAckMsg{
                     kRuntimeGroup, ack.member, mq_.next_expected()}),
                 ack.member);
    metrics_.incr(names::kFloorAdvances);
    return;
  }
  bool pull_requested = false;
  std::uint64_t resent = 0;
  const GlobalSeq end =
      std::min(high_water_.next_gseq(), want + kResendWindow);
  for (GlobalSeq g = want; g < end; ++g) {
    if (const proto::DataMsg* dm = mq_.find(g)) {
      tr_.send_msg(m.ap, proto::Message(*dm), ack.member);
      metrics_.incr(names::kRetransmits);
      ++resent;
    } else if (!pull_requested &&
               now_us - last_pull_us_ >= cfg_.opts.retx_timeout_us) {
      // Our own MQ has a hole (a lost peer-BR distribution): ask the ring
      // to refill it before the member can make progress. One pull per
      // retx window for the whole BR — many stalled members share a hole.
      pull_requested = true;
      request_pull(g, now_us);
    }
  }
  if (resent > 0) {
    fr_.record(obs::FrEvent::ArqResend, now_us, ack.member.v, resent);
  }
}

bool BrRuntime::stalled(Member& m, GlobalSeq wm, bool behind,
                        std::int64_t now_us) {
  // Only a *stalled* member needs resync: kStallAckLimit consecutive acks
  // with no watermark progress while it is behind, at most once per retx
  // window. A merely lagging member (deliveries in flight through the AP)
  // would turn every resend into a duplicate at the MH.
  if (!behind || wm > m.prev_ack_wm) {
    m.prev_ack_wm = std::max(m.prev_ack_wm, wm);
    m.stalled_acks = 0;
    return false;
  }
  if (++m.stalled_acks < kStallAckLimit) return false;
  if (now_us - m.last_resend_us < cfg_.opts.retx_timeout_us) return false;
  m.stalled_acks = 0;
  m.last_resend_us = now_us;
  return true;
}

void BrRuntime::request_pull(GlobalSeq g, std::int64_t now_us) {
  if (now_us - last_pull_us_ < cfg_.opts.retx_timeout_us) return;
  last_pull_us_ = now_us;
  for (NodeId peer : cfg_.ring) {
    if (peer != cfg_.self) {
      tr_.send_msg(peer, proto::Message(proto::DeliveryAckMsg{
                             kRuntimeGroup, cfg_.self, g}));
    }
  }
}

void BrRuntime::handle_chain_ack(Member& m, NodeId member, GlobalSeq tail,
                                 std::int64_t now_us) {
  m.next_expected = std::max(m.next_expected, tail);
  // Prune what the member settled. A surviving head that links to a
  // predecessor the member can no longer receive (lost below the floor) is
  // relinked to the tail, so the member gap-skips straight to it.
  if (m.chain.ack(m.next_expected)) {
    metrics_.incr(names::kGapsSkipped);
    fr_.record(obs::FrEvent::ChainSplice, now_us, member.v, m.chain.head());
  }
  // Behind: unacked chain links, or a BR-side chain cursor short of the
  // newest assignment.
  const bool behind =
      !m.chain.empty() || chain_next_ < high_water_.next_gseq();
  if (!stalled(m, tail, behind, now_us)) return;
  if (m.chain.empty()) {
    // The member is current; the BR itself is stuck on an MQ hole at the
    // chain cursor (a lost peer distribution). Pull it from the ring.
    request_pull(chain_next_, now_us);
    return;
  }
  using Verdict = core::ChainLog::Verdict;
  const std::size_t spliced = m.chain.resend(
      kResendWindow,
      [&](GlobalSeq g) {
        if (mq_.contains(g)) return Verdict::Send;
        if (g >= mq_.next_expected()) {
          // MQ hole inside the retained window: refill via peer pull and
          // retry next window — the member can't advance through it anyway.
          request_pull(g, now_us);
          return Verdict::Stop;
        }
        // Below the MQ floor: unrecoverable for this member.
        fr_.record(obs::FrEvent::ChainSplice, now_us, member.v, g);
        return Verdict::Lost;
      },
      [&](GlobalSeq g, GlobalSeq link) {
        proto::DataMsg copy = *mq_.find(g);
        copy.prev_chain = link;
        tr_.send_msg(m.ap, proto::Message(copy), member);
        metrics_.incr(names::kRetransmits);
      });
  if (spliced > 0) {
    metrics_.incr(names::kGapsSkipped);
    metrics_.incr(names::kGapSkippedMsgs, spliced);
  }
}

void BrRuntime::on_tick(std::int64_t now_us) {
  if (!start_seen_ && now_us >= next_ready_us_) {
    tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
    next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  }
  if (has_token_) {
    assign_staged(now_us);  // uplink that arrived during the hold window
    if (now_us >= release_deadline_us_) release_token(now_us);
  }
  if (await_.active && now_us >= await_.next_resend_us) {
    if (await_.attempts >= cfg_.opts.max_retx) {
      await_.active = false;
      metrics_.incr(names::kTokenDropped);  // leader watchdog regenerates
      fr_.record(obs::FrEvent::TokenDropped, now_us, await_.serial);
    } else {
      ++await_.attempts;
      metrics_.incr(names::kTokenRetx);
      fr_.record(obs::FrEvent::TokenRetx, now_us, await_.serial,
                 static_cast<std::uint64_t>(await_.attempts));
      tr_.send(next_br(), await_.frame_bytes);
      await_.next_resend_us = now_us + cfg_.opts.retx_timeout_us;
    }
  }
  if (now_us >= next_hb_us_) {
    tr_.send_msg(cfg_.ss,
                 proto::Message(proto::HeartbeatMsg{cfg_.self, ++hb_beat_}));
    next_hb_us_ = now_us + cfg_.opts.heartbeat_period_us;
  }
  if (leader() && !has_token_ &&
      now_us - last_token_seen_us_ >= cfg_.opts.token_regen_timeout_us()) {
    regenerate_token(now_us);
  }
}

// ---------------------------------------------------------------------------
// ApRuntime

ApRuntime::ApRuntime(ApConfig cfg, Transport& tr)
    : cfg_(std::move(cfg)), tr_(tr), attached_(cfg_.attached) {
  for (NodeId mh : attached_) attached_set_.insert(mh.v);
}

void ApRuntime::on_start(std::int64_t now_us) {
  next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
}

void ApRuntime::on_datagram(const Datagram& d, std::int64_t /*now_us*/) {
  if (d.kind == FrameKind::Control) {
    const auto ctl = decode_control(d.payload.data(), d.payload.size());
    if (!ctl) {
      metrics_.incr(names::kMalformed);
      return;
    }
    if (ctl->op == ControlOp::Start) start_seen_ = true;
    if (ctl->op == ControlOp::Stop) {
      stop_seen_.store(true, std::memory_order_release);
    }
    return;
  }
  if (d.payload.empty()) {
    metrics_.incr(names::kMalformed);
    return;
  }
  // The AP is a store-less relay: it peeks the envelope tag to pick a
  // direction and forwards the payload bytes untouched (no decode/re-encode
  // on the hot path). Only membership deltas are decoded, to track the cell.
  const auto forward = [&](NodeId to) {
    tr_.send(to, frame(cfg_.self, FrameKind::Proto, d.payload));
  };
  const auto type = static_cast<proto::MsgType>(d.payload[0]);
  const bool uplink = d.src.tier() == Tier::MH;
  switch (type) {
    case proto::MsgType::Data:
    case proto::MsgType::DeliveryAck:
      if (uplink) {
        forward(cfg_.br);
      } else if (d.relay.valid()) {
        forward(d.relay);  // targeted retransmission to one member
      } else {
        for (NodeId mh : attached_) forward(mh);
      }
      break;
    case proto::MsgType::Membership: {
      if (!uplink) break;
      const auto msg = proto::decode(d.payload.data(), d.payload.size());
      if (!msg) {
        metrics_.incr(names::kMalformed);
        return;
      }
      for (const auto& ev : msg->membership().events) {
        if (ev.ap == cfg_.self) {
          if (attached_set_.insert(ev.mh.v).second) attached_.push_back(ev.mh);
        } else if (attached_set_.erase(ev.mh.v) != 0) {
          attached_.erase(
              std::remove(attached_.begin(), attached_.end(), ev.mh),
              attached_.end());
        }
      }
      forward(cfg_.br);
      break;
    }
    default:
      break;
  }
}

void ApRuntime::on_tick(std::int64_t now_us) {
  if (!start_seen_ && now_us >= next_ready_us_) {
    tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
    next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  }
}

// ---------------------------------------------------------------------------
// MhRuntime

MhRuntime::MhRuntime(MhConfig cfg, Transport& tr)
    : cfg_(std::move(cfg)), tr_(tr) {
  period_us_ = cfg_.rate_hz > 0
                   ? static_cast<std::int64_t>(1e6 / cfg_.rate_hz)
                   : 0;
}

stats::Histogram MhRuntime::latency_hist() const {
  util::MutexLock lock(lat_mu_);
  return live_lat_;
}

void MhRuntime::on_start(std::int64_t now_us) {
  next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  next_ack_us_ = now_us + cfg_.opts.ack_period_us;
  // Announce attachment up the tree (redundant with boot membership, but it
  // exercises the membership path end to end on every run).
  tr_.send_msg(cfg_.ap,
               proto::Message(proto::MembershipMsg{
                   kRuntimeGroup, cfg_.self, {{cfg_.self, cfg_.ap}}}));
  tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
}

void MhRuntime::on_datagram(const Datagram& d, std::int64_t now_us) {
  if (d.kind == FrameKind::Control) {
    const auto ctl = decode_control(d.payload.data(), d.payload.size());
    if (!ctl) {
      metrics_.incr(names::kMalformed);
      return;
    }
    switch (ctl->op) {
      case ControlOp::Start:
        if (!start_seen_) {
          start_seen_ = true;
          next_submit_us_ = now_us + cfg_.submit_phase_us;
        }
        break;
      case ControlOp::Stop:
        stop_seen_.store(true, std::memory_order_release);
        break;
      default:
        break;
    }
    return;
  }
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (!msg) {
    metrics_.incr(names::kMalformed);
    return;
  }
  switch (msg->type()) {
    case proto::MsgType::Data:
      if (msg->data().ordering_node.valid() &&
          !inbox_.receive(msg->data(), [&](const proto::DataMsg& m) {
            deliver(m, now_us);
          })) {
        metrics_.incr(names::kDuplicates);  // duplicate, or shed past the cap
      }
      break;
    case proto::MsgType::DeliveryAck: {
      const auto& ack = msg->ack();
      if (cfg_.groups.multi()) {
        // Chain mode repurposes the downlink ack as the uplink submit-ack
        // (watermark = lseqs accepted by the BR); chain gaps are closed by
        // the BR rewriting the head link, never by floor pushes.
        if (ack.member == cfg_.self) {
          while (!pending_.empty() &&
                 pending_.front().msg.lseq < ack.watermark) {
            pending_.pop_front();
          }
        }
        break;
      }
      if (ack.member != cfg_.self) break;
      // Floor push: the BR no longer retains gseqs below the watermark.
      // Held frames below it still deliver; the rest are really lost.
      const GlobalSeq lost = inbox_.skip_to(
          ack.watermark,
          [&](const proto::DataMsg& m) { deliver(m, now_us); });
      if (lost > 0) {
        metrics_.incr(names::kGapSkippedMsgs, lost);
        metrics_.incr(names::kGapsSkipped);
        fr_.record(obs::FrEvent::GapSkip, now_us, ack.watermark, lost);
      }
      break;
    }
    default:
      break;
  }
}

void MhRuntime::deliver(const proto::DataMsg& msg, std::int64_t now_us) {
  // Total-order sanity: delivered gseqs must rise strictly. A violation is
  // a protocol bug, so it also arms a flight-recorder dump.
  if (!log_.empty() && msg.gseq <= log_.back().gseq) {
    fr_.record(obs::FrEvent::OrderViolation, now_us, msg.gseq,
               log_.back().gseq);
  }
  log_.push_back(DeliveredRec{msg.gseq, msg.source, msg.lseq});
  if (cfg_.opts.record_spans) deliver_times_us_.push_back(now_us);
  fr_.record(obs::FrEvent::Deliver, now_us, msg.gseq);
  ++delivered_;
  if (msg.source == cfg_.source_id) {
    if (cfg_.groups.multi()) {
      const auto it = submit_times_us_.find(msg.lseq);
      if (it != submit_times_us_.end()) {
        record_latency(now_us - it->second);
        submit_times_us_.erase(it);
      }
      return;
    }
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (it->msg.lseq == msg.lseq) {
        record_latency(now_us - it->submitted_us);
        pending_.erase(it);
        break;
      }
    }
  }
}

void MhRuntime::record_latency(std::int64_t lat_us) {
  lat_us_.push_back(lat_us);
  util::MutexLock lock(lat_mu_);
  live_lat_.record(lat_us < 0 ? 0 : static_cast<std::uint64_t>(lat_us));
}

void MhRuntime::submit_one(std::int64_t now_us) {
  proto::DataMsg m;
  m.gid = kRuntimeGroup;
  m.source = cfg_.source_id;
  m.lseq = next_lseq_++;
  m.payload_size = cfg_.payload_size;
  if (cfg_.groups.multi()) {
    m.groups = core::dest_groups(cfg_.source_id, m.lseq, cfg_.groups);
    if (!m.groups.empty()) m.gid = m.groups[0];
    submit_times_us_.emplace(m.lseq, now_us);
  }
  if (cfg_.opts.record_spans) span_submits_.emplace_back(m.lseq, now_us);
  fr_.record(obs::FrEvent::Submit, now_us, m.lseq);
  pending_.push_back(PendingSubmit{m, now_us, now_us, 0});
  tr_.send_msg(cfg_.ap, proto::Message(m));
  next_submit_us_ += period_us_;
}

void MhRuntime::send_ack() {
  tr_.send_msg(cfg_.ap, proto::Message(proto::DeliveryAckMsg{
                            kRuntimeGroup, cfg_.self, inbox_.tail()}));
  metrics_.incr(names::kAcksSent);
}

void MhRuntime::on_tick(std::int64_t now_us) {
  if (!start_seen_ && now_us >= next_ready_us_) {
    tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Ready, 0});
    next_ready_us_ = now_us + cfg_.opts.handshake_resend_us;
  }
  for (int burst = 0; burst < 8 && sourcing() && now_us >= next_submit_us_;
       ++burst) {
    submit_one(now_us);
  }
  // Uplink ARQ: resubmit until the message comes back ordered. The budget
  // only expires at the queue head so later lseqs can't starve earlier ones.
  while (!pending_.empty() && pending_.front().attempts >= cfg_.opts.max_retx &&
         now_us - pending_.front().last_send_us >= cfg_.opts.retx_timeout_us) {
    pending_.pop_front();
    metrics_.incr(names::kUplinkDropped);
  }
  std::size_t scanned = 0;
  for (auto& p : pending_) {
    if (scanned++ >= 32) break;
    // Exponential backoff: under load the submit->assign->deliver loop can
    // exceed one retx window for every message, and fixed-interval retries
    // then double the uplink traffic without helping anyone.
    const std::int64_t gap = cfg_.opts.retx_timeout_us
                             << std::min(p.attempts, 3);
    if (p.attempts < cfg_.opts.max_retx && now_us - p.last_send_us >= gap) {
      ++p.attempts;
      p.last_send_us = now_us;
      tr_.send_msg(cfg_.ap, proto::Message(p.msg));
      metrics_.incr(names::kUplinkRetx);
      fr_.record(obs::FrEvent::UplinkRetx, now_us, p.msg.lseq,
                 static_cast<std::uint64_t>(p.attempts));
    }
  }
  if (now_us >= next_ack_us_) {
    send_ack();
    next_ack_us_ = now_us + cfg_.opts.ack_period_us;
  }
  if (!done_ && cfg_.expected_total > 0 && delivered_ >= cfg_.expected_total) {
    done_ = true;
    next_done_us_ = now_us;
  }
  if (done_ && !stop_seen() && now_us >= next_done_us_) {
    tr_.send_control(cfg_.ss, ControlMsg{ControlOp::Done, delivered_});
    next_done_us_ = now_us + cfg_.opts.handshake_resend_us;
  }
}

// ---------------------------------------------------------------------------
// SsRuntime

SsRuntime::SsRuntime(SsConfig cfg, Transport& tr)
    : cfg_(std::move(cfg)), tr_(tr) {}

void SsRuntime::on_start(std::int64_t now_us) {
  next_bcast_us_ = now_us + cfg_.opts.handshake_resend_us;
}

void SsRuntime::broadcast(ControlMsg msg) {
  for (NodeId id : cfg_.all_nodes) tr_.send_control(id, msg);
}

void SsRuntime::on_datagram(const Datagram& d, std::int64_t /*now_us*/) {
  if (d.kind == FrameKind::Control) {
    const auto ctl = decode_control(d.payload.data(), d.payload.size());
    if (!ctl) return;
    switch (ctl->op) {
      case ControlOp::Ready:
        ready_.insert(d.src.v);
        if (!started() && ready_.size() >= cfg_.expected_ready) {
          started_.store(true, std::memory_order_release);
          broadcast(ControlMsg{ControlOp::Start, 0});
        }
        break;
      case ControlOp::Done:
        done_.insert(d.src.v);
        done_count_.store(done_.size(), std::memory_order_release);
        break;
      default:
        break;
    }
    return;
  }
  const auto msg = proto::decode(d.payload.data(), d.payload.size());
  if (msg && msg->type() == proto::MsgType::Heartbeat) {
    last_beat_[d.src.v] = msg->heartbeat().beat;
    metrics_.incr(names::kSsHeartbeats);
  }
}

void SsRuntime::on_tick(std::int64_t now_us) {
  if (now_us < next_bcast_us_) return;
  next_bcast_us_ = now_us + cfg_.opts.handshake_resend_us;
  if (stop_requested_.load(std::memory_order_acquire)) {
    broadcast(ControlMsg{ControlOp::Stop, 0});
  } else if (started()) {
    broadcast(ControlMsg{ControlOp::Start, 0});  // covers a lost Start
  }
}

}  // namespace ringnet::runtime
