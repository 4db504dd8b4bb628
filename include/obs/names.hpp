#pragma once
// The one table of metric and span-stage names. Each counter or gauge is
// declared once, in RINGNET_OBS_COUNTERS: that line is both its spelling
// (kCounterNames) and its registry handle (the Counter enumerator, a fixed
// obs::Metrics id), so adding a counter is one line and a misspelled one
// does not compile. RN008 rejects ad-hoc name literals and RN010 interning
// on core/runtime paths — a metric under two spellings is worse than none.

#include <cstdint>

namespace ringnet::obs::names {

// X(handle, spelling). Comments inside the list must be /* */: a `//`
// comment would swallow the line splice.
#define RINGNET_OBS_COUNTERS(X)                                              \
  /* --- protocol counters (shared by the sim oracle and the UDP runtime) */ \
  X(kMhDelivered, "mh.delivered")                                            \
  X(kAcksSent, "arq.acks_sent")                                              \
  X(kRetransmits, "arq.retransmits")                                         \
  X(kTokenHeld, "token.held")                                                \
  X(kTokenDupDestroyed, "token.duplicates_destroyed")                        \
  X(kTokenRegenerated, "token.regenerated")                                  \
  X(kTokenDropped, "token.dropped")                                          \
  /* One count per repair that loses at least one message: a member floor    \
     skip, a chain restart over a pruned range, a chain head relinked past a \
     dropped predecessor, or a resend walk that splices entries out. */      \
  X(kGapsSkipped, "mh.gaps_skipped")                                         \
  /* Messages those repairs gave up on (really lost). The runtime's          \
     RuntimeCounters::really_lost reads this name too. */                    \
  X(kGapSkippedMsgs, "mh.gap_skipped_msgs")                                  \
  X(kMembershipApplied, "membership.applied")                                \
  X(kMembershipRelayed, "membership.relayed")                                \
  X(kRingRepairs, "ring.repairs")                                            \
  X(kRingRejoins, "ring.rejoins")                                            \
  X(kHandoffCount, "handoff.count")                                          \
  X(kHandoffHot, "handoff.hot")                                              \
  X(kHandoffCold, "handoff.cold")                                            \
  X(kArchivePruned, "archive.pruned")                                        \
  X(kChurnLeaves, "churn.leaves")                                            \
  X(kChurnRejoins, "churn.rejoins")                                          \
  X(kBlackoutDropped, "blackout.dropped")                                    \
  X(kBlackoutUplinkLost, "blackout.uplink_lost")                             \
  X(kParkDropped, "source.park_dropped")                                     \
  X(kBufWqPeak, "buf.wq.peak")                                               \
  X(kBufMqPeak, "buf.mq.peak")                                               \
  X(kBufArchivePeak, "buf.archive.peak")                                     \
  X(kBufSubmitlogPeak, "buf.submitlog.peak")                                 \
  /* --- runtime-only counters (RuntimeCounters fields, same vocabulary) */  \
  X(kTokenRetx, "token.retx")                                                \
  X(kFloorAdvances, "arq.floor_advances")                                    \
  X(kDuplicates, "mh.duplicates")                                            \
  X(kUplinkRetx, "arq.uplink_retx")                                          \
  X(kUplinkDropped, "arq.uplink_dropped")                                    \
  /* Uplinks refused by a full per-source reorder buffer (MH re-offers) */  \
  X(kUplinkShed, "arq.uplink_shed")                                          \
  X(kMalformed, "transport.malformed")                                       \
  X(kSsHeartbeats, "ss.heartbeats")                                          \
  /* --- scheduler engine counters --- */                                    \
  X(kSchedSerialSteps, "sched.serial_steps")                                 \
  X(kSchedWindows, "sched.windows")                                          \
  X(kSchedInboxDeferred, "sched.inbox_deferred")

/// A well-known counter/gauge: its value is its fixed obs::Metrics id.
enum Counter : std::uint32_t {
#define RINGNET_OBS_HANDLE(handle, spelling) handle,
  RINGNET_OBS_COUNTERS(RINGNET_OBS_HANDLE)
#undef RINGNET_OBS_HANDLE
  kCounterCount
};

/// Spelling of each Counter, indexed by the handle.
inline constexpr const char* kCounterNames[kCounterCount] = {
#define RINGNET_OBS_SPELLING(handle, spelling) spelling,
    RINGNET_OBS_COUNTERS(RINGNET_OBS_SPELLING)
#undef RINGNET_OBS_SPELLING
};

// --- histograms ---
inline constexpr const char* kMhLatencyUs = "mh.latency_us";

// --- message-lifecycle span stages (submit -> ... -> delivery) ---
// Stage k measures the hop *into* that stage: kStageSubmit is
// submit -> uplink-rx at the ordering BR, kStageAssign is uplink-rx ->
// gseq assignment at a token pass, kStageRelay is assignment -> ordered
// arrival at the delivering member's BR, kStageDeliver is BR arrival ->
// delivery at the MH (AP downlink included).
inline constexpr const char* kStageSubmit = "submit";
inline constexpr const char* kStageAssign = "assign";
inline constexpr const char* kStageRelay = "relay";
inline constexpr const char* kStageDeliver = "deliver";
inline constexpr const char* kStageTotal = "total";

}  // namespace ringnet::obs::names
