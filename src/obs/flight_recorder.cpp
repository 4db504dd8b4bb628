#include "obs/flight_recorder.hpp"

#include <cstdio>

namespace ringnet::obs {

const char* fr_event_name(FrEvent kind) {
  switch (kind) {
    case FrEvent::TokenRx:
      return "token_rx";
    case FrEvent::TokenTx:
      return "token_tx";
    case FrEvent::TokenDupDestroyed:
      return "token_dup_destroyed";
    case FrEvent::TokenRetx:
      return "token_retx";
    case FrEvent::TokenDropped:
      return "token_dropped";
    case FrEvent::TokenRegen:
      return "token_regen";
    case FrEvent::ArqResend:
      return "arq_resend";
    case FrEvent::UplinkRetx:
      return "uplink_retx";
    case FrEvent::StallResync:
      return "stall_resync";
    case FrEvent::ChainSplice:
      return "chain_splice";
    case FrEvent::GapSkip:
      return "gap_skip";
    case FrEvent::OrderViolation:
      return "order_violation";
    case FrEvent::Deliver:
      return "deliver";
    case FrEvent::Submit:
      return "submit";
  }
  return "unknown";
}

std::string FlightRecorder::dump_json(const std::string& node,
                                      const std::string& reason) const {
  // Snapshot under the lock, format outside it: formatting is O(ring) and
  // must not stall the loop thread's record() calls.
  std::vector<FrRecord> events = snapshot();
  std::uint64_t recorded = 0;
  {
    util::MutexLock lock(mu_);
    recorded = total_;
  }
  std::string out;
  out.reserve(64 + events.size() * 64);
  char buf[192];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"flight_recorder\":{\"node\":\"%s\","
                        "\"reason\":\"%s\",\"recorded\":%llu,"
                        "\"retained\":%zu,\"events\":[",
                        node.c_str(), reason.c_str(),
                        static_cast<unsigned long long>(recorded),
                        events.size());
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FrRecord& r = events[i];
    n = std::snprintf(buf, sizeof(buf),
                      "%s{\"ev\":\"%s\",\"t_us\":%lld,\"a\":%llu,"
                      "\"b\":%llu}",
                      i == 0 ? "" : ",", fr_event_name(r.kind),
                      static_cast<long long>(r.t_us),
                      static_cast<unsigned long long>(r.a),
                      static_cast<unsigned long long>(r.b));
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  out += "]}}";
  return out;
}

}  // namespace ringnet::obs
