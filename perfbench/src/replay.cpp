// Codec and framing replay: after a traced run has stopped, the frames it
// sampled off the wire are fed back through runtime::unframe, proto::decode,
// proto::encode and proto::TokenView::parse, one MsgType group at a time.
// Replaying in a tight loop gives per-call costs that the live run cannot
// separate from syscalls and thread handoffs.

#include <optional>
#include <vector>

#include "common.hpp"
#include "proto/messages.hpp"
#include "runtime/transport.hpp"

namespace perfbench {
namespace {

using ringnet::runtime::kFrameHeaderBytes;
using Frame = std::vector<std::uint8_t>;

// Each timing is the median of kPasses passes; a pass loops over the
// sample until it has run for at least kPassNs.
constexpr int kPasses = 5;
constexpr std::int64_t kPassNs = 20'000'000;

volatile std::size_t g_sink = 0;  // keeps replayed results observable

template <typename Fn>
double ns_per_call(std::size_t n, Fn&& fn) {
  if (n == 0) return 0.0;
  std::vector<double> passes;
  for (int p = 0; p < kPasses; ++p) {
    std::uint64_t calls = 0;
    const std::int64_t t0 = mono_ns();
    std::int64_t t1 = t0;
    do {
      for (std::size_t i = 0; i < n; ++i) g_sink = g_sink + fn(i);
      calls += n;
      t1 = mono_ns();
    } while (t1 - t0 < kPassNs);
    passes.push_back(static_cast<double>(t1 - t0) / static_cast<double>(calls));
  }
  return median(passes);
}

const std::uint8_t* body(const Frame& f) { return f.data() + kFrameHeaderBytes; }
std::size_t body_size(const Frame& f) { return f.size() - kFrameHeaderBytes; }

}  // namespace

void replay_codec(const CapturedFrames& frames, Outcome& out) {
  using namespace ringnet;
  std::vector<const Frame*> all;
  for (const auto* group : {&frames.data, &frames.token, &frames.other}) {
    for (const Frame& f : *group) all.push_back(&f);
  }
  // Frames over the datagram cap are exactly the ones the receiver rejects;
  // replay what a receiver would actually parse.
  std::vector<const Frame*> tokens;
  for (const Frame& f : frames.token) {
    if (runtime::unframe(f.data(), f.size())) tokens.push_back(&f);
  }
  std::vector<proto::Message> data_msgs;
  for (const Frame& f : frames.data) {
    if (auto m = proto::decode(body(f), body_size(f))) data_msgs.push_back(std::move(*m));
  }

  const double unframe_ns = ns_per_call(all.size(), [&](std::size_t i) {
    const auto d = runtime::unframe(all[i]->data(), all[i]->size());
    return d ? d->payload.size() : 0;
  });
  const double decode_data_ns = ns_per_call(frames.data.size(), [&](std::size_t i) {
    const auto m = proto::decode(body(frames.data[i]), body_size(frames.data[i]));
    return m ? static_cast<std::size_t>(m->data().lseq) : 0;
  });
  const double encode_data_ns = ns_per_call(data_msgs.size(), [&](std::size_t i) {
    return proto::encode(data_msgs[i]).size();
  });
  const double decode_token_ns = ns_per_call(tokens.size(), [&](std::size_t i) {
    const auto m = proto::decode(body(*tokens[i]), body_size(*tokens[i]));
    return m ? m->token().entries().size() : 0;
  });
  const double view_token_ns = ns_per_call(tokens.size(), [&](std::size_t i) {
    const auto v = proto::TokenView::parse(body(*tokens[i]) + 1, body_size(*tokens[i]) - 1);
    return v ? v->entry_count() : 0;
  });

  const auto n = [](std::size_t k) { return static_cast<std::uint64_t>(k); };
  out.per_layer.push_back({"proto.encode_ns.data", encode_data_ns, "ns", n(data_msgs.size())});
  out.per_layer.push_back({"proto.decode_ns.data", decode_data_ns, "ns", n(frames.data.size())});
  out.per_layer.push_back({"proto.decode_ns.token", decode_token_ns, "ns", n(tokens.size())});
  out.per_layer.push_back({"proto.token_view_ns", view_token_ns, "ns", n(tokens.size())});
  out.per_layer.push_back({"transport.unframe_ns", unframe_ns, "ns", n(all.size())});
}

}  // namespace perfbench
