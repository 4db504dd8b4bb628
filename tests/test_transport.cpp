// Real-socket transport tests: framing round-trips over actual UDP
// loopback sockets, rejection of truncated/corrupted datagrams (the fuzz
// sweep must never crash or mis-parse), distinct ephemeral ports across
// many live sockets, sub-millisecond receive waits, oversize frames
// refused at the sender (UDP and in-process), and port rebinding
// after a node restart. Ephemeral ports throughout so parallel ctest runs
// never collide.

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_set>
#include <vector>

#include "proto/messages.hpp"
#include "ringnet_test.hpp"
#include "runtime/inproc_transport.hpp"
#include "runtime/transport.hpp"
#include "runtime/udp_transport.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

using namespace ringnet;
using namespace ringnet::runtime;

namespace {

constexpr std::int64_t kRecvBudgetUs = 2'000'000;  // generous for slow CI

proto::DataMsg sample_data() {
  proto::DataMsg m;
  m.gid = GroupId{1};
  m.source = NodeId{9};
  m.lseq = 77;
  m.ordering_node = NodeId::make(Tier::BR, 0);
  m.gseq = 1234;
  m.epoch = 2;
  m.payload_size = 256;
  return m;
}

}  // namespace

// --- framing (no sockets) --------------------------------------------------

TEST(frame_unframe_round_trip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
  const auto bytes = frame(NodeId::make(Tier::AP, 4), FrameKind::Proto,
                           payload, NodeId::make(Tier::MH, 6));
  CHECK_EQ(bytes.size(), kFrameHeaderBytes + payload.size());
  const auto d = unframe(bytes.data(), bytes.size());
  CHECK(d.has_value());
  CHECK_EQ(d->src.v, NodeId::make(Tier::AP, 4).v);
  CHECK_EQ(d->relay.v, NodeId::make(Tier::MH, 6).v);
  CHECK(d->kind == FrameKind::Proto);
  CHECK(d->payload == payload);
}

TEST(frame_truncations_rejected) {
  const auto bytes =
      frame(NodeId{1}, FrameKind::Control, std::vector<std::uint8_t>(32, 7));
  // Every strict prefix must be rejected: header cut short, payload cut
  // short, empty buffer.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    CHECK(!unframe(bytes.data(), n).has_value());
  }
  CHECK(unframe(bytes.data(), bytes.size()).has_value());
}

TEST(frame_fuzz_mutations_never_crash) {
  util::Rng rng(0xF2A2'2024u);
  const auto msg = proto::encode(proto::Message(sample_data()));
  const auto good = frame(NodeId{3}, FrameKind::Proto, msg);
  std::uint64_t survived = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    auto mutated = good;
    const std::size_t flips = 1 + rng.bounded(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.bounded(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    // A mutated frame either fails validation or (checksum collision on
    // header-only flips) yields a payload the decoder must still bound.
    const auto d = unframe(mutated.data(), mutated.size());
    if (!d) continue;
    ++survived;
    (void)proto::decode(d->payload.data(), d->payload.size());
  }
  // The checksum only covers the payload, so pure header flips (src/relay
  // ids) can legitimately survive; corruption of payload bytes must not.
  CHECK(survived < 5000);
}

TEST(frame_random_garbage_rejected) {
  util::Rng rng(0xDEAD'BEEFu);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.bounded(128));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.bounded(256));
    const auto d = unframe(junk.data(), junk.size());
    // Random bytes essentially never produce the magic + matching FNV-1a
    // checksum; decode anything that slips through rather than crash.
    if (d) (void)proto::decode(d->payload.data(), d->payload.size());
  }
  CHECK(true);  // reaching here without UB/crash is the assertion
}

TEST(frame_oversize_rejected) {
  std::vector<std::uint8_t> big(kMaxDatagramBytes + 1, 0xAB);
  const auto bytes = frame(NodeId{1}, FrameKind::Proto, big);
  CHECK(!unframe(bytes.data(), bytes.size()).has_value());
}

// --- real UDP sockets ------------------------------------------------------

TEST(udp_round_trip_proto_and_control) {
  auto book = std::make_shared<AddressBook>();
  UdpTransport a(NodeId{1}, book);  // ephemeral ports
  UdpTransport b(NodeId{2}, book);
  book->set(NodeId{1}, a.local_endpoint());
  book->set(NodeId{2}, b.local_endpoint());

  CHECK(a.send_msg(NodeId{2}, proto::Message(sample_data()),
                   NodeId::make(Tier::MH, 5)));
  const auto d = b.recv(kRecvBudgetUs);
  CHECK(d.has_value());
  if (d) {
    CHECK_EQ(d->src.v, 1u);
    CHECK_EQ(d->relay.v, NodeId::make(Tier::MH, 5).v);
    CHECK(d->kind == FrameKind::Proto);
    const auto msg = proto::decode(d->payload.data(), d->payload.size());
    CHECK(msg.has_value());
    CHECK(msg->type() == proto::MsgType::Data);
    CHECK_EQ(msg->data().gseq, 1234u);
  }

  CHECK(b.send_control(NodeId{1}, ControlMsg{ControlOp::Done, 42}));
  const auto c = a.recv(kRecvBudgetUs);
  CHECK(c.has_value());
  if (c) {
    CHECK(c->kind == FrameKind::Control);
    const auto ctl = decode_control(c->payload.data(), c->payload.size());
    CHECK(ctl.has_value());
    CHECK(ctl->op == ControlOp::Done);
    CHECK_EQ(ctl->arg, 42u);
  }
  CHECK_EQ(a.sent(), 1u);
  CHECK_EQ(a.received(), 1u);
  CHECK_EQ(b.dropped_malformed(), 0u);
}

TEST(udp_corrupt_datagram_dropped_at_edge) {
  auto book = std::make_shared<AddressBook>();
  UdpTransport rx(NodeId{1}, book);
  UdpTransport tx(NodeId{2}, book);
  book->set(NodeId{1}, rx.local_endpoint());
  book->set(NodeId{2}, tx.local_endpoint());

  auto bytes = frame(NodeId{2}, FrameKind::Proto,
                     proto::encode(proto::Message(sample_data())));
  bytes[bytes.size() - 3] ^= 0xFF;  // flip a payload byte -> checksum fails
  CHECK(tx.send(NodeId{1}, bytes));
  CHECK(!rx.recv(200'000).has_value());
  CHECK_EQ(rx.dropped_malformed(), 1u);
  CHECK_EQ(rx.received(), 0u);

  // The transport still works after a drop.
  CHECK(tx.send_msg(NodeId{1}, proto::Message(sample_data())));
  CHECK(rx.recv(kRecvBudgetUs).has_value());
}

TEST(udp_unknown_destination_counts_send_failure) {
  auto book = std::make_shared<AddressBook>();
  UdpTransport t(NodeId{1}, book);
  CHECK(!t.send_msg(NodeId{99}, proto::Message(sample_data())));
  CHECK_EQ(t.send_failures(), 1u);
  CHECK_EQ(t.sent(), 0u);
}

TEST(oversize_frame_refused_at_sender) {
  // A frame over kMaxDatagramBytes is the sender's fault: it is refused
  // and counted there, never sent to be misreported as corruption.
  const std::vector<std::uint8_t> big(61'000 - kFrameHeaderBytes, 0xAB);
  const auto oversize = frame(NodeId{2}, FrameKind::Proto, big);
  const std::vector<std::uint8_t> fits(kMaxDatagramBytes - kFrameHeaderBytes,
                                       0xCD);
  const auto at_limit = frame(NodeId{2}, FrameKind::Proto, fits);

  auto book = std::make_shared<AddressBook>();
  UdpTransport rx(NodeId{1}, book);
  UdpTransport tx(NodeId{2}, book);
  book->set(NodeId{1}, rx.local_endpoint());
  book->set(NodeId{2}, tx.local_endpoint());
  CHECK(!tx.send(NodeId{1}, oversize));
  CHECK_EQ(tx.send_oversize(), 1u);
  CHECK_EQ(tx.send_failures(), 1u);
  CHECK_EQ(tx.sent(), 0u);
  CHECK(tx.send(NodeId{1}, at_limit));  // the limit itself still goes out
  const auto got = rx.recv(kRecvBudgetUs);
  CHECK(got.has_value() && got->payload == fits);
  CHECK_EQ(rx.dropped_malformed(), 0u);

  InProcNet net;
  auto a = net.attach(NodeId{1});
  auto b = net.attach(NodeId{2});
  CHECK(!a->send(NodeId{2}, oversize));
  CHECK_EQ(a->send_oversize(), 1u);
  CHECK_EQ(a->send_failures(), 1u);
  CHECK(!b->recv(0).has_value());
  CHECK_EQ(b->dropped_malformed(), 0u);
}

TEST(udp_ephemeral_ports_are_distinct) {
  // Two live sockets must never share an ephemeral port: a deployment
  // builds its address book from the bound ports, and a shared port sends
  // one node's frames to another.
  auto book = std::make_shared<AddressBook>();
  std::vector<std::unique_ptr<UdpTransport>> open;
  std::unordered_set<std::uint16_t> ports;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    open.push_back(std::make_unique<UdpTransport>(NodeId{i + 1}, book));
    ports.insert(open.back()->local_endpoint().port);
  }
  CHECK_EQ(ports.size(), open.size());
}

TEST(udp_recv_waits_sub_millisecond) {
  // A 200us wait must not be rounded up to a whole millisecond: the event
  // loop waits exactly until the next token release or submit slot.
  auto book = std::make_shared<AddressBook>();
  UdpTransport t(NodeId{1}, book);
  // The fastest of many waits, so a loaded host cannot fail the test.
  util::WallClock clock;
  std::int64_t fastest_us = 1'000'000;
  for (int i = 0; i < 50; ++i) {
    const std::int64_t t0 = clock.now_us();
    CHECK(!t.recv(200).has_value());
    fastest_us = std::min(fastest_us, clock.now_us() - t0);
  }
  CHECK(fastest_us >= 200);
  CHECK(fastest_us < 900);
}

TEST(udp_rebind_same_port_after_restart) {
  auto book = std::make_shared<AddressBook>();
  UdpTransport node(NodeId{1}, book);
  UdpTransport peer(NodeId{2}, book);
  book->set(NodeId{1}, node.local_endpoint());
  book->set(NodeId{2}, peer.local_endpoint());
  const auto before = node.local_endpoint();

  // Restart: close + re-bind the same port, so the peer's address book
  // entry stays valid and frames flow again without re-registration.
  node.rebind();
  CHECK_EQ(node.local_endpoint().port, before.port);
  CHECK(peer.send_control(NodeId{1}, ControlMsg{ControlOp::Ready, 0}));
  const auto d = node.recv(kRecvBudgetUs);
  CHECK(d.has_value());
  if (d) CHECK(d->kind == FrameKind::Control);
}

TEST_MAIN()
