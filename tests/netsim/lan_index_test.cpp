// LanSegment's station index against the full walk it replaced.
//
// The differential test builds one seeded corpus -- HostStack stations,
// bare NICs and a promiscuous port, with one MAC and one IP address each
// owned by two stations -- twice. World A delivers every test frame
// through LanSegment, which hands it to the walk list plus the stations it
// concerns. World B is the reference: it hands the same frame to every
// attached NIC in attach order through Nic::deliver's filter, as the
// segment did before it indexed stations. Between frames both worlds
// detach, re-attach and toggle promiscuous mode on the same NICs.
//
// Under the reference walk a non-promiscuous station's handler also runs
// for frames its stack ignores (a BPDU, a who-has for another address).
// Those calls are masked out of the reference list by the station
// contract, read with the stack's own parsers (station_acts), and the
// reference checks that each masked call left the station's HostStats
// untouched. Everything else must match exactly: the ordered (NIC, frame)
// handler calls, every station's HostStats, and the counters of every
// NIC outside the index.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/ether/frame.h"
#include "src/netsim/lan.h"
#include "src/netsim/network.h"
#include "src/netsim/nic.h"
#include "src/stack/arp.h"
#include "src/stack/host_stack.h"
#include "src/stack/icmp.h"
#include "src/stack/ipv4.h"
#include "src/util/rng.h"
#include "src/util/string_util.h"

namespace ab::netsim {
namespace {

using stack::HostStack;
using stack::Ipv4Addr;

enum class Role { kStation, kBare, kPort };

struct Member {
  Role role = Role::kBare;
  ether::MacAddress mac;
  Ipv4Addr ip;  ///< stations only
};

/// One handler call: corpus index of the NIC, test frame number, and
/// whether the station contract says the call is a no-op (reference only).
struct Call {
  int nic = 0;
  int frame = 0;
  bool masked = false;
};

bool same_call(const Call& a, const Call& b) { return a.nic == b.nic && a.frame == b.frame; }

std::array<std::uint64_t, 14> fields(const stack::HostStats& s) {
  return {s.arp_requests_sent,     s.arp_replies_sent,   s.arp_duplicate_replies,
          s.ip_packets_sent,       s.fragments_sent,     s.reassemblies_done,
          s.reassemblies_dropped,  s.udp_delivered,      s.tcp_delivered,
          s.tcp_no_socket_drops,   s.echo_requests_answered,
          s.echo_replies_received, s.rx_parse_errors,    s.unresolved_drops};
}

std::array<std::uint64_t, 7> fields(const NicStats& s) {
  return {s.tx_frames, s.tx_bytes, s.tx_dropped, s.rx_frames,
          s.rx_bytes,  s.rx_filtered, s.rx_bad};
}

/// The station contract, read with the stack's parsers: the frames a
/// non-promiscuous HostStack can act on once its NIC's filter passed them.
bool station_acts(const ether::Frame& f, Ipv4Addr ip) {
  if (!f.dst.is_group()) return true;  // the filter passed it: addressed here
  if (f.has_type(ether::EtherType::kArp)) {
    const auto arp = stack::ArpPacket::decode(f.payload);
    return !arp || arp->target_ip == ip;  // a parse error is counted
  }
  return f.has_type(ether::EtherType::kIpv4);
}

/// One copy of the corpus on its own segment and scheduler.
struct World {
  Network net;
  LanSegment* lan = nullptr;
  Nic* tx = nullptr;  ///< the test's sender: a bare NIC on the walk list
  std::vector<Member> members;
  std::vector<Nic*> nics;                          ///< corpus order
  std::vector<std::unique_ptr<HostStack>> stacks;  ///< null unless a station
  std::vector<Call> calls;
  int frame = -1;
  bool masked_call_changed_stats = false;

  World(const std::vector<Member>& corpus, const std::vector<std::size_t>& attach_order,
        bool reference)
      : members(corpus) {
    lan = &net.add_segment("lan");
    tx = &net.add_nic("tx", *lan, ether::MacAddress::local(0xAAAA, 1));
    // Only the test's frames are compared: the stacks' own replies stop
    // at the wire, in both worlds alike.
    Nic* const sender = tx;
    lan->set_drop_filter([sender](TimePoint, const Nic* from, util::ByteView) {
      return from != nullptr && from != sender;
    });
    nics.assign(corpus.size(), nullptr);
    stacks.resize(corpus.size());
    for (const std::size_t i : attach_order) {
      Nic& nic = net.add_nic(util::format("m%zu", i), *lan, corpus[i].mac);
      nics[i] = &nic;
      const int id = static_cast<int>(i);
      if (corpus[i].role == Role::kStation) {
        stack::HostConfig cfg;
        cfg.ip = corpus[i].ip;
        stacks[i] = std::make_unique<HostStack>(net.scheduler(), nic, cfg);
        HostStack* host = stacks[i].get();
        auto inner = nic.rx_handler();
        nic.set_rx_handler([this, id, host, inner, reference](const ether::WireFrame& f) {
          const bool masked = reference && !host->nic().promiscuous() &&
                              !station_acts(f.frame(), host->ip());
          const auto before = fields(host->stats());
          calls.push_back({id, frame, masked});
          inner(f);
          if (masked && fields(host->stats()) != before) masked_call_changed_stats = true;
        });
      } else {
        nic.set_rx_handler(
            [this, id](const ether::WireFrame&) { calls.push_back({id, frame, false}); });
        if (corpus[i].role == Role::kPort) nic.set_promiscuous(true);
      }
    }
  }
};

/// World B's delivery: every attached NIC, attach order, through
/// Nic::deliver's filter, at the time the segment would deliver.
void reference_walk(World& w, const ether::WireFrame& frame, const Nic* sender,
                    TimePoint at) {
  w.net.scheduler().schedule_at(at, [&w, frame, sender] {
    const std::vector<Nic*> receivers = w.lan->attached();
    for (Nic* nic : receivers) {
      if (nic != nullptr && nic != sender) nic->deliver(frame);
    }
  });
}

ether::WireFrame echo_request(ether::MacAddress dst, ether::MacAddress src,
                              Ipv4Addr to) {
  stack::IcmpEcho echo;
  echo.id = 7;
  echo.seq = 1;
  echo.payload = util::ByteBuffer(8, 0x5A);
  stack::Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(stack::IpProto::kIcmp);
  h.src = Ipv4Addr(10, 9, 9, 9);
  h.dst = to;
  util::ByteBuffer packet = echo.encode();
  h.write_in_place(packet);
  return ether::Frame::ethernet2(dst, src, ether::EtherType::kIpv4, std::move(packet));
}

ether::WireFrame arp_frame(ether::MacAddress dst, ether::MacAddress src,
                           util::ByteBuffer payload) {
  return ether::Frame::ethernet2(dst, src, ether::EtherType::kArp, std::move(payload));
}

TEST(LanIndex, MatchesTheFullWalkOnASeededCorpus) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);

    std::vector<Member> corpus;
    for (int i = 0; i < 24; ++i) {
      corpus.push_back({Role::kStation,
                        ether::MacAddress::local(0x100, static_cast<std::uint16_t>(i)),
                        Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(i + 1))});
    }
    corpus[5].mac = corpus[4].mac;  // one MAC owned by two stations
    corpus[9].ip = corpus[8].ip;    // one address owned by two stations
    for (int i = 0; i < 8; ++i) {
      corpus.push_back(
          {Role::kBare, ether::MacAddress::local(0x200, static_cast<std::uint16_t>(i)), {}});
    }
    corpus.push_back({Role::kPort, ether::MacAddress::local(0x300, 0), {}});

    std::vector<std::size_t> order(corpus.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.index(i)]);

    auto a = std::make_unique<World>(corpus, order, /*reference=*/false);
    auto b = std::make_unique<World>(corpus, order, /*reference=*/true);
    const Duration propagation = a->lan->config().propagation;
    const ether::MacAddress src = a->tx->mac();
    std::uint64_t candidates = 0;

    for (int f = 0; f < 300; ++f) {
      // Between frames: churn the attach list and the promiscuous set.
      const std::size_t who = rng.index(corpus.size());
      switch (rng.index(4)) {
        case 0:
          if (a->nics[who]->segment() != nullptr) {
            a->nics[who]->detach();
            b->nics[who]->detach();
          } else {
            a->nics[who]->attach(*a->lan);
            b->nics[who]->attach(*b->lan);
          }
          break;
        case 1: {
          const bool on = !a->nics[who]->promiscuous();
          a->nics[who]->set_promiscuous(on);
          b->nics[who]->set_promiscuous(on);
          break;
        }
        default:
          break;
      }

      const Member& target = corpus[rng.index(corpus.size())];
      const Ipv4Addr target_ip = target.role == Role::kStation
                                     ? target.ip
                                     : Ipv4Addr(10, 0, 0, 1);
      ether::WireFrame frame;
      bool remote = false;
      switch (rng.index(12)) {
        case 0:  // unicast to a present MAC
          frame = echo_request(target.mac, src, target_ip);
          break;
        case 1:  // unicast to an absent MAC
          frame = echo_request(ether::MacAddress::local(0xEEEE, 1), src, target_ip);
          break;
        case 2:  // who-has a present address
          frame = arp_frame(ether::MacAddress::broadcast(), src,
                            stack::ArpPacket::request(src, Ipv4Addr(10, 9, 9, 9), target_ip)
                                .encode());
          break;
        case 3:  // who-has an absent address
          frame = arp_frame(ether::MacAddress::broadcast(), src,
                            stack::ArpPacket::request(src, Ipv4Addr(10, 9, 9, 9),
                                                      Ipv4Addr(10, 0, 7, 7))
                                .encode());
          break;
        case 4: {  // a broadcast ARP reply naming a station
          stack::ArpPacket reply;
          reply.op = stack::ArpOp::kReply;
          reply.sender_mac = src;
          reply.sender_ip = Ipv4Addr(10, 9, 9, static_cast<std::uint8_t>(f % 200 + 1));
          reply.target_mac = target.mac;
          reply.target_ip = target_ip;
          frame = arp_frame(ether::MacAddress::broadcast(), src, reply.encode());
          break;
        }
        case 5: {  // a short ARP (the wire pads it to the minimum payload)
          util::ByteBuffer bytes =
              stack::ArpPacket::request(src, Ipv4Addr(10, 9, 9, 9), target_ip).encode();
          bytes.resize(10);
          frame = arp_frame(ether::MacAddress::broadcast(), src, std::move(bytes));
          break;
        }
        case 6: {  // malformed ARP: bad hardware type, lengths or op
          util::ByteBuffer bytes =
              stack::ArpPacket::request(src, Ipv4Addr(10, 9, 9, 9), target_ip).encode();
          const std::size_t field = std::array<std::size_t, 3>{1, 4, 7}[rng.index(3)];
          bytes[field] = 9;
          frame = arp_frame(ether::MacAddress::broadcast(), src, std::move(bytes));
          break;
        }
        case 7:  // IPv4 to the broadcast MAC
          frame = echo_request(ether::MacAddress::broadcast(), src, target_ip);
          break;
        case 8:  // an LLC BPDU to the All Bridges address
          frame = ether::Frame::llc_frame(ether::MacAddress::all_bridges(), src,
                                          ether::LlcHeader::spanning_tree(),
                                          util::ByteBuffer(35, 0));
          break;
        case 9: {  // a bad FCS, arriving from another shard
          const ether::WireFrame good = echo_request(target.mac, src, target_ip);
          util::ByteBuffer wire(good.wire().begin(), good.wire().end());
          wire.back() ^= 0xFF;
          frame = ether::WireFrame::from_wire(std::move(wire));
          remote = true;
          break;
        }
        case 10: {  // unicast to a MAC sharing a present one's low 32 bits
          auto octets = target.mac.octets();
          octets[0] = 0x06;
          frame = echo_request(ether::MacAddress(octets), src, target_ip);
          break;
        }
        default:  // a probe to a group MAC no station acts on
          frame = ether::Frame::ethernet2(ether::MacAddress::broadcast(), src,
                                          ether::EtherType::kExperimental,
                                          util::ByteBuffer(46, 0x11));
          break;
      }

      a->frame = b->frame = f;
      const Nic* sender_a = remote ? nullptr : a->tx;
      for (const Nic* nic : a->lan->attached()) {
        if (nic != nullptr && nic != sender_a) candidates += 1;
      }
      const TimePoint at = a->net.now() + propagation;
      if (remote) {
        a->lan->inject_remote(frame, at);
      } else {
        a->lan->broadcast(frame, a->tx);
      }
      reference_walk(*b, frame, remote ? nullptr : b->tx, at);
      a->net.scheduler().run();
      b->net.scheduler().run();
      ASSERT_EQ(a->net.now(), b->net.now()) << "frame " << f;
    }

    std::vector<Call> expected;
    std::size_t masked = 0;
    for (const Call& c : b->calls) {
      if (c.masked) {
        masked += 1;
      } else {
        expected.push_back(c);
      }
    }
    ASSERT_EQ(a->calls.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_TRUE(same_call(a->calls[i], expected[i]))
          << "call " << i << ": index (nic " << a->calls[i].nic << ", frame "
          << a->calls[i].frame << "), reference (nic " << expected[i].nic
          << ", frame " << expected[i].frame << ")";
    }
    EXPECT_FALSE(b->masked_call_changed_stats);
    EXPECT_GT(masked, 0u);  // the corpus exercised the index

    std::uint64_t parse_errors = 0, replies = 0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      SCOPED_TRACE("member " + std::to_string(i));
      if (corpus[i].role == Role::kStation) {
        EXPECT_EQ(fields(a->stacks[i]->stats()), fields(b->stacks[i]->stats()));
        EXPECT_EQ(a->nics[i]->stats().rx_bad, b->nics[i]->stats().rx_bad);
        // A station is handed only what its filter passes.
        EXPECT_EQ(a->nics[i]->stats().rx_filtered, 0u);
        parse_errors += a->stacks[i]->stats().rx_parse_errors;
        replies += a->stacks[i]->stats().arp_replies_sent;
      } else {
        EXPECT_EQ(fields(a->nics[i]->stats()), fields(b->nics[i]->stats()));
      }
    }
    EXPECT_GT(parse_errors, 0u);
    EXPECT_GT(replies, 0u);
    // Every attached non-sender NIC was either visited or skipped.
    const LanStats& stats = a->lan->stats();
    EXPECT_EQ(stats.receivers_visited + stats.receivers_skipped, candidates);
    EXPECT_EQ(stats.frames_lost, 0u);
  }
}

/// A segment of `stations` HostStacks behind a promiscuous bridge-style
/// port, plus a bare sending NIC: a walk list of two.
struct BigLan {
  Network net;
  LanSegment& lan = net.add_segment("big");
  Nic& port = net.add_nic("port", lan);
  Nic& tx = net.add_nic("tx", lan);
  std::vector<std::unique_ptr<HostStack>> stacks;

  explicit BigLan(int stations) {
    port.set_promiscuous(true);
    for (int i = 0; i < stations; ++i) {
      Nic& nic = net.add_nic("st" + std::to_string(i), lan);
      stack::HostConfig cfg;
      cfg.ip = Ipv4Addr(10, 1, static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>(i & 0xFF));
      stacks.push_back(std::make_unique<HostStack>(net.scheduler(), nic, cfg));
    }
  }

  [[nodiscard]] std::uint64_t visits() const {
    std::uint64_t v = 0;
    for (const Nic* nic : lan.attached()) {
      if (nic != nullptr) v += nic->stats().rx_frames + nic->stats().rx_filtered;
    }
    return v;
  }
};

TEST(LanIndex, UnicastOnATenThousandStationSegmentVisitsTheWalkListPlusOne) {
  BigLan big(10000);
  HostStack& dst = *big.stacks[7777];
  big.tx.transmit(ether::Frame::ethernet2(dst.nic().mac(), big.tx.mac(),
                                          ether::EtherType::kExperimental,
                                          util::ByteBuffer(46, 0)));
  big.net.scheduler().run();
  constexpr std::uint64_t kWalkList = 2;  // port + tx (the sender)
  EXPECT_LE(big.visits(), kWalkList + 1);
  EXPECT_EQ(dst.nic().stats().rx_frames, 1u);
  EXPECT_EQ(big.port.stats().rx_frames, 1u);
  EXPECT_EQ(big.lan.stats().receivers_visited, 2u);
  EXPECT_EQ(big.lan.stats().receivers_skipped, 9999u);

  // A who-has reaches the port and the one station it names.
  const stack::ArpPacket who_has =
      stack::ArpPacket::request(big.tx.mac(), Ipv4Addr(10, 9, 9, 9), big.stacks[4242]->ip());
  big.tx.transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(), big.tx.mac(),
                                          ether::EtherType::kArp, who_has.encode()));
  big.net.scheduler().run();
  EXPECT_LE(big.visits(), 2 * (kWalkList + 1));
  EXPECT_EQ(big.stacks[4242]->stats().arp_replies_sent, 1u);
}

/// Two stations and a bare sender: a unicast to one station is its sole
/// receiver, the path that skips the run machinery.
struct SoleLan {
  Network net;
  LanSegment& lan = net.add_segment("sole");
  Nic& tx = net.add_nic("tx", lan);
  Nic& first = net.add_nic("first", lan);
  Nic& second = net.add_nic("second", lan);
  HostStack first_host{net.scheduler(), first, config(1)};
  HostStack second_host{net.scheduler(), second, config(2)};

  static stack::HostConfig config(std::uint8_t host) {
    stack::HostConfig cfg;
    cfg.ip = Ipv4Addr(10, 2, 0, host);
    return cfg;
  }

  void send_to_first() {
    tx.transmit(ether::Frame::ethernet2(first.mac(), tx.mac(),
                                        ether::EtherType::kExperimental,
                                        util::ByteBuffer(46, 0)));
  }
  /// Runs until the frame is on the wire, with its delivery still pending.
  void finish_serialization() {
    net.scheduler().run_until(net.now() + lan.serialization_delay(64));
  }
};

TEST(LanIndex, SoleReceiverThatDetachesInFlightIsSkipped) {
  SoleLan s;
  s.send_to_first();
  s.finish_serialization();
  ASSERT_EQ(s.lan.stats().frames_carried, 1u);
  s.first.detach();
  s.net.scheduler().run();
  EXPECT_EQ(s.first.stats().rx_frames, 0u);
  EXPECT_EQ(s.lan.stats().receivers_visited, 0u);
}

TEST(LanIndex, SoleReceiverGetsTheFrameWhenAnotherNicDetachesInFlight) {
  SoleLan s;
  s.send_to_first();
  s.finish_serialization();
  ASSERT_EQ(s.lan.stats().frames_carried, 1u);
  s.second.detach();  // bumps the detach epoch: the receiver is re-checked
  s.net.scheduler().run();
  EXPECT_EQ(s.first.stats().rx_frames, 1u);
  EXPECT_EQ(s.lan.stats().receivers_visited, 1u);
}

TEST(LanIndex, PromiscuousStationJoinsTheWalkListForLaterFrames) {
  SoleLan s;
  s.second.set_promiscuous(true);
  s.send_to_first();
  s.net.scheduler().run();
  EXPECT_EQ(s.second.stats().rx_frames, 1u);  // sees the frame for `first`
  s.second.set_promiscuous(false);
  s.send_to_first();
  s.net.scheduler().run();
  EXPECT_EQ(s.second.stats().rx_frames, 1u);  // back in the index: skipped
  EXPECT_EQ(s.second.stats().rx_filtered, 0u);
  EXPECT_EQ(s.first.stats().rx_frames, 2u);
}

TEST(LanIndex, FrameThatConcernsNoReceiverSchedulesNoDelivery) {
  SoleLan s;
  // A BPDU from the only walk-list NIC: no station acts on it.
  s.tx.transmit(ether::Frame::llc_frame(ether::MacAddress::all_bridges(), s.tx.mac(),
                                        ether::LlcHeader::spanning_tree(),
                                        util::ByteBuffer(35, 0)));
  s.net.scheduler().run();
  EXPECT_EQ(s.net.scheduler().executed(), 1u);  // the transmit completion only
  EXPECT_EQ(s.lan.stats().receivers_skipped, 2u);
  EXPECT_EQ(s.lan.stats().receivers_visited, 0u);
}

}  // namespace
}  // namespace ab::netsim
