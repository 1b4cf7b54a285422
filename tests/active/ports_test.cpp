#include "src/active/ports.h"

#include <gtest/gtest.h>

#include "src/ether/frame.h"
#include "src/netsim/network.h"

namespace ab::active {
namespace {

struct Fixture {
  netsim::Network net;
  netsim::LanSegment* lan;
  netsim::Nic* eth0;
  netsim::Nic* eth1;
  PortTable table;

  Fixture() : table(net.scheduler()) {
    lan = &net.add_segment("lan");
    eth0 = &net.add_nic("eth0", *lan);
    eth1 = &net.add_nic("eth1", *lan);
    table.add_interface(*eth0);
    table.add_interface(*eth1);
  }
};

Packet make_packet(PortId ingress) {
  Packet p;
  p.wire = ether::Frame::ethernet2(ether::MacAddress::broadcast(),
                                   ether::MacAddress::local(9, 9),
                                   ether::EtherType::kExperimental, {1, 2, 3});
  p.ingress = ingress;
  return p;
}

TEST(PortTable, BindInClaimsAndSetsPromiscuous) {
  Fixture f;
  EXPECT_FALSE(f.eth0->promiscuous());
  InputPort& in = f.table.bind_in("eth0");
  EXPECT_EQ(in.name(), "eth0");
  EXPECT_TRUE(f.eth0->promiscuous());
  EXPECT_TRUE(f.table.is_bound_in(in.id()));
  EXPECT_EQ(f.table.bound_in_count(), 1u);
}

TEST(PortTable, FirstBindWinsOthersFail) {
  // The paper: "the first switchlet to bind to a given port succeeds and
  // all others fail."
  Fixture f;
  f.table.bind_in("eth0");
  EXPECT_THROW(f.table.bind_in("eth0"), AlreadyBound);
  f.table.bind_out("eth0");
  EXPECT_THROW(f.table.bind_out("eth0"), AlreadyBound);
}

TEST(PortTable, BindUnknownInterfaceThrows) {
  Fixture f;
  EXPECT_THROW(f.table.bind_in("eth9"), NoInterface);
  EXPECT_THROW(f.table.bind_out("eth9"), NoInterface);
}

TEST(PortTable, UnbindAllowsRebindAndLeavesPromiscuous) {
  Fixture f;
  InputPort& in = f.table.bind_in("eth0");
  const PortId id = in.id();
  f.table.unbind_in(id);
  EXPECT_FALSE(f.eth0->promiscuous());
  EXPECT_FALSE(f.table.is_bound_in(id));
  EXPECT_NO_THROW(f.table.bind_in("eth0"));
}

TEST(PortTable, GetIportBindsNextAvailable) {
  Fixture f;
  InputPort& a = f.table.get_iport();
  InputPort& b = f.table.get_iport();
  EXPECT_NE(a.id(), b.id());
  EXPECT_THROW(f.table.get_iport(), NoInterface);  // both taken
}

TEST(PortTable, GetOportBindsNextAvailable) {
  Fixture f;
  OutputPort& a = f.table.get_oport();
  OutputPort& b = f.table.get_oport();
  EXPECT_NE(a.id(), b.id());
  EXPECT_THROW(f.table.get_oport(), NoInterface);
}

TEST(PortTable, IportToOportCrossesSides) {
  Fixture f;
  InputPort& in = f.table.bind_in("eth0");
  EXPECT_THROW(f.table.iport_to_oport(in), NoInterface);  // out not bound yet
  OutputPort& out = f.table.bind_out("eth0");
  EXPECT_EQ(&f.table.iport_to_oport(in), &out);
}

TEST(PortTable, DuplicateInterfaceNameRejected) {
  Fixture f;
  netsim::Nic& dup = f.net.add_nic("eth0", *f.lan);
  EXPECT_THROW(f.table.add_interface(dup), std::invalid_argument);
}

TEST(InputPort, QueueModePullsInOrder) {
  Fixture f;
  InputPort& in = f.table.bind_in("eth0");
  EXPECT_FALSE(in.pkts_waiting());
  EXPECT_FALSE(in.next_packet().has_value());
  f.table.deliver_to_port(in.id(), make_packet(in.id()));
  f.table.deliver_to_port(in.id(), make_packet(in.id()));
  EXPECT_TRUE(in.pkts_waiting());
  EXPECT_TRUE(in.next_packet().has_value());
  EXPECT_TRUE(in.next_packet().has_value());
  EXPECT_FALSE(in.pkts_waiting());
}

TEST(InputPort, HandlerModeBypassesQueueAndDrainsBacklog) {
  Fixture f;
  InputPort& in = f.table.bind_in("eth0");
  f.table.deliver_to_port(in.id(), make_packet(in.id()));  // backlog
  int got = 0;
  in.set_handler([&](const Packet&) { ++got; });
  EXPECT_EQ(got, 1);  // backlog drained on install
  f.table.deliver_to_port(in.id(), make_packet(in.id()));
  EXPECT_EQ(got, 2);
  EXPECT_FALSE(in.pkts_waiting());
}

TEST(InputPort, QueueOverflowCountsDrops) {
  Fixture f;
  InputPort& in = f.table.bind_in("eth0");
  for (int i = 0; i < 2000; ++i) f.table.deliver_to_port(in.id(), make_packet(in.id()));
  EXPECT_GT(f.table.rx_queue_drops(), 0u);
}

TEST(OutputPort, SendTransmitsOnTheNic) {
  Fixture f;
  OutputPort& out = f.table.bind_out("eth0");
  EXPECT_TRUE(out.ready_to_send());
  int got = 0;
  f.eth1->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  out.send(ether::Frame::ethernet2(f.eth1->mac(), f.eth0->mac(),
                                   ether::EtherType::kExperimental, {1}));
  f.net.scheduler().run();
  EXPECT_EQ(got, 1);
}

TEST(PortTable, SendOnBypassesOutputBindings) {
  Fixture f;
  int got = 0;
  f.eth1->set_rx_handler([&](const ether::WireFrame&) { ++got; });
  // No output bind exists; the loader-infrastructure path still sends.
  f.table.send_on(0, ether::Frame::ethernet2(f.eth1->mac(), f.eth0->mac(),
                                             ether::EtherType::kExperimental, {1}));
  f.net.scheduler().run();
  EXPECT_EQ(got, 1);
}

TEST(PortTable, SendOnMovesATemporaryFrameWithoutCopyingItsPayload) {
  Fixture f;
  int got = 0;
  f.eth1->set_rx_handler([&](const ether::WireFrame& frame) {
    got += frame.frame().payload.size() == 200 ? 1 : 0;
  });
  ether::datapath_counters() = {};
  f.table.send_on(0, ether::Frame::ethernet2(f.eth1->mac(), f.eth0->mac(),
                                             ether::EtherType::kExperimental,
                                             util::ByteBuffer(200, 0x5A)));
  EXPECT_EQ(ether::datapath_counters().bytes_copied, 0u);
  f.net.scheduler().run();
  EXPECT_EQ(got, 1);
}

TEST(PortTable, DeliverToUnboundPortIsANoop) {
  Fixture f;
  f.table.deliver_to_port(0, make_packet(0));  // must not crash
  EXPECT_EQ(f.table.rx_queue_drops(), 0u);
}

}  // namespace
}  // namespace ab::active
