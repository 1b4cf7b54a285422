#include "src/active/netloader.h"

#include "src/stack/arp.h"
#include "src/stack/udp.h"
#include "src/util/string_util.h"

namespace ab::active {

NetLoaderSwitchlet::NetLoaderSwitchlet(NetLoaderConfig config, SwitchletLoader& loader)
    : config_(config), loader_(&loader) {
  if (config_.ip.is_zero()) {
    throw std::invalid_argument("NetLoaderSwitchlet: zero IP address");
  }
}

void NetLoaderSwitchlet::start(SafeEnv& env) {
  env_ = &env;
  // Layer 1: Ethernet protocol demux for node-destined frames.
  env.demux().register_ethertype(ether::EtherType::kArp,
                                 [this](const Packet& p) { on_arp(p); });
  env.demux().register_ethertype(ether::EtherType::kIpv4,
                                 [this](const Packet& p) { on_ipv4(p); });
  // Layer 4: the write-only TFTP server feeding the switchlet loader.
  tftp_ = std::make_unique<stack::TftpServer>(
      // The Timers capability wraps the node's scheduler; TftpServer needs
      // the scheduler itself only for timeouts, so the port table's
      // scheduler reference serves.
      env.ports().scheduler(),
      [this](const stack::TftpEndpoint& peer, std::uint16_t local_port,
             util::ByteBuffer packet) {
        send_udp_to(peer, local_port, std::move(packet));
      },
      [this](const std::string& filename, util::ByteBuffer contents) {
        stats_.files_received += 1;
        stats_.bytes_received += contents.size();
        env_->log().info("loader.net", util::format("TFTP delivered %s (%zu bytes)",
                                                    filename.c_str(), contents.size()));
        auto loaded = loader_->load_bytes(contents);
        if (loaded) {
          stats_.switchlets_loaded += 1;
          stats_.last_loaded = std::string(loaded.value()->name());
        } else {
          stats_.switchlet_load_failures += 1;
          env_->log().warn("loader.net", "load failed: " + loaded.error());
        }
      },
      &env.log());
  running_ = true;
  env.log().info("loader.net",
                 "network loader up at " + config_.ip.to_string() + " (TFTP/69)");
}

void NetLoaderSwitchlet::stop() {
  if (!running_) return;
  env_->demux().unregister_ethertype(ether::EtherType::kArp);
  env_->demux().unregister_ethertype(ether::EtherType::kIpv4);
  tftp_.reset();
  running_ = false;
}

void NetLoaderSwitchlet::on_arp(const Packet& packet) {
  if (!running_ || packet.ingress == kNoPort) return;
  auto decoded = stack::ArpPacket::decode(packet.frame().payload);
  if (!decoded) return;
  const stack::ArpPacket& arp = decoded.value();
  if (arp.op != stack::ArpOp::kRequest || arp.target_ip != config_.ip) return;
  // A bridge hears one flooded broadcast once per attached segment, and
  // every copy used to draw a reply advertising that ingress port's MAC --
  // so the querier's ARP cache flapped between the loader's port
  // identities, sometimes mid-transfer. Answer only the first copy of a
  // burst: the suppression window is well below the host stack's ARP
  // retry interval, so genuine retries (lost replies) still get answered.
  const netsim::TimePoint now = env_->ports().scheduler().now();
  if (arp_reply_suppressor_.should_suppress(arp.sender_ip, now,
                                            kArpReplySuppression)) {
    stats_.arp_duplicates_suppressed += 1;
    return;
  }
  stats_.arp_replies += 1;
  const ether::MacAddress my_mac = env_->ports().interface_mac(packet.ingress);
  const stack::ArpPacket reply = arp.make_reply(my_mac);
  env_->ports().send_on(packet.ingress,
                        ether::Frame::ethernet2(arp.sender_mac, my_mac,
                                                ether::EtherType::kArp, reply.encode()));
}

void NetLoaderSwitchlet::on_ipv4(const Packet& packet) {
  if (!running_ || packet.ingress == kNoPort) return;
  auto decoded = stack::Ipv4Header::decode(packet.frame().payload);
  if (!decoded) return;
  const stack::Ipv4Header& h = decoded->header;
  if (h.dst != config_.ip) return;
  stats_.ip_received += 1;

  // Layer 2, the paper's minimal IP: no fragmentation support.
  if (h.is_fragment()) {
    stats_.fragments_dropped += 1;
    return;
  }
  if (static_cast<stack::IpProto>(h.protocol) != stack::IpProto::kUdp) {
    stats_.non_udp_dropped += 1;
    return;
  }

  // Layer 3: minimal UDP.
  auto datagram = stack::decode_udp(h.src, h.dst, decoded->payload);
  if (!datagram) return;
  if (datagram->dst_port != stack::TftpServer::kWellKnownPort) return;
  stats_.udp_delivered += 1;

  // Remember how to reach this peer for the reply path.
  const stack::TftpEndpoint peer{h.src, datagram->src_port};
  routes_[peer] = PeerRoute{packet.frame().src, packet.ingress};

  tftp_->on_datagram(peer, datagram->dst_port, datagram->payload);
}

void NetLoaderSwitchlet::send_udp_to(const stack::TftpEndpoint& peer,
                                     std::uint16_t local_port,
                                     util::ByteBuffer payload) {
  const auto it = routes_.find(peer);
  if (it == routes_.end()) return;  // never heard from this peer
  stack::UdpDatagram d;
  d.src_port = local_port;
  d.dst_port = peer.port;
  d.payload = std::move(payload);
  util::ByteBuffer packet = stack::encode_udp(config_.ip, peer.ip, d);
  stack::Ipv4Header h;
  h.protocol = static_cast<std::uint8_t>(stack::IpProto::kUdp);
  h.src = config_.ip;
  h.dst = peer.ip;
  h.write_in_place(packet);
  const ether::MacAddress my_mac = env_->ports().interface_mac(it->second.port);
  env_->ports().send_on(it->second.port,
                        ether::Frame::ethernet2(it->second.mac, my_mac,
                                                ether::EtherType::kIpv4,
                                                std::move(packet)));
}

}  // namespace ab::active
