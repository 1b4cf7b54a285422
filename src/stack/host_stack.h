// HostStack: the endpoint protocol stack for simulated hosts -- the stand-in
// for the "Intel Pentiums running with a version 2.0.28 Linux kernel" that
// terminate the paper's ping and ttcp flows.
//
// It binds to one NIC and provides: ARP resolution (with request queueing
// and retry), IPv4 send/receive *including* fragmentation and reassembly
// (unlike the active node's deliberately minimal IP), an ICMP echo
// responder plus client, and a tiny UDP socket API. Transmissions pass
// through a per-host ProcessingElement so benchmarks can charge the 1997
// host's per-frame software cost.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/netsim/cost_model.h"
#include "src/netsim/nic.h"
#include "src/netsim/scheduler.h"
#include "src/stack/arp.h"
#include "src/stack/icmp.h"
#include "src/stack/ipv4.h"
#include "src/stack/tcp.h"
#include "src/stack/udp.h"
#include "src/util/log.h"

namespace ab::stack {

/// Per-host configuration.
struct HostConfig {
  Ipv4Addr ip;
  /// Maximum IP packet per frame; larger sends fragment.
  std::size_t mtu = 1500;
  /// Answer echo requests (the ping responder).
  bool answer_ping = true;
  /// Software cost of the host's send path (per frame). CostModel::ideal()
  /// for correctness tests; CostModel::linux_host() for the paper benches.
  netsim::CostModel tx_cost = netsim::CostModel::ideal();
  /// Incomplete reassemblies are discarded after this long.
  netsim::Duration reassembly_timeout = netsim::seconds(30);
  /// ARP retransmit interval and attempt limit.
  netsim::Duration arp_retry = netsim::milliseconds(500);
  int arp_max_tries = 3;
  /// Flooded copies of the same ARP packet heard within this window are
  /// duplicates: the cache entry is not rewritten (its age would silently
  /// reset per copy) and a duplicate request draws no extra reply --
  /// mirroring the netloader's reply suppression. Kept well below
  /// arp_retry so genuine retries (a lost reply) still get answered.
  netsim::Duration arp_dedupe_window = netsim::milliseconds(10);
  /// Pre-size the ARP cache for this many expected peers (0: grow on
  /// demand). Keep it proportional to the peers this host will actually
  /// resolve, not the station population — the buckets are per-host
  /// memory.
  std::size_t arp_cache_reserve = 0;
};

/// Counters for assertions and benchmarks.
struct HostStats {
  std::uint64_t arp_requests_sent = 0;
  std::uint64_t arp_replies_sent = 0;
  /// Flooded duplicate ARP packets naming us (reply or request) suppressed
  /// within the dedupe window instead of rewriting the cache entry.
  std::uint64_t arp_duplicate_replies = 0;
  std::uint64_t ip_packets_sent = 0;    ///< pre-fragmentation
  std::uint64_t fragments_sent = 0;     ///< frames carrying a fragment
  std::uint64_t reassemblies_done = 0;
  std::uint64_t reassemblies_dropped = 0;
  std::uint64_t udp_delivered = 0;
  std::uint64_t tcp_delivered = 0;  ///< segments handed to a socket (incl. accepts)
  /// TCP segments for which no connection or listener existed (dropped).
  std::uint64_t tcp_no_socket_drops = 0;
  std::uint64_t echo_requests_answered = 0;
  std::uint64_t echo_replies_received = 0;
  std::uint64_t rx_parse_errors = 0;
  std::uint64_t unresolved_drops = 0;  ///< packets dropped: ARP never resolved

  friend bool operator==(const HostStats&, const HostStats&) = default;
};

class HostStack {
 public:
  /// Delivered UDP traffic: source address plus the datagram.
  using UdpHandler = std::function<void(Ipv4Addr src_ip, const UdpDatagram& datagram)>;

  /// A received echo reply.
  struct EchoReply {
    Ipv4Addr from;
    std::uint16_t id = 0;
    std::uint16_t seq = 0;
    util::ByteBuffer payload;
  };
  using EchoHandler = std::function<void(const EchoReply&)>;

  HostStack(netsim::Scheduler& scheduler, netsim::Nic& nic, HostConfig config,
            util::Logger* log = nullptr);

  [[nodiscard]] Ipv4Addr ip() const { return config_.ip; }
  [[nodiscard]] netsim::Nic& nic() { return *nic_; }
  /// The scheduler this host runs on. In a sharded cell each shard has its
  /// own scheduler, so workloads must schedule per-host work HERE, never on
  /// a global clock.
  [[nodiscard]] netsim::Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] const HostStats& stats() const { return stats_; }
  /// The transmit processing element.
  [[nodiscard]] netsim::ProcessingElement& tx_element() { return tx_pe_; }

  /// Binds a UDP port. Throws std::invalid_argument if already bound.
  void bind_udp(std::uint16_t port, UdpHandler handler);
  void unbind_udp(std::uint16_t port);

  /// Sends a UDP datagram (fragmenting if payload + headers exceed the MTU).
  void send_udp(Ipv4Addr dst, std::uint16_t src_port, std::uint16_t dst_port,
                util::ByteBuffer payload);

  /// A connection accepted by tcp_listen. The socket is owned by this host;
  /// set handlers inside the callback (it runs before the SYN is processed,
  /// so no event can be missed).
  using TcpAcceptHandler = std::function<void(TcpSocket&)>;

  /// Opens an active TCP connection from `src_port` to dst:dst_port and
  /// returns the socket (owned by this host for its lifetime; stats remain
  /// readable after close). Throws std::invalid_argument if a connection
  /// with the same (src_port, dst, dst_port) key already exists.
  TcpSocket& tcp_connect(Ipv4Addr dst, std::uint16_t dst_port,
                         std::uint16_t src_port, TcpConfig config = {});
  /// Listens for TCP connections on `port`: each inbound SYN creates a
  /// socket and invokes `on_accept`. Throws std::invalid_argument if the
  /// port is already listening.
  void tcp_listen(std::uint16_t port, TcpAcceptHandler on_accept,
                  TcpConfig config = {});
  void tcp_unlisten(std::uint16_t port);

  /// Receives every echo reply addressed to this host.
  void set_echo_handler(EchoHandler handler);

  /// Sends an ICMP echo request (ping).
  void send_echo_request(Ipv4Addr dst, std::uint16_t id, std::uint16_t seq,
                         util::ByteBuffer payload);

 private:
  struct PendingArp {
    std::vector<util::ByteBuffer> queued_ip_packets;
    int tries = 0;
  };
  struct ReassemblyKey {
    Ipv4Addr src;
    std::uint16_t id;
    std::uint8_t proto;
    friend auto operator<=>(const ReassemblyKey&, const ReassemblyKey&) = default;
  };
  struct Reassembly {
    std::map<std::size_t, util::ByteBuffer> holes;  ///< offset -> bytes
    std::size_t total_len = SIZE_MAX;               ///< known once last frag seen
    netsim::TimePoint started{};
  };

  /// Demux key for one TCP connection.
  struct TcpKey {
    std::uint16_t local_port = 0;
    Ipv4Addr remote_ip;
    std::uint16_t remote_port = 0;
    friend auto operator<=>(const TcpKey&, const TcpKey&) = default;
  };
  struct TcpListener {
    TcpAcceptHandler on_accept;
    TcpConfig config;
  };

  /// Creates and registers a socket for `key` (must not exist yet).
  TcpSocket& make_tcp_socket(const TcpKey& key, TcpConfig config);

  void on_frame(const ether::Frame& frame);
  void handle_arp(util::ByteView payload);
  void handle_ipv4(util::ByteView payload);
  void deliver(const Ipv4Header& header, util::ByteView payload);
  /// Parks a fragment's payload (a copy: it outlives the frame) and
  /// delivers the datagram once every byte has arrived.
  void handle_reassembly(const Ipv4Header& header, util::ByteView payload);

  /// Sends a transport message built behind Ipv4Header::kSize bytes of
  /// headroom: writes the IP header into the headroom in place when the
  /// packet fits the MTU, else cuts it into fragments (copies), and routes
  /// the result through ARP.
  void send_ipv4(IpProto proto, Ipv4Addr dst, util::ByteBuffer packet);
  void transmit_ip_packet(Ipv4Addr dst, util::ByteBuffer packet);
  /// The fragment-train path: one ARP lookup for the whole burst, and the
  /// resolved (or later flushed) frames pace through the processing
  /// element as ONE timed run -- a K-fragment write costs one scheduler
  /// insert where K transmit_ip_packet calls cost K.
  void transmit_ip_burst(Ipv4Addr dst, std::vector<util::ByteBuffer> packets);
  void send_arp_request(Ipv4Addr target);
  void transmit_frame(ether::MacAddress dst, ether::EtherType type,
                      util::ByteBuffer payload);
  /// Burst form of transmit_frame (same pacing, one scheduler insert).
  void transmit_frame_burst(ether::MacAddress dst, ether::EtherType type,
                            std::vector<util::ByteBuffer> payloads);

  netsim::Scheduler* scheduler_;
  netsim::Nic* nic_;
  HostConfig config_;
  util::Logger* log_;
  netsim::ProcessingElement tx_pe_;
  ArpCache arp_cache_;
  std::uint16_t next_ip_id_ = 1;
  HostStats stats_;
  std::unordered_map<Ipv4Addr, PendingArp> pending_arp_;
  /// Flooded duplicate copies of one request draw a single reply per
  /// dedupe window (shared implementation with the netloader).
  ArpReplySuppressor arp_reply_suppressor_;
  std::unordered_map<std::uint16_t, UdpHandler> udp_handlers_;
  /// Connections live here for the host's lifetime so workloads can read
  /// final stats after teardown; runs are cell-scoped, so closed sockets
  /// are cheap residue, not a leak.
  std::map<TcpKey, std::unique_ptr<TcpSocket>> tcp_sockets_;
  std::unordered_map<std::uint16_t, TcpListener> tcp_listeners_;
  std::map<ReassemblyKey, Reassembly> reassemblies_;
  EchoHandler echo_handler_;
};

}  // namespace ab::stack
