// The packet record switchlets operate on -- the C++ rendering of the type
// in the paper's Figure 4:
//
//   type packet = { len : int; addr : Safeunix.sockaddr; pkt : string }
//
// The Caml version carried raw bytes plus the socket address they arrived
// on; here the frame arrives as a shared WireFrame (our simulated NIC
// already triggered the one shared decode + FCS check) and `ingress`
// identifies the input port.
//
// The WireFrame travels with the packet so a switchlet that merely forwards
// (flood, send_to) hands the same shared frame back to the NICs and never
// touches payload bytes; only switchlets that inspect the frame call
// frame(), which reads the cached parse.
#pragma once

#include <cstdint>

#include "src/ether/frame.h"
#include "src/netsim/time.h"

namespace ab::active {

/// Identifies a bound port within one active node's port table.
using PortId = std::uint16_t;

/// Sentinel for "no port" (e.g. packets injected by tests).
inline constexpr PortId kNoPort = 0xFFFF;

/// One received frame, as presented to switchlets. Copying a Packet shares
/// the wire buffer (see WireFrame's ownership rules in ether/frame.h).
struct Packet {
  ether::WireFrame wire;  ///< valid (ok()) on every delivered packet
  PortId ingress = kNoPort;
  netsim::TimePoint received_at{};

  /// The parsed frame (the WireFrame's cached parse).
  [[nodiscard]] const ether::Frame& frame() const { return wire.frame(); }

  [[nodiscard]] std::size_t len() const { return frame().payload.size(); }
};

}  // namespace ab::active
