#include "src/bridge/bpdu.h"

#include "src/util/string_util.h"

namespace ab::bridge {
namespace {

// 802.1D times are carried in units of 1/256 second.
std::uint16_t to_256ths(netsim::Duration d) {
  const auto ns = d.count();
  return static_cast<std::uint16_t>((ns * 256) / 1'000'000'000LL);
}

netsim::Duration from_256ths(std::uint16_t v) {
  return netsim::Duration(static_cast<std::int64_t>(v) * 1'000'000'000LL / 256);
}

void write_bridge_id(util::BufWriter& w, const BridgeId& id) {
  w.u16(id.priority);
  id.mac.write(w);
}

BridgeId read_bridge_id(util::BufReader& r) {
  BridgeId id;
  id.priority = r.u16();
  id.mac = ether::MacAddress::read(r);
  return id;
}

constexpr std::uint8_t kFlagTopologyChange = 0x01;
constexpr std::uint8_t kFlagTcAck = 0x80;

// DEC code byte marking our DEC-style BPDUs (arbitrary but fixed; the point
// is wire incompatibility with 802.1D).
constexpr std::uint8_t kDecCode = 0xE1;

/// An IEEE config BPDU's payload, which its writer reserves up front: the
/// protocol identifier (2), version and type octets, flags, root and
/// bridge IDs (2 + 6 each), root path cost, port ID and the four times
/// (2 each). A TCN stops after the type.
constexpr std::size_t kIeeeConfigSize = 4 + 1 + 8 + 4 + 8 + 2 + 4 * 2;

/// A DEC config BPDU's payload, likewise: code, type and flags octets,
/// bridge ID, port ID, root ID, root path cost and the four times (4
/// each). A TCN stops after the flags.
constexpr std::size_t kDecConfigSize = 3 + 8 + 2 + 8 + 4 + 4 * 4;

}  // namespace

std::string BridgeId::to_string() const {
  return util::format("%04x.%s", priority, mac.to_string().c_str());
}

// ------------------------------------------------------------------- IEEE

ether::Frame IeeeBpduCodec::encode(const Bpdu& bpdu, ether::MacAddress src) const {
  util::BufWriter w(kIeeeConfigSize);
  w.u16(0x0000);  // protocol identifier
  w.u8(0x00);     // version
  w.u8(static_cast<std::uint8_t>(bpdu.type));
  if (bpdu.type == BpduType::kConfig) {
    std::uint8_t flags = 0;
    if (bpdu.topology_change) flags |= kFlagTopologyChange;
    if (bpdu.tc_ack) flags |= kFlagTcAck;
    w.u8(flags);
    write_bridge_id(w, bpdu.root);
    w.u32(bpdu.root_path_cost);
    write_bridge_id(w, bpdu.bridge);
    w.u16(bpdu.port_id);
    w.u16(to_256ths(bpdu.message_age));
    w.u16(to_256ths(bpdu.max_age));
    w.u16(to_256ths(bpdu.hello_time));
    w.u16(to_256ths(bpdu.forward_delay));
  }
  return ether::Frame::llc_frame(group_address(), src,
                                 ether::LlcHeader::spanning_tree(), w.take());
}

util::Expected<Bpdu, std::string> IeeeBpduCodec::decode(
    const ether::Frame& frame) const {
  if (!frame.is_llc() || *frame.llc != ether::LlcHeader::spanning_tree()) {
    return util::Unexpected{std::string("not an 802.1D LLC frame")};
  }
  try {
    util::BufReader r(frame.payload);
    if (r.u16() != 0x0000) {
      return util::Unexpected{std::string("bad STP protocol identifier")};
    }
    if (r.u8() != 0x00) {
      return util::Unexpected{std::string("unsupported STP version")};
    }
    Bpdu bpdu;
    const std::uint8_t type = r.u8();
    if (type == static_cast<std::uint8_t>(BpduType::kTcn)) {
      bpdu.type = BpduType::kTcn;
      return bpdu;
    }
    if (type != static_cast<std::uint8_t>(BpduType::kConfig)) {
      return util::Unexpected{util::format("unknown BPDU type 0x%02x", type)};
    }
    bpdu.type = BpduType::kConfig;
    const std::uint8_t flags = r.u8();
    bpdu.topology_change = (flags & kFlagTopologyChange) != 0;
    bpdu.tc_ack = (flags & kFlagTcAck) != 0;
    bpdu.root = read_bridge_id(r);
    bpdu.root_path_cost = r.u32();
    bpdu.bridge = read_bridge_id(r);
    bpdu.port_id = r.u16();
    bpdu.message_age = from_256ths(r.u16());
    bpdu.max_age = from_256ths(r.u16());
    bpdu.hello_time = from_256ths(r.u16());
    bpdu.forward_delay = from_256ths(r.u16());
    return bpdu;
  } catch (const util::BufferUnderflow& e) {
    return util::Unexpected{std::string("truncated 802.1D BPDU: ") + e.what()};
  }
}

// -------------------------------------------------------------------- DEC

ether::Frame DecBpduCodec::encode(const Bpdu& bpdu, ether::MacAddress src) const {
  // Deliberately different layout: code byte first, bridge before root,
  // 32-bit millisecond times. Wire-incompatible with 802.1D by design.
  util::BufWriter w(kDecConfigSize);
  w.u8(kDecCode);
  w.u8(bpdu.type == BpduType::kTcn ? 0x02 : 0x01);
  std::uint8_t flags = 0;
  if (bpdu.topology_change) flags |= 0x01;
  if (bpdu.tc_ack) flags |= 0x02;
  w.u8(flags);
  if (bpdu.type == BpduType::kConfig) {
    write_bridge_id(w, bpdu.bridge);
    w.u16(bpdu.port_id);
    write_bridge_id(w, bpdu.root);
    w.u32(bpdu.root_path_cost);
    w.u32(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(bpdu.message_age)
            .count()));
    w.u32(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(bpdu.max_age).count()));
    w.u32(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(bpdu.hello_time)
            .count()));
    w.u32(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(bpdu.forward_delay)
            .count()));
  }
  return ether::Frame::ethernet2(group_address(), src, ether::EtherType::kDecStp,
                                 w.take());
}

util::Expected<Bpdu, std::string> DecBpduCodec::decode(
    const ether::Frame& frame) const {
  if (!frame.has_type(ether::EtherType::kDecStp)) {
    return util::Unexpected{std::string("not a DEC spanning-tree frame")};
  }
  try {
    util::BufReader r(frame.payload);
    if (r.u8() != kDecCode) {
      return util::Unexpected{std::string("bad DEC code byte")};
    }
    const std::uint8_t type = r.u8();
    const std::uint8_t flags = r.u8();
    Bpdu bpdu;
    bpdu.topology_change = (flags & 0x01) != 0;
    bpdu.tc_ack = (flags & 0x02) != 0;
    if (type == 0x02) {
      bpdu.type = BpduType::kTcn;
      return bpdu;
    }
    if (type != 0x01) {
      return util::Unexpected{util::format("unknown DEC BPDU type 0x%02x", type)};
    }
    bpdu.type = BpduType::kConfig;
    bpdu.bridge = read_bridge_id(r);
    bpdu.port_id = r.u16();
    bpdu.root = read_bridge_id(r);
    bpdu.root_path_cost = r.u32();
    bpdu.message_age = std::chrono::milliseconds(r.u32());
    bpdu.max_age = std::chrono::milliseconds(r.u32());
    bpdu.hello_time = std::chrono::milliseconds(r.u32());
    bpdu.forward_delay = std::chrono::milliseconds(r.u32());
    return bpdu;
  } catch (const util::BufferUnderflow& e) {
    return util::Unexpected{std::string("truncated DEC BPDU: ") + e.what()};
  }
}

}  // namespace ab::bridge
