#include "src/ether/frame.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/crc32.h"
#include "src/util/string_util.h"

namespace ab::ether {
namespace {

// EtherType/length discriminator: values >= 0x0600 are Ethernet II types,
// smaller values are 802.3 length fields.
constexpr std::uint16_t kTypeThreshold = 0x0600;
constexpr std::size_t kHeaderSize = 14;
constexpr std::size_t kFcsSize = 4;

}  // namespace

std::string to_string(EtherType type) {
  switch (type) {
    case EtherType::kIpv4:
      return "IPv4";
    case EtherType::kArp:
      return "ARP";
    case EtherType::kDecStp:
      return "DEC-STP";
    case EtherType::kExperimental:
      return "EXP";
    case EtherType::kMultiTreeStp:
      return "MSTP";
  }
  return util::format("0x%04x", static_cast<unsigned>(type));
}

Frame Frame::ethernet2(MacAddress dst, MacAddress src, EtherType type,
                       util::ByteBuffer payload) {
  return ethernet2(dst, src, static_cast<std::uint16_t>(type), std::move(payload));
}

Frame Frame::ethernet2(MacAddress dst, MacAddress src, std::uint16_t type,
                       util::ByteBuffer payload) {
  if (type < kTypeThreshold) {
    throw std::invalid_argument("ethertype below 0x0600 is an 802.3 length");
  }
  Frame f;
  f.dst = dst;
  f.src = src;
  f.ethertype = type;
  f.payload = std::move(payload);
  return f;
}

Frame Frame::llc_frame(MacAddress dst, MacAddress src, LlcHeader llc,
                       util::ByteBuffer payload) {
  Frame f;
  f.dst = dst;
  f.src = src;
  f.llc = llc;
  f.payload = std::move(payload);
  return f;
}

std::size_t Frame::wire_size() const {
  const std::size_t body = payload.size() + (is_llc() ? 3 : 0);
  return kHeaderSize + std::max(body, kMinPayload) + kFcsSize;
}

void Frame::check_encodable() const {
  if (!is_ethernet2() && !is_llc()) {
    throw std::logic_error("Frame has neither ethertype nor LLC header");
  }
  if (payload.size() + (is_llc() ? 3 : 0) > kMaxPayload) {
    throw std::length_error(util::format("payload of %zu bytes exceeds Ethernet MTU",
                                         payload.size()));
  }
}

util::ByteBuffer Frame::encode() const {
  check_encodable();
  datapath_counters().encodes += 1;
  const std::size_t body = payload.size() + (is_llc() ? 3 : 0);

  util::BufWriter w(wire_size());
  dst.write(w);
  src.write(w);
  if (is_llc()) {
    // 802.3: the length field covers LLC header + payload (not padding).
    w.u16(static_cast<std::uint16_t>(body));
    w.u8(llc->dsap).u8(llc->ssap).u8(llc->control);
  } else {
    w.u16(*ethertype);
  }
  w.bytes(payload);
  if (body < kMinPayload) w.zeros(kMinPayload - body);
  w.u32(util::crc32(w.view()));  // the FCS lands in the reserved tail

  util::ByteBuffer bytes = w.take();
  datapath_counters().bytes_copied += bytes.size();
  return bytes;
}

util::Expected<Frame, std::string> Frame::decode(util::ByteView wire) {
  datapath_counters().decodes += 1;
  if (wire.size() < kHeaderSize + kMinPayload + kFcsSize) {
    return util::Unexpected{util::format("runt frame: %zu bytes", wire.size())};
  }
  const util::ByteView covered = wire.first(wire.size() - kFcsSize);
  util::BufReader fcs_reader(wire.subspan(wire.size() - kFcsSize));
  const std::uint32_t got_fcs = fcs_reader.u32();
  datapath_counters().fcs_verifies += 1;
  const std::uint32_t want_fcs = util::crc32(covered);
  if (got_fcs != want_fcs) {
    return util::Unexpected{util::format("bad FCS: got 0x%08x want 0x%08x", got_fcs,
                                         want_fcs)};
  }

  util::BufReader r(covered);
  Frame f;
  f.dst = MacAddress::read(r);
  f.src = MacAddress::read(r);
  const std::uint16_t type_or_len = r.u16();
  if (type_or_len >= kTypeThreshold) {
    f.ethertype = type_or_len;
    // Ethernet II has no length field: any padding stays in the payload,
    // exactly as on real hardware. Upper layers carry their own lengths.
    const util::ByteView rest = r.rest();
    f.payload.assign(rest.begin(), rest.end());
  } else {
    if (type_or_len < 3) {
      return util::Unexpected{std::string("802.3 length shorter than LLC header")};
    }
    if (type_or_len > r.remaining()) {
      return util::Unexpected{util::format("802.3 length %u exceeds frame body %zu",
                                           type_or_len, r.remaining())};
    }
    LlcHeader llc;
    llc.dsap = r.u8();
    llc.ssap = r.u8();
    llc.control = r.u8();
    f.llc = llc;
    // The 802.3 length lets us strip the minimum-frame padding exactly.
    const util::ByteView body = r.view(type_or_len - 3);
    f.payload.assign(body.begin(), body.end());
  }
  datapath_counters().bytes_copied += f.payload.size();
  return f;
}

DatapathCounters& datapath_counters() {
  // Thread-local: sharded cells encode/decode frames from several shard
  // worker threads at once. Each thread accumulates into its own instance
  // (no contention, no torn increments); the single-threaded benches and
  // tests that reset-and-read the counters all run on one thread and see
  // exactly the process-wide totals they always did.
  thread_local DatapathCounters counters;
  return counters;
}

namespace {

/// Receivers reuse the transmit-side parse instead of re-decoding, so it
/// must equal what Frame::decode(encode()) would return: Ethernet II keeps
/// the wire's zero padding in the payload (802.3/LLC strips padding exactly
/// via the length field, so LLC frames need no adjustment).
Frame normalized(Frame frame) {
  if (frame.is_ethernet2() && frame.payload.size() < Frame::kMinPayload) {
    frame.payload.resize(Frame::kMinPayload, 0);
  }
  return frame;
}

}  // namespace

WireFrame::WireFrame(const Frame& frame) {
  datapath_counters().bytes_copied += frame.payload.size();
  auto rep = std::make_shared<Rep>();
  rep->parsed.emplace(normalized(frame));
  rep_ = std::move(rep);
}

WireFrame::WireFrame(Frame&& frame) {
  auto rep = std::make_shared<Rep>();
  rep->parsed.emplace(normalized(std::move(frame)));
  rep_ = std::move(rep);
}

WireFrame WireFrame::from_wire(util::ByteBuffer wire) {
  auto rep = std::make_shared<Rep>();
  rep->wire.emplace(std::move(wire));
  return WireFrame(std::move(rep));
}

const WireFrame::Rep& WireFrame::rep() const {
  if (rep_ == nullptr) throw std::logic_error("empty WireFrame");
  return *rep_;
}

const util::Expected<Frame, std::string>& WireFrame::parsed() const {
  const Rep& r = rep();
  if (!r.parsed) r.parsed.emplace(Frame::decode(*r.wire));
  return *r.parsed;
}

util::ByteView WireFrame::wire() const {
  const Rep& r = rep();
  if (!r.wire) r.wire.emplace(r.parsed->value().encode());
  return *r.wire;
}

void WireFrame::check_encodable() const {
  const Rep& r = rep();
  if (!r.wire) r.parsed->value().check_encodable();
}

std::size_t WireFrame::wire_size() const {
  const Rep& r = rep();
  if (r.wire) return r.wire->size();
  return r.parsed->value().wire_size();
}

std::string Frame::summary() const {
  if (is_llc()) {
    return util::format("%s -> %s LLC %02x/%02x len=%zu", src.to_string().c_str(),
                        dst.to_string().c_str(), llc->dsap, llc->ssap, payload.size());
  }
  return util::format("%s -> %s type=0x%04x len=%zu", src.to_string().c_str(),
                      dst.to_string().c_str(), *ethertype, payload.size());
}

}  // namespace ab::ether
