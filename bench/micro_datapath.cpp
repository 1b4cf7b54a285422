// Microbenchmarks over the real data-path code: what a frame actually costs
// in this implementation (the analog of the paper's per-frame
// instrumentation in sections 7.2/7.3, but for our C++ path instead of the
// Caml interpreter).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "src/bridge/bpdu.h"
#include "src/bridge/bridge_node.h"
#include "src/bridge/learning.h"
#include "src/ether/frame.h"
#include "src/netsim/network.h"
#include "src/active/demux.h"
#include "src/util/crc32.h"
#include "src/util/md5.h"
#include "src/util/string_util.h"

using namespace ab;

namespace {

void BM_FrameEncode(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const ether::Frame f = ether::Frame::ethernet2(
      ether::MacAddress::local(1, 0), ether::MacAddress::local(2, 0),
      ether::EtherType::kIpv4, util::ByteBuffer(size, 0x5A));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.encode());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_FrameEncode)->Arg(64)->Arg(512)->Arg(1500);

void BM_FrameDecode(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const util::ByteBuffer wire =
      ether::Frame::ethernet2(ether::MacAddress::local(1, 0),
                              ether::MacAddress::local(2, 0), ether::EtherType::kIpv4,
                              util::ByteBuffer(size, 0x5A))
          .encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ether::Frame::decode(wire));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_FrameDecode)->Arg(64)->Arg(512)->Arg(1500);

// The fan-out contrast at the heart of the zero-copy refactor: queueing one
// shared WireFrame per port versus re-encoding the frame per port (what the
// seed datapath did).
void BM_FanoutSharedWireFrame(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const ether::Frame f = ether::Frame::ethernet2(
      ether::MacAddress::broadcast(), ether::MacAddress::local(2, 0),
      ether::EtherType::kIpv4, util::ByteBuffer(size, 0x5A));
  for (auto _ : state) {
    ether::WireFrame wf(f);
    std::size_t total = 0;
    for (int port = 0; port < 8; ++port) {
      ether::WireFrame queued = wf;  // what each NIC's tx queue stores
      total += queued.wire().size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_FanoutSharedWireFrame)->Arg(64)->Arg(1500);

void BM_FanoutPerPortEncode(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const ether::Frame f = ether::Frame::ethernet2(
      ether::MacAddress::broadcast(), ether::MacAddress::local(2, 0),
      ether::EtherType::kIpv4, util::ByteBuffer(size, 0x5A));
  for (auto _ : state) {
    std::size_t total = 0;
    for (int port = 0; port < 8; ++port) total += f.encode().size();
    benchmark::DoNotOptimize(total);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_FanoutPerPortEncode)->Arg(64)->Arg(1500);

void BM_MacTableLearnLookup(benchmark::State& state) {
  bridge::MacTable table;
  const netsim::TimePoint now{};
  std::vector<ether::MacAddress> macs;
  for (std::uint32_t i = 0; i < 1024; ++i) macs.push_back(ether::MacAddress::local(i, 0));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& mac = macs[i++ & 1023];
    table.learn(mac, 1, now);
    benchmark::DoNotOptimize(table.lookup(mac, now));
  }
}
BENCHMARK(BM_MacTableLearnLookup);

void BM_DemuxDispatch(benchmark::State& state) {
  netsim::Network net;
  auto& lan = net.add_segment("lan");
  auto& nic = net.add_nic("eth0", lan);
  active::PortTable table(net.scheduler());
  table.add_interface(nic);
  active::Demux demux(table);
  auto& in = table.bind_in("eth0");
  std::uint64_t count = 0;
  in.set_handler([&count](const active::Packet&) { ++count; });
  demux.register_address(ether::MacAddress::all_bridges(),
                         [&count](const active::Packet&) { ++count; });

  active::Packet p;
  p.wire = ether::Frame::ethernet2(ether::MacAddress::broadcast(),
                                   ether::MacAddress::local(9, 9),
                                   ether::EtherType::kExperimental, {1, 2, 3});
  p.ingress = 0;
  for (auto _ : state) {
    demux.dispatch(p);
  }
  benchmark::DoNotOptimize(count);
}
BENCHMARK(BM_DemuxDispatch);

void BM_BpduEncodeDecodeIeee(benchmark::State& state) {
  const bridge::IeeeBpduCodec codec;
  bridge::Bpdu b;
  b.root = bridge::BridgeId{0x8000, ether::MacAddress::local(1, 0)};
  b.bridge = bridge::BridgeId{0x8000, ether::MacAddress::local(2, 0)};
  for (auto _ : state) {
    const ether::Frame f = codec.encode(b, ether::MacAddress::local(2, 0));
    benchmark::DoNotOptimize(codec.decode(f));
  }
}
BENCHMARK(BM_BpduEncodeDecodeIeee);

void BM_BpduEncodeDecodeDec(benchmark::State& state) {
  const bridge::DecBpduCodec codec;
  bridge::Bpdu b;
  b.root = bridge::BridgeId{0x8000, ether::MacAddress::local(1, 0)};
  b.bridge = bridge::BridgeId{0x8000, ether::MacAddress::local(2, 0)};
  for (auto _ : state) {
    const ether::Frame f = codec.encode(b, ether::MacAddress::local(2, 0));
    benchmark::DoNotOptimize(codec.decode(f));
  }
}
BENCHMARK(BM_BpduEncodeDecodeDec);

void BM_Crc32(benchmark::State& state) {
  const util::ByteBuffer data(static_cast<std::size_t>(state.range(0)), 0xA7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1500);

void BM_Md5(benchmark::State& state) {
  const util::ByteBuffer data(static_cast<std::size_t>(state.range(0)), 0xA7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::md5(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5)->Arg(64)->Arg(4096);

// ---------------------------------------------------------------------------
// Datapath work accounting: flood one frame across an 8-port bridge and
// count the encodes, CRC computations, and bytes copied via the
// ether::DatapathCounters instrumentation, twice: untapped (nothing reads
// wire bytes, so none are built) and with a tap on one egress segment (the
// one reader forces the one encode the whole fan-out shares). Both go
// against the seed datapath's per-hop re-encode/re-decode cost for the same
// topology. Written to BENCH_datapath.json so later PRs have a perf
// trajectory to compare against.

struct FloodAccounting {
  std::uint64_t encodes = 0;
  std::uint64_t crc_computations = 0;  ///< FCS generated (encode) + verified
  std::uint64_t bytes_copied = 0;
  std::size_t deliveries = 0;
};

FloodAccounting measure_flood(int ports, std::size_t payload_len, bool tapped) {
  netsim::Network net;
  bridge::BridgeNode node(net.scheduler());
  netsim::Nic* host = nullptr;
  netsim::LanSegment* egress = nullptr;
  std::size_t deliveries = 0;
  for (int i = 0; i < ports; ++i) {
    auto& lan = net.add_segment("lan" + std::to_string(i));
    auto& nic = net.add_nic(util::format("b%d", i), lan);
    node.add_port(nic);
    if (i == 0) {
      host = &net.add_nic("host", lan);
    } else {
      egress = &lan;
      auto& peer = net.add_nic("peer" + std::to_string(i), lan);
      peer.set_rx_handler([&deliveries](const ether::WireFrame&) { ++deliveries; });
    }
  }
  node.load_dumb();
  if (tapped) {
    egress->set_frame_tap([](netsim::TimePoint, const netsim::Nic*, util::ByteView) {});
  }

  ether::datapath_counters() = {};
  host->transmit(ether::Frame::ethernet2(ether::MacAddress::broadcast(),
                                         host->mac(), ether::EtherType::kExperimental,
                                         util::ByteBuffer(payload_len, 0x5C)));
  net.scheduler().run();

  const ether::DatapathCounters& c = ether::datapath_counters();
  FloodAccounting out;
  out.encodes = c.encodes;
  out.crc_computations = c.encodes + c.fcs_verifies;  // encode computes one FCS
  out.bytes_copied = c.bytes_copied;
  out.deliveries = deliveries;
  return out;
}

/// What the seed datapath spent on the same flood: one encode per transmit
/// (host + every egress port) and one decode per receiving NIC (the bridge
/// port + every peer), each decode verifying the FCS and copying the
/// payload out of the wire buffer.
FloodAccounting seed_model(int ports, std::size_t payload_len) {
  const ether::Frame f = ether::Frame::ethernet2(
      ether::MacAddress::broadcast(), ether::MacAddress::local(1, 0),
      ether::EtherType::kExperimental, util::ByteBuffer(payload_len, 0x5C));
  const auto egress = static_cast<std::uint64_t>(ports - 1);
  FloodAccounting out;
  out.encodes = 1 + egress;                    // host + per-port re-encode
  out.crc_computations = out.encodes + (1 + egress);  // + per-NIC verify
  out.bytes_copied = out.encodes * f.wire_size() + (1 + egress) * payload_len;
  out.deliveries = egress;
  return out;
}

std::string accounting_json(const FloodAccounting& a) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"encodes\": %" PRIu64 ", \"crc_computations\": %" PRIu64
                ", \"bytes_copied\": %" PRIu64 "}",
                a.encodes, a.crc_computations, a.bytes_copied);
  return buf;
}

/// Writes the report; returns false when the flood broke the lazy-encode
/// contract: the untapped flood must not encode at all, the tapped one
/// exactly once, and both must reach every peer.
bool write_datapath_report(const char* path) {
  constexpr int kPorts = 8;
  constexpr std::size_t kPayload = 1000;
  const FloodAccounting untapped = measure_flood(kPorts, kPayload, false);
  const FloodAccounting tapped = measure_flood(kPorts, kPayload, true);
  const FloodAccounting seed = seed_model(kPorts, kPayload);
  bool ok = true;
  for (const FloodAccounting* run : {&untapped, &tapped}) {
    if (run->deliveries != seed.deliveries) {
      std::fprintf(stderr, "flood accounting: expected %zu deliveries, got %zu\n",
                   seed.deliveries, run->deliveries);
      ok = false;
    }
  }
  if (untapped.encodes != 0) {
    std::fprintf(stderr,
                 "flood accounting: untapped flood encoded %" PRIu64
                 " time(s); nothing reads its bytes, so it must encode 0\n",
                 untapped.encodes);
    ok = false;
  }
  if (tapped.encodes != 1) {
    std::fprintf(stderr,
                 "flood accounting: tapped flood encoded %" PRIu64
                 " time(s); the fan-out must share exactly 1\n",
                 tapped.encodes);
    ok = false;
  }
  // Against the tapped flood: the untapped one copies nothing, which has no
  // finite ratio. max() keeps the JSON valid even if a regression makes the
  // tapped flood copy nothing too (the exit status reports that case).
  const auto tapped_bytes = std::max<std::uint64_t>(tapped.bytes_copied, 1);
  const double copy_ratio =
      static_cast<double>(seed.bytes_copied) / static_cast<double>(tapped_bytes);

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(f,
               "{\n"
               "  \"experiment\": \"flood_8_port_bridge\",\n"
               "  \"ports\": %d,\n"
               "  \"payload_bytes\": %zu,\n"
               "  \"deliveries\": %zu,\n"
               "  \"untapped\": %s,\n"
               "  \"tapped\": %s,\n"
               "  \"seed_model\": %s,\n"
               "  \"bytes_copied_improvement\": %.2f\n"
               "}\n",
               kPorts, kPayload, untapped.deliveries,
               accounting_json(untapped).c_str(), accounting_json(tapped).c_str(),
               accounting_json(seed).c_str(), copy_ratio);
  std::fclose(f);
  std::printf("flood across %d-port bridge: untapped %" PRIu64 " encode(s), %" PRIu64
              " bytes copied; tapped %" PRIu64 " encode(s), %" PRIu64
              " CRC computation(s), %" PRIu64 " bytes copied (seed path: %" PRIu64
              " encodes, %" PRIu64 " CRCs, %" PRIu64
              " bytes; %.1fx fewer bytes copied tapped)\n",
              kPorts, untapped.encodes, untapped.bytes_copied, tapped.encodes,
              tapped.crc_computations, tapped.bytes_copied, seed.encodes,
              seed.crc_computations, seed.bytes_copied, copy_ratio);
  std::printf("wrote %s\n", path);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool accounting_ok = write_datapath_report("BENCH_datapath.json");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return accounting_ok ? 0 : 1;
}
