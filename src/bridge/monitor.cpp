#include "src/bridge/monitor.h"

#include <algorithm>

#include "src/util/string_util.h"

namespace ab::bridge {

ether::MacAddress MonitorReport::top_talker() const {
  ether::MacAddress best;
  std::uint64_t best_count = 0;
  for (const auto& [mac, count] : by_source) {
    if (count > best_count || (count == best_count && mac < best)) {
      best = mac;
      best_count = count;
    }
  }
  return best;
}

std::string MonitorReport::to_string() const {
  std::string out = util::format("%llu frames, %llu bytes\n",
                                 static_cast<unsigned long long>(frames),
                                 static_cast<unsigned long long>(bytes));
  for (const auto& [type, count] : by_ethertype) {
    out += util::format("  ethertype 0x%04x: %llu\n", type,
                        static_cast<unsigned long long>(count));
  }
  for (const auto& [port, count] : by_ingress) {
    out += util::format("  port %u: %llu\n", port,
                        static_cast<unsigned long long>(count));
  }
  return out;
}

MonitorSwitchlet::MonitorSwitchlet(std::shared_ptr<ForwardingPlane> plane)
    : plane_(std::move(plane)) {
  if (!plane_) throw std::invalid_argument("MonitorSwitchlet: null plane");
}

void MonitorSwitchlet::start(active::SafeEnv& env) {
  env_ = &env;
  received_at_start_ = plane_->stats().received;
  wrapped_ = plane_->set_switch_function([this](const active::Packet& p) {
    const ether::Frame& frame = p.frame();
    report_.frames += 1;
    report_.bytes += frame.payload.size();
    report_.by_ethertype[frame.is_ethernet2() ? *frame.ethertype : 0] += 1;
    report_.by_source[frame.src] += 1;
    report_.by_ingress[p.ingress] += 1;
    if (wrapped_) wrapped_(p);
  });
  env.funcs().register_func("bridge.monitor.report", [this](const std::string&) {
    return report_.to_string();
  });
  env.funcs().register_func("bridge.monitor.reset", [this](const std::string&) {
    reset();
    return std::string("reset");
  });
  running_ = true;
  env.log().info("bridge.monitor", "diagnostic tap inserted");
}

void MonitorSwitchlet::stop() {
  if (!running_) return;
  plane_->set_switch_function(std::move(wrapped_));
  env_->funcs().unregister_func("bridge.monitor.report");
  env_->funcs().unregister_func("bridge.monitor.reset");
  running_ = false;
}

}  // namespace ab::bridge
