// MonitorSwitchlet: "diagnostic functions can be inserted 'as-needed'"
// (paper section 2). A passive tap on the bridge's switch function that
// keeps per-EtherType, per-source and per-port counters and exposes a
// report through the Func registry. Loading it costs one indirection per
// frame; unloading restores the original path untouched.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/active/switchlet.h"
#include "src/bridge/forwarding.h"

namespace ab::bridge {

/// Aggregated traffic observations.
struct MonitorReport {
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::map<std::uint16_t, std::uint64_t> by_ethertype;  ///< LLC under key 0
  std::unordered_map<ether::MacAddress, std::uint64_t> by_source;
  std::map<active::PortId, std::uint64_t> by_ingress;

  /// The source MAC with the most frames (zero MAC when empty).
  [[nodiscard]] ether::MacAddress top_talker() const;

  /// Human-readable multi-line summary.
  [[nodiscard]] std::string to_string() const;
};

class MonitorSwitchlet final : public active::Switchlet {
 public:
  explicit MonitorSwitchlet(std::shared_ptr<ForwardingPlane> plane);

  [[nodiscard]] std::string_view name() const override { return "bridge.monitor"; }

  void start(active::SafeEnv& env) override;
  void stop() override;

  [[nodiscard]] const MonitorReport& report() const { return report_; }
  void reset() { report_ = MonitorReport{}; }

  /// The plane's received count when start() inserted the tap: frames the
  /// code before this generation handled. Recorded on the bridge's own
  /// clock, so a sharded cell reads it race-free once the window ends;
  /// until reset(), it plus report().frames is the plane's received count.
  [[nodiscard]] std::uint64_t received_at_start() const { return received_at_start_; }

 private:
  std::shared_ptr<ForwardingPlane> plane_;
  active::SafeEnv* env_ = nullptr;
  MonitorReport report_;
  ForwardingPlane::SwitchFunction wrapped_;
  std::uint64_t received_at_start_ = 0;
  bool running_ = false;
};

}  // namespace ab::bridge
