// The Unixnet module: the port-level network interface handed to
// switchlets, mirroring the signature in the paper's Figure 4 (unixnet.mli).
//
//   * input and output are separate capabilities (iport / oport);
//   * bind_in / bind_out attach to a named interface; bind puts the input
//     side into promiscuous mode ("Because we are building a bridge,
//     whenever an input port is bound, it is put into promiscuous mode");
//   * "the first switchlet to bind to a given port succeeds and all others
//     fail" -- a second bind throws AlreadyBound;
//   * get_iport / get_oport bind the next available interface;
//   * iport_to_oport crosses from the input capability to the output one.
//
// Input ports support both the paper's pull model (pkts_waiting /
// get_next_pkt) and a push callback; installing a callback drains and
// bypasses the queue, which is how the bridge's demultiplexer consumes
// frames in this event-driven implementation.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/active/packet.h"
#include "src/netsim/cost_model.h"
#include "src/netsim/nic.h"
#include "src/netsim/scheduler.h"

namespace ab::active {

/// Thrown by bind when the interface is already owned by another switchlet.
class AlreadyBound : public std::runtime_error {
 public:
  explicit AlreadyBound(const std::string& name)
      : std::runtime_error("interface already bound: " + name) {}
};

/// Thrown when no interface by that name (or none at all) is available.
class NoInterface : public std::runtime_error {
 public:
  explicit NoInterface(const std::string& what) : std::runtime_error(what) {}
};

class PortTable;

/// Input capability for one interface (the paper's `iport`).
class InputPort {
 public:
  using Handler = std::function<void(const Packet&)>;

  [[nodiscard]] PortId id() const { return id_; }
  [[nodiscard]] std::string name() const;
  [[nodiscard]] ether::MacAddress mac() const;

  /// pkts_waiting_p_in: frames queued and not yet pulled.
  [[nodiscard]] bool pkts_waiting() const { return !queue_.empty(); }

  /// get_next_pkt_in: pops the oldest queued frame.
  [[nodiscard]] std::optional<Packet> next_packet();

  /// Push-mode delivery; clears any queued backlog into the handler first.
  void set_handler(Handler handler);
  void clear_handler() { handler_ = nullptr; }

 private:
  friend class PortTable;
  InputPort(PortTable& table, PortId id) : table_(&table), id_(id) {}
  void deliver(Packet packet);

  PortTable* table_;
  PortId id_;
  Handler handler_;
  std::deque<Packet> queue_;
  /// Queued frames beyond this limit are dropped (counted by PortTable).
  std::size_t queue_limit_ = 1024;
};

/// Output capability for one interface (the paper's `oport`).
class OutputPort {
 public:
  [[nodiscard]] PortId id() const { return id_; }
  [[nodiscard]] std::string name() const;
  [[nodiscard]] ether::MacAddress mac() const;

  /// ready_to_send_p_out. Our simulated NIC queues internally, so this is
  /// false only when the interface is gone or its queue is saturated.
  [[nodiscard]] bool ready_to_send() const;

  /// send_pkt_out: queues a shared wire buffer for transmission (every
  /// frame -- e.g. one being forwarded -- is queued by refcount, never
  /// re-encoded; see Nic::transmit). Returns false when the NIC's transmit
  /// queue drops it. Frame-typed callers convert implicitly.
  bool send(const ether::WireFrame& frame);

  /// Claims the interface's idle transmitter for `frame` (see
  /// Nic::try_prepare): the returned completion event MUST be scheduled by
  /// the caller -- the bridge's egress TxBatch merges every port's claim
  /// into one timed run. nullopt (busy / queued / detached, no side
  /// effects): fall back to send().
  std::optional<netsim::Scheduler::TimedEntry> prepare(const ether::WireFrame& frame);

  /// The scheduler a claimed completion event must be issued on.
  [[nodiscard]] netsim::Scheduler& scheduler() const;

  /// The interface's NIC: the TxBatch egress path registers it as the
  /// claimant of a prepared completion so the scheduled run's handle can
  /// be reported back (Nic::note_run) for in-place run extension.
  [[nodiscard]] netsim::Nic& nic() const;

 private:
  friend class PortTable;
  OutputPort(PortTable& table, PortId id) : table_(&table), id_(id) {}

  PortTable* table_;
  PortId id_;
};

/// The per-node registry of interfaces and their bind state.
class PortTable {
 public:
  explicit PortTable(netsim::Scheduler& scheduler) : scheduler_(&scheduler) {}

  PortTable(const PortTable&) = delete;
  PortTable& operator=(const PortTable&) = delete;

  /// Makes a NIC available for binding. Interfaces are identified by the
  /// NIC's name ("eth0"...). Returns the assigned PortId.
  PortId add_interface(netsim::Nic& nic);

  [[nodiscard]] std::size_t interface_count() const { return ports_.size(); }

  /// bind_in: claims the named interface for input. Puts the NIC into
  /// promiscuous mode. Throws AlreadyBound / NoInterface.
  InputPort& bind_in(const std::string& name);
  /// get_iport: binds the next unbound interface for input.
  InputPort& get_iport();
  /// unbind_in: releases the input claim and leaves promiscuous mode.
  void unbind_in(PortId id);

  /// bind_out / get_oport / unbind_out: the output-side equivalents.
  OutputPort& bind_out(const std::string& name);
  OutputPort& get_oport();
  void unbind_out(PortId id);

  /// iport_to_oport: output capability for the same interface. The output
  /// side must already be bound (bind both sides first, as the bridge
  /// switchlets do).
  OutputPort& iport_to_oport(const InputPort& in);

  /// Loader-infrastructure transmit, independent of output bindings. The
  /// paper's network loader sits *below* Unixnet (it is part of the loader,
  /// with its own four-layer stack), so its replies do not contend with the
  /// bridge's output claims. Returns false if the NIC dropped the frame.
  /// The frame is moved onto the wire; its payload is not copied.
  bool send_on(PortId id, ether::Frame frame);

  /// Delivers a packet to the InputPort bound on `id` (queue or handler).
  /// Called by the Demux fallback path; no-op if the port is unbound.
  void deliver_to_port(PortId id, const Packet& packet);

  [[nodiscard]] std::string interface_name(PortId id) const;
  [[nodiscard]] ether::MacAddress interface_mac(PortId id) const;
  /// True if `mac` is the address of any of this node's interfaces --
  /// frames so addressed are "destined for an Ethernet card installed on
  /// this machine" (the network loader's capture rule), whichever port
  /// they arrive on.
  [[nodiscard]] bool owns_mac(ether::MacAddress mac) const;
  [[nodiscard]] bool is_bound_in(PortId id) const;
  [[nodiscard]] bool is_bound_out(PortId id) const;
  [[nodiscard]] std::vector<PortId> port_ids() const;

  /// debug_demux_num_devs analog.
  [[nodiscard]] std::size_t bound_in_count() const;

  /// Total frames dropped because an input queue overflowed.
  [[nodiscard]] std::uint64_t rx_queue_drops() const { return rx_queue_drops_; }

  [[nodiscard]] netsim::Scheduler& scheduler() { return *scheduler_; }

 private:
  friend class InputPort;
  friend class OutputPort;

  struct Entry {
    netsim::Nic* nic = nullptr;
    std::unique_ptr<InputPort> in;    ///< non-null while bound for input
    std::unique_ptr<OutputPort> out;  ///< non-null while bound for output
  };

  Entry& entry(PortId id);
  const Entry& entry(PortId id) const;
  Entry* find_by_name(const std::string& name);

  netsim::Scheduler* scheduler_;
  std::vector<Entry> ports_;
  std::uint64_t rx_queue_drops_ = 0;
};

}  // namespace ab::active
