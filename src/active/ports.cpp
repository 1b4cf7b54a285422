#include "src/active/ports.h"

#include <algorithm>

namespace ab::active {

// --------------------------------------------------------------- InputPort

std::string InputPort::name() const { return table_->interface_name(id_); }
ether::MacAddress InputPort::mac() const { return table_->interface_mac(id_); }

std::optional<Packet> InputPort::next_packet() {
  if (queue_.empty()) return std::nullopt;
  Packet p = std::move(queue_.front());
  queue_.pop_front();
  return p;
}

void InputPort::set_handler(Handler handler) {
  handler_ = std::move(handler);
  if (!handler_) return;
  // Drain any backlog accumulated in pull mode.
  while (!queue_.empty()) {
    Packet p = std::move(queue_.front());
    queue_.pop_front();
    handler_(p);
  }
}

void InputPort::deliver(Packet packet) {
  if (handler_) {
    handler_(packet);
    return;
  }
  if (queue_.size() >= queue_limit_) {
    table_->rx_queue_drops_ += 1;
    return;
  }
  queue_.push_back(std::move(packet));
}

// -------------------------------------------------------------- OutputPort

std::string OutputPort::name() const { return table_->interface_name(id_); }
ether::MacAddress OutputPort::mac() const { return table_->interface_mac(id_); }

bool OutputPort::ready_to_send() const {
  const netsim::Nic* nic = table_->entry(id_).nic;
  return nic->segment() != nullptr;
}

bool OutputPort::send(const ether::WireFrame& frame) {
  return table_->entry(id_).nic->transmit(frame);
}

std::optional<netsim::Scheduler::TimedEntry> OutputPort::prepare(
    const ether::WireFrame& frame) {
  return table_->entry(id_).nic->try_prepare(frame);
}

netsim::Scheduler& OutputPort::scheduler() const { return *table_->scheduler_; }

netsim::Nic& OutputPort::nic() const { return *table_->entry(id_).nic; }

// --------------------------------------------------------------- PortTable

PortId PortTable::add_interface(netsim::Nic& nic) {
  const std::string name = nic.name();
  for (const Entry& e : ports_) {
    if (e.nic->name() == name) {
      throw std::invalid_argument("duplicate interface name: " + name);
    }
  }
  ports_.push_back(Entry{&nic, nullptr, nullptr});
  return static_cast<PortId>(ports_.size() - 1);
}

PortTable::Entry& PortTable::entry(PortId id) {
  if (id >= ports_.size()) throw NoInterface("no such port id");
  return ports_[id];
}

const PortTable::Entry& PortTable::entry(PortId id) const {
  if (id >= ports_.size()) throw NoInterface("no such port id");
  return ports_[id];
}

PortTable::Entry* PortTable::find_by_name(const std::string& name) {
  for (Entry& e : ports_) {
    if (e.nic->name() == name) return &e;
  }
  return nullptr;
}

InputPort& PortTable::bind_in(const std::string& name) {
  Entry* e = find_by_name(name);
  if (e == nullptr) throw NoInterface("no interface named " + name);
  if (e->in) throw AlreadyBound(name);
  const PortId id = static_cast<PortId>(e - ports_.data());
  e->in = std::unique_ptr<InputPort>(new InputPort(*this, id));
  // The paper: input binds are promiscuous (it is a bridge). The NIC's rx
  // handler stays with the owning ActiveNode, which routes frames through
  // its cost model into the Demux; bound ports are the Demux's fallback.
  e->nic->set_promiscuous(true);
  return *e->in;
}

InputPort& PortTable::get_iport() {
  for (Entry& e : ports_) {
    if (!e.in) return bind_in(e.nic->name());
  }
  throw NoInterface("no unbound input interface available");
}

void PortTable::unbind_in(PortId id) {
  Entry& e = entry(id);
  if (!e.in) return;
  e.nic->set_promiscuous(false);
  e.in.reset();
}

bool PortTable::send_on(PortId id, ether::Frame frame) {
  return entry(id).nic->transmit(std::move(frame));
}

void PortTable::deliver_to_port(PortId id, const Packet& packet) {
  Entry& e = entry(id);
  if (e.in) e.in->deliver(packet);
}

OutputPort& PortTable::bind_out(const std::string& name) {
  Entry* e = find_by_name(name);
  if (e == nullptr) throw NoInterface("no interface named " + name);
  if (e->out) throw AlreadyBound(name);
  const PortId id = static_cast<PortId>(e - ports_.data());
  e->out = std::unique_ptr<OutputPort>(new OutputPort(*this, id));
  return *e->out;
}

OutputPort& PortTable::get_oport() {
  for (Entry& e : ports_) {
    if (!e.out) return bind_out(e.nic->name());
  }
  throw NoInterface("no unbound output interface available");
}

void PortTable::unbind_out(PortId id) { entry(id).out.reset(); }

OutputPort& PortTable::iport_to_oport(const InputPort& in) {
  Entry& e = entry(in.id());
  if (!e.out) throw NoInterface("output side of " + e.nic->name() + " not bound");
  return *e.out;
}

std::string PortTable::interface_name(PortId id) const {
  return entry(id).nic->name();
}

ether::MacAddress PortTable::interface_mac(PortId id) const {
  return entry(id).nic->mac();
}

bool PortTable::owns_mac(ether::MacAddress mac) const {
  for (const Entry& e : ports_) {
    if (e.nic->mac() == mac) return true;
  }
  return false;
}

bool PortTable::is_bound_in(PortId id) const { return entry(id).in != nullptr; }
bool PortTable::is_bound_out(PortId id) const { return entry(id).out != nullptr; }

std::vector<PortId> PortTable::port_ids() const {
  std::vector<PortId> ids(ports_.size());
  for (std::size_t i = 0; i < ports_.size(); ++i) ids[i] = static_cast<PortId>(i);
  return ids;
}

std::size_t PortTable::bound_in_count() const {
  return static_cast<std::size_t>(std::count_if(
      ports_.begin(), ports_.end(), [](const Entry& e) { return e.in != nullptr; }));
}

}  // namespace ab::active
