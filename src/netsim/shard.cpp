#include "src/netsim/shard.h"

#include <utility>

#include "src/ether/frame.h"
#include "src/netsim/lan.h"

namespace ab::netsim {

void ShardChannel::push(TimePoint deliver_at, util::ByteView wire) {
  frames_.push_back({deliver_at, util::ByteBuffer(wire.begin(), wire.end())});
}

std::size_t ShardChannel::drain() {
  // inject_remote never relays, so nothing pushes into frames_ while this
  // loop walks it.
  for (RelayFrame& frame : frames_) {
    target_->inject_remote(ether::WireFrame::from_wire(std::move(frame.wire)),
                           frame.deliver_at);
  }
  const std::size_t drained = frames_.size();
  frames_.clear();
  return drained;
}

std::size_t Shard::drain() {
  std::size_t drained = 0;
  for (ShardChannel* channel : inbound_) drained += channel->drain();
  return drained;
}

}  // namespace ab::netsim
