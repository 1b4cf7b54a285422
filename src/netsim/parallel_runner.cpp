#include "src/netsim/parallel_runner.h"

#include <algorithm>
#include <barrier>
#include <stdexcept>
#include <thread>

namespace ab::netsim {

ParallelRunner::ParallelRunner(std::vector<Shard*> shards, Options options)
    : shards_(std::move(shards)), options_(options) {
  if (shards_.empty()) {
    throw std::invalid_argument("ParallelRunner: no shards");
  }
  for (Shard* shard : shards_) {
    if (shard == nullptr) throw std::invalid_argument("ParallelRunner: null shard");
  }
  options_.threads =
      std::clamp(options_.threads, 1, static_cast<int>(shards_.size()));
}

TimePoint ParallelRunner::next_window(TimePoint target) const {
  // One shard, or no cross-shard coupling: nothing constrains the window.
  if (options_.lookahead <= Duration::zero() || shards_.size() < 2) return target;
  TimePoint tmin = TimePoint::max();
  for (Shard* shard : shards_) {
    tmin = std::min(tmin, shard->scheduler().peek_next_time());
  }
  if (tmin == TimePoint::max()) return target;  // all idle, mailboxes drained
  // Window (S, E] with E = Tmin + L - 1ns (saturating): every event in the
  // window fires at t >= Tmin, so a relayed frame delivers at t + prop >=
  // Tmin + L > E. Progress is guaranteed because Tmin > S (events <= S
  // already ran) and L >= 1ns.
  const Duration slack = options_.lookahead - Duration(1);
  const TimePoint horizon =
      tmin > TimePoint::max() - slack ? TimePoint::max() : tmin + slack;
  return std::min(target, horizon);
}

void ParallelRunner::run_until(TimePoint target) {
  target_ = target;
  done_ = false;
  phase_ = 0;
  const int workers = options_.threads;

  // The completion runs on exactly one thread while every worker is parked
  // in arrive_and_wait, so it may touch all shards and the round state
  // without locks; the barrier orders those writes before the workers'
  // next reads.
  auto completion = [this]() noexcept {
    if (phase_ == 0) {
      // All mailboxes drained: Tmin sees every deliverable frame.
      window_end_ = next_window(target_);
      rounds_ += 1;
      phase_ = 1;
    } else {
      // All shards ran to window_end_.
      done_ = window_end_ >= target_;
      phase_ = 0;
    }
  };
  std::barrier sync(workers, completion);

  // Static shard -> worker mapping (shard i belongs to worker i % workers).
  // The mapping affects WHICH thread runs a shard, never WHAT the shard
  // executes, so results cannot depend on it.
  const auto worker = [&](int w) {
    for (;;) {
      for (std::size_t s = static_cast<std::size_t>(w); s < shards_.size();
           s += static_cast<std::size_t>(workers)) {
        shards_[s]->drain();
      }
      sync.arrive_and_wait();  // completion computes window_end_
      for (std::size_t s = static_cast<std::size_t>(w); s < shards_.size();
           s += static_cast<std::size_t>(workers)) {
        shards_[s]->scheduler().run_until(window_end_);
      }
      sync.arrive_and_wait();  // completion sets done_
      if (done_) return;
    }
  };

  // Worker 0 is the caller, so one worker spawns no thread and runs every
  // shard against a one-participant barrier.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
}

void ParallelRunner::run_for(Duration d) {
  run_until(shards_.front()->scheduler().now() + d);
}

}  // namespace ab::netsim
