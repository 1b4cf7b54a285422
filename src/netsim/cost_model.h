// Per-frame processing cost models.
//
// This is the repository's substitution for the parts of the paper's
// testbed we cannot run: the Caml bytecode interpreter, the Linux
// user/kernel boundary crossings, and the garbage collector. Section 7.3 of
// the paper instruments these directly -- 0.47 ms of in-Caml cost per frame
// during a ttcp trial (a ceiling of ~2100 frames/s ~= 32 Mb/s), 0.34 ms per
// frame on the ping path, plus suspected GC interference -- so we model a
// node's frame-processing element as:
//
//   cost(frame) = per_frame + per_byte * len  (+ gc_pause every N frames)
//
// and serialize frames through it (a busy element queues work), which
// reproduces the frames/s ceiling and the bridged-vs-unbridged throughput
// gap that Figures 9 and 10 report. Calibration presets below carry the
// paper's own numbers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/netsim/scheduler.h"
#include "src/netsim/time.h"

namespace ab::netsim {

/// Cost parameters for one processing element (one node's software path).
struct CostModel {
  /// Fixed cost charged per frame (interrupt, syscall, interpreter
  /// dispatch, bridge logic).
  Duration per_frame{};
  /// Linear data-touching cost (copies through the kernel and the Caml
  /// string representation), per payload byte.
  Duration per_byte{};
  /// Stop-the-world pause injected every `gc_every_frames` frames; zero
  /// frames disables the collector model.
  Duration gc_pause{};
  std::uint32_t gc_every_frames = 0;

  /// Service time for one frame of `len` bytes, excluding GC pauses.
  [[nodiscard]] Duration cost(std::size_t len) const {
    return per_frame + per_byte * static_cast<std::int64_t>(len);
  }

  friend bool operator==(const CostModel&, const CostModel&) = default;

  /// A free processing element (ideal hardware); the default for plain
  /// simulated hosts and for unit tests.
  [[nodiscard]] static CostModel ideal() { return {}; }

  /// The paper's C buffered repeater: two user/kernel crossings and a copy
  /// per frame, no interpreter. Calibrated so a 1500-byte stream runs at
  /// roughly 36 Mb/s, matching Fig. 10's repeater curve (the bridge achieves
  /// "about 44%" of the repeater's throughput).
  [[nodiscard]] static CostModel c_repeater();

  /// The active bridge: repeater overheads plus the measured 0.47 ms/frame
  /// Caml interpreter cost and a coarse GC pause model. Yields ~16 Mb/s on
  /// a 1500-byte stream and a low-thousands frames/s ceiling, the paper's
  /// headline numbers.
  [[nodiscard]] static CostModel caml_bridge();

  /// The ping path costs the paper reports for the bridge: 0.34 ms in Caml
  /// plus Linux delivery. Used by the Fig. 9 latency bench.
  [[nodiscard]] static CostModel caml_bridge_latency_path();

  /// A 1997 Linux host's per-write sending cost (ttcp syscall + TCP/IP
  /// stack). Limits the *unbridged* baseline to ~76 Mb/s on large writes,
  /// as measured in the paper.
  [[nodiscard]] static CostModel linux_host();
};

/// Serializes frame-processing work through a single software element with
/// a CostModel. submit() charges the model's service time and runs the
/// continuation when the work completes; a busy element queues work FIFO
/// (the paper: "typically the queue service discipline for input and output
/// frame queues is FIFO").
class ProcessingElement {
 public:
  ProcessingElement(Scheduler& scheduler, CostModel model)
      : scheduler_(&scheduler), model_(model) {}

  /// Charges the cost of one `len`-byte frame, then runs `done`.
  void submit(std::size_t len, Scheduler::Callback done);

  /// One frame of a submit_burst: its length plus the continuation.
  struct Work {
    std::size_t len = 0;
    Scheduler::Callback done;
  };

  /// Charges every frame of `work` (moved from) in FIFO order, running
  /// each continuation at its completion time -- the same cumulative
  /// busy_until chain (GC pauses included) that k submit() calls produce,
  /// but scheduled as ONE monotone timed run: a fragment train costs one
  /// scheduler insert where k submit() calls cost k.
  void submit_burst(std::span<Work> work);

  void set_model(CostModel model) { model_ = model; }
  [[nodiscard]] const CostModel& model() const { return model_; }

  /// Frames processed so far.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }
  /// GC pauses injected so far.
  [[nodiscard]] std::uint64_t gc_pauses() const { return gc_pauses_; }
  /// Total busy time accumulated (for utilization measurements).
  [[nodiscard]] Duration busy_time() const { return busy_time_; }

 private:
  /// Service time for the next frame, advancing the GC phase.
  [[nodiscard]] Duration next_service(std::size_t len);

  Scheduler* scheduler_;
  CostModel model_;
  TimePoint busy_until_{};
  std::uint32_t frames_since_gc_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t gc_pauses_ = 0;
  Duration busy_time_{};
};

}  // namespace ab::netsim
