// Bench guards: a bench checks each measurement against a bound written
// beside it, prints one line per check, and exits with status(). Every
// check runs, so one failure cannot hide another, and the process that
// measured a value is the one that judges it.
#pragma once

#include <cstdio>
#include <string>

namespace ab::bench {

/// The million-station cell (star-8x125000 under the aggregate workload)
/// runs in two benches: macro_topology's aggregate_profile and
/// parallel_scaling's aggregate rows. Both hold it to these bounds.
/// The station floor keeps the cell at size; the memory budget sits ~15%
/// above the highest measured cost (7.5 B in one region, 8.7 B on the
/// sharded rows). bytes_per_station reads 0 where the platform hides RSS.
inline constexpr double kMinStations = 1000000;
inline constexpr double kMaxBytesPerStation = 10.0;

/// Prints each check as
///   guard <cell>.<field> <value> <op> <bound> pass|FAIL|skipped (<note>)
class Guards {
 public:
  void at_most(const std::string& name, double value, double bound,
               const std::string& note = "") {
    check(name, value, "<=", bound, value <= bound, note);
  }
  void at_least(const std::string& name, double value, double bound,
                const std::string& note = "") {
    check(name, value, ">=", bound, value >= bound, note);
  }
  /// An exact count, or a bit-identity check (the number of compared
  /// counters that differ, expected 0).
  void holds(const std::string& name, double value, double expected,
             const std::string& note = "") {
    check(name, value, "==", expected, value == expected, note);
  }
  /// A bound the host cannot judge (say, a speedup floor on too few
  /// hardware threads): printed with its measured value, never failed.
  void skipped(const std::string& name, double value, const char* op, double bound,
               const std::string& note) {
    print(name, value, op, bound, "skipped", note);
  }
  /// The bench's exit code: 1 when any check failed.
  [[nodiscard]] int status() const { return failed_ ? 1 : 0; }

 private:
  void check(const std::string& name, double value, const char* op, double bound,
             bool ok, const std::string& note) {
    failed_ = failed_ || !ok;
    print(name, value, op, bound, ok ? "pass" : "FAIL", note);
  }
  static void print(const std::string& name, double value, const char* op,
                    double bound, const char* verdict, const std::string& note) {
    std::printf("guard %s %.10g %s %.10g %s%s%s%s\n", name.c_str(), value, op, bound,
                verdict, note.empty() ? "" : " (", note.c_str(),
                note.empty() ? "" : ")");
  }

  bool failed_ = false;
};

}  // namespace ab::bench
