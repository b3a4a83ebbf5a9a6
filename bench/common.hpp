// Shared plumbing for the bench binaries.
//
// Every bench runs standalone with defaults sized for a small machine.
// `--quick` shrinks workloads further; `--full` runs paper-shaped
// configurations (bigger trees, more ranks).
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace upcws::benchutil {

enum class Mode { kQuick, kDefault, kFull };

const char* mode_name(Mode m);

/// Format helpers.
std::string fmt(double v, int prec = 2);

/// Wall-clock stopwatch; replaces the per-bench steady_clock boilerplate.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Collects named results with numeric metrics and emits them as a
/// schema-versioned JSON document (`upcws-bench-v1`) that
/// tools/compare_bench.py validates and diffs against a checked-in
/// baseline. Every document also records its host context: `nproc`
/// (hardware threads), `sha1_kernel` (sha1::kernel_name()) and `cpu_model`
/// (the first "model name" of /proc/cpuinfo, or "unrecorded"). One
/// reporter per bench binary.
class BenchReporter {
 public:
  /// A single benchmark configuration's measurements.
  struct Result {
    std::string name;  ///< unique key, e.g. "sim/upc-distmem/T3"
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, std::string>> notes;

    Result& metric(const std::string& key, double value);
    Result& note(const std::string& key, const std::string& value);
    /// The value of metric `key`, or 0 when the row has none.
    double value(const std::string& key) const;
  };

  BenchReporter(std::string bench, Mode mode);

  /// Get-or-create the result row for `name` (insertion order preserved).
  Result& result(const std::string& name);
  const std::vector<Result>& results() const { return results_; }

  void write_json(std::ostream& os) const;
  /// Write to `path`; returns false (with a message on stderr) on failure.
  bool write_json_file(const std::string& path) const;

 private:
  std::string bench_;
  Mode mode_;
  std::vector<Result> results_;
};

}  // namespace upcws::benchutil
