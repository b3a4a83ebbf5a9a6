// The run-description vocabulary that the CLIs (uts_cli, schedule_check,
// chaos_soak, service_soak) and the replay reader share: strict value
// parsers, the fault-spec forms, the fault-plan check, and a flag walker
// that sends every value through them.
//
// A parser throws std::invalid_argument naming `what`, the caller's spelling
// of the value ("--budget", "crash"). A number must fill the whole string,
// so "-5" for a nonnegative value, "3x" and "" are rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "pgas/faults.hpp"
#include "pgas/netmodel.hpp"
#include "ws/config.hpp"

namespace upcws::check {

struct ReplayFile;
struct RunOutcome;

ws::Algo algo_from_label(const std::string& s);
/// shared|shmem|dist|free|smp<tpn>|hier:<tpn>.
pgas::NetModel net_by_name(const std::string& s);

std::uint64_t parse_u64(const std::string& s, const std::string& what);

/// parse_u64 narrowed to T, rejecting values T cannot hold.
template <typename T>
T parse_uint(const std::string& s, const std::string& what) {
  const std::uint64_t v = parse_u64(s, what);
  const auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (v > max)
    throw std::invalid_argument(what + " wants an integer <= " +
                                std::to_string(max) + ", got '" + s + "'");
  return static_cast<T>(v);
}

/// A finite real >= 0: every real the CLIs take is a nonnegative quantity.
double parse_real(const std::string& s, const std::string& what);

/// A psim worker-thread count in [1, hardware concurrency].
int parse_workers(const std::string& s, const std::string& what);

/// "RANK@NS": a rank and a time in ns.
std::pair<int, std::uint64_t> parse_rank_at(const std::string& s,
                                            const std::string& what);
/// "RANK@NS[,RANK@NS...]".
std::vector<std::pair<int, std::uint64_t>> parse_rank_at_list(
    const std::string& s, const std::string& what);

/// "DUR[:PERIOD[:RANK]]" into the plan's stall fields: DUR > 0 ns, PERIOD
/// defaults to 10*DUR and RANK to -1 (every rank).
void parse_stall(const std::string& s, const std::string& what,
                 pgas::FaultPlan& plan);

/// "MASK:START:HEAL[,...]" appended to the plan's partitions.
void parse_partitions(const std::string& s, const std::string& what,
                      pgas::FaultPlan& plan);

/// pgas::FaultPlan::validate plus the rule that needs the algorithm:
/// work-push has no crash recovery and no seq/ack message layer, so it
/// takes no crash, drop or dup. Throws std::invalid_argument.
void validate_faults(const pgas::FaultPlan& plan, int nranks, ws::Algo algo);

/// Prints a replayed run's outcome and whether it matches the file's
/// expectation; returns the CLI exit code (0 on a match, else 1).
int report_replay(const ReplayFile& rf, const RunOutcome& out);

/// One CLI's argv, walked flag by flag. Every rejection exits 2 with one
/// line on stderr: "<tool>: <message> (see header comment for flags)".
class Args {
 public:
  Args(const char* tool, int argc, char** argv)
      : tool_(tool), argv_(argv + 1, argv + argc) {}

  /// Calls `on_flag` with each flag in turn; it returns false for a flag it
  /// does not know. A std::invalid_argument it throws is a rejection.
  void parse(const std::function<bool(const std::string&)>& on_flag);

  /// The current flag's value.
  std::string value();

  /// The current flag's value through parse_real (floating-point `v`) or
  /// parse_uint<T>, and at least `lo`.
  template <typename T>
  void read(T& v, T lo = 0) {
    if constexpr (std::is_floating_point_v<T>)
      v = parse_real(value(), flag_);
    else
      v = parse_uint<T>(value(), flag_);
    if (v < lo) fail(flag_ + " wants at least " + std::to_string(lo));
  }

  /// validate_faults, with "--" before each message so it names the flag.
  void validate(const pgas::FaultPlan& plan, int nranks, ws::Algo algo) const;

  [[noreturn]] void fail(const std::string& msg) const;

 private:
  const char* tool_;
  std::vector<std::string> argv_;
  std::size_t next_ = 0;
  std::string flag_;
};

}  // namespace upcws::check
