#include "check/cli.hpp"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

#include "check/replay.hpp"

namespace upcws::check {

namespace {

[[noreturn]] void bad_spec(const std::string& what, const std::string& s,
                           const char* form) {
  throw std::invalid_argument("bad " + what + " spec '" + s + "' (want " +
                              form + ")");
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t e; (e = s.find(sep)) != std::string_view::npos;
       s.remove_prefix(e + 1))
    out.push_back(s.substr(0, e));
  out.push_back(s);
  return out;
}

bool strict_u64(std::string_view s, std::uint64_t& v) {
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  return ec == std::errc{} && end == s.data() + s.size();
}

/// The fields of `s` split at `sep`, or none when one is not a strict
/// nonnegative integer.
std::vector<std::uint64_t> u64_fields(std::string_view s, char sep) {
  std::vector<std::uint64_t> out;
  for (std::string_view f : split(s, sep))
    if (!strict_u64(f, out.emplace_back())) return {};
  return out;
}

std::pair<int, std::uint64_t> rank_at(std::string_view item,
                                      const std::string& what,
                                      const std::string& s, const char* form) {
  const std::vector<std::uint64_t> f = u64_fields(item, '@');
  if (f.size() != 2 || f[0] > INT_MAX) bad_spec(what, s, form);
  return {static_cast<int>(f[0]), f[1]};
}

}  // namespace

void validate_faults(const pgas::FaultPlan& plan, int nranks, ws::Algo algo) {
  plan.validate(nranks);
  if (algo != ws::Algo::kWorkPush) return;
  auto lacks = [](const std::string& item, const char* layer) {
    throw std::invalid_argument(item + " needs " + layer +
                                ", which work-push lacks");
  };
  if (plan.crashes_enabled()) lacks("crash", "crash recovery");
  if (plan.drop_prob > 0.0) lacks("drop-prob", "the seq/ack message layer");
  if (plan.dup_prob > 0.0) lacks("dup-prob", "the seq/ack message layer");
}

ws::Algo algo_from_label(const std::string& s) {
  for (ws::Algo a : ws::kAllAlgosExtended)
    if (s == ws::algo_label(a)) return a;
  throw std::invalid_argument("unknown algorithm label: " + s);
}

pgas::NetModel net_by_name(const std::string& s) {
  if (s == "shared" || s == "shmem") return pgas::NetModel::shared_memory();
  if (s == "dist") return pgas::NetModel::distributed();
  if (s == "free") return pgas::NetModel::free();
  if (s.rfind("smp", 0) == 0 || s.rfind("hier:", 0) == 0) {
    const int tpn = parse_uint<int>(s.substr(s[0] == 's' ? 3 : 5), s);
    if (tpn < 1) throw std::invalid_argument("hierarchical net: tpn < 1");
    return pgas::NetModel::hierarchical(tpn);
  }
  throw std::invalid_argument("unknown net profile: " + s +
                              " (want shared|shmem|dist|free|smp<tpn>)");
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  std::uint64_t v = 0;
  if (!strict_u64(s, v))
    throw std::invalid_argument(what + " wants a nonnegative integer, got '" +
                                s + "'");
  return v;
}

double parse_real(const std::string& s, const std::string& what) {
  double v = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size() || !(v >= 0.0) ||
      !std::isfinite(v))
    throw std::invalid_argument(what + " wants a nonnegative number, got '" +
                                s + "'");
  return v;
}

std::pair<int, std::uint64_t> parse_rank_at(const std::string& s,
                                            const std::string& what) {
  return rank_at(s, what, s, "RANK@NS");
}

std::vector<std::pair<int, std::uint64_t>> parse_rank_at_list(
    const std::string& s, const std::string& what) {
  std::vector<std::pair<int, std::uint64_t>> out;
  for (std::string_view item : split(s, ','))
    out.push_back(rank_at(item, what, s, "RANK@NS[,RANK@NS...]"));
  return out;
}

void parse_stall(const std::string& s, const std::string& what,
                 pgas::FaultPlan& plan) {
  const std::vector<std::uint64_t> f = u64_fields(s, ':');
  if (f.empty() || f.size() > 3 || f[0] == 0 ||
      (f.size() == 3 && f[2] > INT_MAX))
    bad_spec(what, s, "DUR[:PERIOD[:RANK]]");
  plan.stall_ns = f[0];
  plan.stall_period_ns = f.size() >= 2 ? f[1] : f[0] * 10;
  plan.stall_rank = f.size() == 3 ? static_cast<int>(f[2]) : -1;
}

void parse_partitions(const std::string& s, const std::string& what,
                      pgas::FaultPlan& plan) {
  for (std::string_view item : split(s, ',')) {
    const std::vector<std::uint64_t> f = u64_fields(item, ':');
    if (f.size() != 3) bad_spec(what, s, "MASK:START:HEAL[,...]");
    plan.partitions.push_back({f[0], f[1], f[2]});
  }
}

int parse_workers(const std::string& s, const std::string& what) {
  const unsigned hc = std::thread::hardware_concurrency();
  const int max_workers = hc > 0 ? static_cast<int>(hc) : 1;
  const int w = parse_uint<int>(s, what);
  if (w < 1 || w > max_workers)
    throw std::invalid_argument(what + " wants a thread count in [1," +
                                std::to_string(max_workers) +
                                "] (hardware concurrency)");
  return w;
}

int report_replay(const ReplayFile& rf, const RunOutcome& out) {
  if (out.violated)
    std::printf("outcome: VIOLATION %s\n  %s\n", out.oracle.c_str(),
                out.message.c_str());
  else
    std::printf("outcome: clean run, %llu nodes\n",
                static_cast<unsigned long long>(out.nodes));
  const bool match = replay_matches(rf, out);
  std::printf("replay %s the recorded expectation\n",
              match ? "MATCHES" : "DOES NOT MATCH");
  return match ? 0 : 1;
}

void Args::parse(const std::function<bool(const std::string&)>& on_flag) {
  try {
    while (next_ < argv_.size()) {
      flag_ = argv_[next_++];
      if (!on_flag(flag_)) fail("unknown flag " + flag_);
    }
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

std::string Args::value() {
  if (next_ >= argv_.size()) fail("missing value for " + flag_);
  return argv_[next_++];
}

void Args::validate(const pgas::FaultPlan& plan, int nranks,
                    ws::Algo algo) const {
  try {
    validate_faults(plan, nranks, algo);
  } catch (const std::invalid_argument& e) {
    fail(std::string("--") + e.what());
  }
}

void Args::fail(const std::string& msg) const {
  std::fprintf(stderr, "%s: %s (see header comment for flags)\n", tool_,
               msg.c_str());
  std::exit(2);
}

}  // namespace upcws::check
