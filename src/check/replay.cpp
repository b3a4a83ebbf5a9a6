#include "check/replay.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "check/cli.hpp"
#include "check/strategies.hpp"

namespace upcws::check {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument(what);
}

/// The spelling of each enum value a replay file names, written once for
/// both directions.
constexpr std::pair<uts::TreeType, const char*> kTreeTypes[] = {
    {uts::TreeType::kBinomial, "binomial"},
    {uts::TreeType::kGeometric, "geometric"},
    {uts::TreeType::kHybrid, "hybrid"}};
constexpr std::pair<pgas::CrashSpec::Where, const char*> kCrashSites[] = {
    {pgas::CrashSpec::Where::kAnywhere, "anywhere"},
    {pgas::CrashSpec::Where::kInLock, "in-lock"},
    {pgas::CrashSpec::Where::kMidSteal, "mid-steal"}};

template <typename E, std::size_t N>
const char* name_of(const std::pair<E, const char*> (&names)[N], E e) {
  for (const auto& [v, name] : names)
    if (v == e) return name;
  return names[0].second;
}

template <typename E, std::size_t N>
E named(const std::pair<E, const char*> (&names)[N], const std::string& s,
        const char* what) {
  for (const auto& [v, name] : names)
    if (s == name) return v;
  bad(std::string("unknown ") + what + " " + s);
}

}  // namespace

void write_replay(std::ostream& os, const ReplayFile& rf) {
  const CheckSpec& s = rf.spec;
  // Round-trip-exact doubles: the tree's q/b0 feed the SHA-1 node states,
  // so a replay must reconstruct bit-identical parameters.
  os << std::setprecision(17);
  os << "upcws-replay v1\n";
  os << "algo " << ws::algo_label(s.algo) << "\n";
  os << "nranks " << s.nranks << "\n";
  os << "chunk " << s.chunk << "\n";
  os << "net " << s.net << "\n";
  os << "tree " << name_of(kTreeTypes, s.tree.type) << " " << s.tree.root_seed
     << " " << s.tree.b0 << " " << s.tree.m << " " << s.tree.q << " "
     << s.tree.gen_mx << " " << static_cast<int>(s.tree.shape) << " "
     << s.tree.shift_depth << "\n";
  os << "run-seed " << s.run_seed << "\n";
  os << "steal-timeout-ns " << s.steal_timeout_ns << "\n";
  os << "watchdog-ns " << s.watchdog_ns << "\n";
  os << "vt-limit-ns " << s.vt_limit_ns << "\n";
  const pgas::FaultPlan& f = s.faults;
  for (const pgas::CrashSpec& c : f.crashes)
    os << "crash " << c.rank << "@" << c.at_ns << " "
       << name_of(kCrashSites, c.where) << "\n";
  os << "crash-detect-ns " << f.crash_detect_ns << "\n";
  // Fault and membership keys are written only when non-default, so files
  // recorded before they existed stay valid and byte-stable.
  if (f.stall_ns > 0 || f.stall_period_ns > 0)
    os << "stall " << f.stall_ns << " " << f.stall_period_ns << " "
       << f.stall_rank << "\n";
  if (f.drop_prob > 0.0) os << "drop-prob " << f.drop_prob << "\n";
  if (f.dup_prob > 0.0) os << "dup-prob " << f.dup_prob << "\n";
  for (const pgas::DrainSpec& d : f.drains)
    os << "drain " << d.rank << "@" << d.at_ns << "\n";
  for (const pgas::JoinSpec& j : f.joins)
    os << "join " << j.rank << "@" << j.at_ns << "\n";
  for (const pgas::PartitionSpec& p : f.partitions)
    os << "partition " << p.group_mask << " " << p.start_ns << " "
       << p.heal_ns << "\n";
  if (s.sample_frac != 0.5) os << "sample-frac " << s.sample_frac << "\n";
  if (s.quantile != 0.8) os << "quantile " << s.quantile << "\n";
  if (s.lifeline_dim != 0) os << "lifeline-dim " << s.lifeline_dim << "\n";
  if (s.bug_weak_claim) os << "bug weak-claim\n";
  if (s.bug_drop_distress) os << "bug drop-distress\n";
  os << "window-ns " << rf.window_ns << "\n";
  os << "oracle " << (rf.oracle.empty() ? "none" : rf.oracle) << "\n";
  os << "trail";
  for (std::uint16_t c : rf.trail) os << " " << c;
  os << "\n";
}

void save_replay(const std::string& path, const ReplayFile& rf) {
  std::ofstream os(path);
  if (!os) bad("replay: cannot write " + path);
  write_replay(os, rf);
}

namespace {

ReplayFile parse_replay(std::istream& is) {
  ReplayFile rf;
  pgas::FaultPlan& f = rf.spec.faults;
  std::string line;
  if (!std::getline(is, line) || line != "upcws-replay v1")
    bad("missing 'upcws-replay v1' header");
  bool have_trail = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "algo") {
      std::string v;
      ls >> v;
      rf.spec.algo = algo_from_label(v);
    } else if (key == "nranks") {
      ls >> rf.spec.nranks;
    } else if (key == "chunk") {
      ls >> rf.spec.chunk;
    } else if (key == "net") {
      ls >> rf.spec.net;
      net_by_name(rf.spec.net);  // validate
    } else if (key == "tree") {
      std::string t;
      int shape = 0;
      ls >> t >> rf.spec.tree.root_seed >> rf.spec.tree.b0 >> rf.spec.tree.m >>
          rf.spec.tree.q >> rf.spec.tree.gen_mx >> shape >>
          rf.spec.tree.shift_depth;
      rf.spec.tree.type = named(kTreeTypes, t, "tree type");
      rf.spec.tree.shape = static_cast<uts::GeomShape>(shape);
    } else if (key == "run-seed") {
      ls >> rf.spec.run_seed;
    } else if (key == "steal-timeout-ns") {
      ls >> rf.spec.steal_timeout_ns;
    } else if (key == "watchdog-ns") {
      ls >> rf.spec.watchdog_ns;
    } else if (key == "vt-limit-ns") {
      ls >> rf.spec.vt_limit_ns;
    } else if (key == "crash") {
      std::string at, where;
      ls >> at >> where;
      const auto [rank, at_ns] = parse_rank_at(at, key);
      f.crashes.push_back(
          {rank, at_ns, named(kCrashSites, where, "crash site")});
    } else if (key == "crash-detect-ns") {
      ls >> f.crash_detect_ns;
    } else if (key == "stall") {
      ls >> f.stall_ns >> f.stall_period_ns >> f.stall_rank;
    } else if (key == "drop-prob") {
      ls >> f.drop_prob;
    } else if (key == "dup-prob") {
      ls >> f.dup_prob;
    } else if (key == "drain" || key == "join") {
      std::string at;
      ls >> at;
      const auto [rank, at_ns] = parse_rank_at(at, key);
      if (key == "drain")
        f.drains.push_back({rank, at_ns});
      else
        f.joins.push_back({rank, at_ns});
    } else if (key == "partition") {
      pgas::PartitionSpec p;
      ls >> p.group_mask >> p.start_ns >> p.heal_ns;
      f.partitions.push_back(p);
    } else if (key == "sample-frac") {
      ls >> rf.spec.sample_frac;
    } else if (key == "quantile") {
      ls >> rf.spec.quantile;
    } else if (key == "lifeline-dim") {
      ls >> rf.spec.lifeline_dim;
    } else if (key == "bug") {
      std::string v;
      ls >> v;
      if (v == "weak-claim")
        rf.spec.bug_weak_claim = true;
      else if (v == "drop-distress")
        rf.spec.bug_drop_distress = true;
      else
        bad("unknown bug " + v);
    } else if (key == "window-ns") {
      ls >> rf.window_ns;
    } else if (key == "oracle") {
      ls >> rf.oracle;
    } else if (key == "trail") {
      have_trail = true;
      unsigned v = 0;
      while (ls >> v) rf.trail.push_back(static_cast<std::uint16_t>(v));
    } else {
      bad("unknown key " + key);
    }
    // A value that does not read is malformed (a missing one too); only the
    // trail's loop ends by failing, at the end of its line.
    if (ls.fail() && (key != "trail" || !ls.eof()))
      bad("malformed value for key " + key);
  }
  if (!have_trail) bad("missing trail line");
  validate_faults(f, rf.spec.nranks, rf.spec.algo);
  return rf;
}

}  // namespace

ReplayFile read_replay(std::istream& is) {
  // One prefix for every rejection, the shared parsers' and checks' too.
  try {
    return parse_replay(is);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("replay: ") + e.what());
  }
}

ReplayFile load_replay(const std::string& path) {
  std::ifstream is(path);
  if (!is) bad("replay: cannot read " + path);
  return read_replay(is);
}

RunOutcome run_replay(const ReplayFile& rf, trace::Trace* tr) {
  const auto oracles = default_oracles();
  ReplayPolicy rp(rf.trail);
  return run_schedule(rf.spec, &rp, rf.window_ns, &oracles, tr);
}

bool replay_matches(const ReplayFile& rf, const RunOutcome& out) {
  if (rf.oracle.empty() || rf.oracle == "none")
    return !out.violated && out.completed;
  return out.violated && out.oracle == rf.oracle;
}

}  // namespace upcws::check
