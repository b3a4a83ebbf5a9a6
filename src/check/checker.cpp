#include "check/checker.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "check/cli.hpp"
#include "check/strategies.hpp"
#include "pgas/sim_engine.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/recovery.hpp"
#include "ws/shared_state.hpp"
#include "ws/uts_problem.hpp"

namespace upcws::check {

namespace {

/// Wraps the exploration strategy so every scheduling step first probes the
/// oracle battery. pick() runs in scheduler context (no fiber active), so
/// an OracleViolation thrown here aborts the run cleanly: the scheduler
/// cancel-unwinds its fibers and the engine copies the decision trail out
/// before rethrowing.
class InstrumentedPolicy final : public sim::SchedulePolicy {
 public:
  InstrumentedPolicy(sim::SchedulePolicy* inner,
                     const std::vector<std::unique_ptr<Oracle>>* oracles)
      : inner_(inner), oracles_(oracles) {}

  void attach(ws::SharedState* shared, ws::RecoveryBoard* board,
              const pgas::Liveness* liveness, int nranks) {
    probe_ = StepProbe{shared, board, liveness, nranks};
  }

  const StepProbe& probe() const { return probe_; }

  std::size_t pick(const std::vector<sim::Candidate>& c) override {
    if (oracles_ != nullptr) oracles_step(*oracles_, probe_);
    if (c.size() < 2) return 0;
    return inner_ != nullptr ? inner_->pick(c) : 0;
  }

 private:
  sim::SchedulePolicy* inner_;
  const std::vector<std::unique_ptr<Oracle>>* oracles_;
  StepProbe probe_{};
};

std::vector<std::uint16_t> project_choices(
    const std::vector<sim::Decision>& trail) {
  std::vector<std::uint16_t> c;
  c.reserve(trail.size());
  for (const sim::Decision& d : trail) c.push_back(d.choice);
  return c;
}

void trim_trailing_defaults(std::vector<std::uint16_t>& c) {
  while (!c.empty() && c.back() == 0) c.pop_back();
}

/// FNV-1a over the schedule's resumed-task sequence — the "state hash" DFS
/// prunes on: two prefixes that induced the same full schedule need no
/// separate expansion.
std::uint64_t schedule_hash(const std::vector<sim::Decision>& trail) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const sim::Decision& d : trail) {
    mix(static_cast<std::uint64_t>(d.task));
    mix(d.n_candidates);
    mix(d.choice);
  }
  return h;
}

}  // namespace

SpecConfigs configs_for(const CheckSpec& spec) {
  SpecConfigs c;
  c.run.nranks = spec.nranks;
  c.run.net = net_by_name(spec.net);
  c.run.seed = spec.run_seed;
  c.run.vt_limit_ns = spec.vt_limit_ns;
  c.run.watchdog_ns = spec.watchdog_ns;
  c.run.faults = spec.faults;
  c.ws = ws::WsConfig::for_algo(spec.algo, spec.chunk);
  c.ws.steal_timeout_ns = spec.steal_timeout_ns;
  c.ws.sample_frac = spec.sample_frac;
  c.ws.quantile = spec.quantile;
  c.ws.lifeline_dim = spec.lifeline_dim;
  c.ws.bug_weak_claim = spec.bug_weak_claim;
  c.ws.bug_drop_distress = spec.bug_drop_distress;
  return c;
}

std::uint64_t expected_nodes(const CheckSpec& spec) {
  constexpr std::uint64_t kGuard = 50'000'000;
  const auto seq = uts::search_sequential(spec.tree, kGuard);
  if (!seq)
    throw std::invalid_argument(
        "tree too large for schedule checking (> 50M nodes): " +
        spec.tree.describe());
  return seq->nodes;
}

RunOutcome run_schedule(const CheckSpec& spec, sim::SchedulePolicy* policy,
                        std::uint64_t window_ns,
                        const std::vector<std::unique_ptr<Oracle>>* oracles,
                        trace::Trace* tr) {
  if (oracles != nullptr) oracles_reset(*oracles);
  const ws::UtsProblem prob(spec.tree);
  pgas::SimEngine eng;
  SpecConfigs c = configs_for(spec);
  pgas::RunConfig& rc = c.run;
  ws::WsConfig& cfg = c.ws;
  std::optional<pgas::Liveness> live;
  if (rc.faults.crashes_enabled() || rc.faults.membership_enabled()) {
    live.emplace(spec.nranks, rc.faults.crash_detect_ns);
    if (rc.faults.joins_enabled()) live->apply_join_plan(rc.faults);
    rc.liveness = &*live;
  }

  RunOutcome out;
  rc.decision_trail = &out.trail;
  InstrumentedPolicy ip(policy, oracles);
  rc.schedule_policy = &ip;
  rc.schedule_window_ns = window_ns;

  cfg.trace = tr;
  cfg.check_attach = [&](ws::SharedState* g, ws::RecoveryBoard* b) {
    ip.attach(g, b, rc.liveness, spec.nranks);
  };
  cfg.check_detach = [&] {
    if (oracles != nullptr) oracles_detach(*oracles, ip.probe());
  };

  try {
    const ws::SearchResult res = ws::run_search(eng, rc, prob, cfg);
    out.completed = true;
    out.nodes = res.agg.total_nodes;
    out.elapsed_s = res.run.elapsed_s;
    out.switches = res.run.switches;
    if (oracles != nullptr) {
      EndProbe ep;
      ep.result = &res;
      ep.trace = tr;
      ep.expected_nodes = expected_nodes(spec);
      ep.chunk = spec.chunk;
      ep.faults = spec.faults;
      ep.request_response =
          cfg.protocol == ws::StackProtocol::kRequestResponse &&
          cfg.termination != ws::Termination::kToken;
      oracles_end(*oracles, ep);
    }
  } catch (const OracleViolation& v) {
    out.violate(v.oracle, v.message);
  } catch (const sim::HangDetected& h) {
    out.violate("hang", h.what());
  } catch (const sim::TimeLimitExceeded& t) {
    out.violate("vt-limit", t.what());
  }
  out.choices = project_choices(out.trail);
  return out;
}

std::vector<std::uint16_t> shrink_trail(const CheckSpec& spec,
                                        std::uint64_t window_ns,
                                        const std::string& oracle,
                                        std::vector<std::uint16_t> choices,
                                        int budget, int* runs) {
  trim_trailing_defaults(choices);
  const auto oracles = default_oracles();
  auto reproduces = [&](const std::vector<std::uint16_t>& c) {
    if (runs != nullptr) ++*runs;
    ReplayPolicy rp(c);
    const RunOutcome o = run_schedule(spec, &rp, window_ns, &oracles);
    return o.violated && o.oracle == oracle;
  };

  int spent = 0;
  auto budget_left = [&] { return spent++ < budget; };

  // ddmin over the set of non-default decisions: keep a set of positions
  // whose recorded (non-zero) choice is preserved, all others forced to the
  // default. Complement reduction with doubling granularity (Zeller &
  // Hildebrandt's ddmin), yielding a 1-minimal set.
  std::vector<std::size_t> keep;
  for (std::size_t i = 0; i < choices.size(); ++i)
    if (choices[i] != 0) keep.push_back(i);

  auto materialize = [&](const std::vector<std::size_t>& ks) {
    std::vector<std::uint16_t> c(choices.size(), 0);
    for (std::size_t i : ks) c[i] = choices[i];
    trim_trailing_defaults(c);
    return c;
  };

  if (budget_left() && reproduces(materialize({}))) return materialize({});

  std::size_t n = 2;
  while (keep.size() >= 2 && n <= keep.size()) {
    bool reduced = false;
    const std::size_t chunk = (keep.size() + n - 1) / n;
    for (std::size_t part = 0; part * chunk < keep.size(); ++part) {
      std::vector<std::size_t> complement;
      for (std::size_t i = 0; i < keep.size(); ++i)
        if (i / chunk != part) complement.push_back(keep[i]);
      if (!budget_left()) return materialize(keep);
      if (reproduces(materialize(complement))) {
        keep = std::move(complement);
        n = std::max<std::size_t>(n - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= keep.size()) break;
      n = std::min(n * 2, keep.size());
    }
  }
  // Final singleton pass for 1-minimality when the loop exits by
  // granularity.
  for (std::size_t i = 0; i < keep.size();) {
    std::vector<std::size_t> without = keep;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    if (budget_left() && reproduces(materialize(without)))
      keep = std::move(without);
    else
      ++i;
  }
  return materialize(keep);
}

CheckResult check(const CheckSpec& spec, const CheckConfig& cfg) {
  CheckResult r;
  const auto oracles = default_oracles();

  auto found = [&](const RunOutcome& o, int index) {
    r.found = true;
    r.violation.oracle = o.oracle;
    r.violation.message = o.message;
    r.violation.original = o.choices;
    trim_trailing_defaults(r.violation.original);
    r.violation.schedule_index = index;
    if (cfg.shrink) {
      r.violation.trail =
          shrink_trail(spec, cfg.window_ns, o.oracle, o.choices,
                       cfg.shrink_budget, &r.shrink_runs);
      // Refresh the message from the minimal reproduction (best effort —
      // the shrunk schedule is the one users will replay).
      ReplayPolicy rp(r.violation.trail);
      const RunOutcome mo = run_schedule(spec, &rp, cfg.window_ns, &oracles);
      ++r.shrink_runs;
      if (mo.violated && mo.oracle == o.oracle)
        r.violation.message = mo.message;
    } else {
      r.violation.trail = r.violation.original;
    }
  };

  switch (cfg.strategy) {
    case Strategy::kRandom: {
      for (int i = 0; i < cfg.budget; ++i) {
        RandomWalkPolicy rp(cfg.seed + static_cast<std::uint64_t>(i) *
                                           0x9E3779B97F4A7C15ull);
        const RunOutcome o =
            run_schedule(spec, &rp, cfg.window_ns, &oracles);
        ++r.schedules_run;
        if (o.violated) {
          found(o, i);
          return r;
        }
      }
      return r;
    }
    case Strategy::kPct: {
      // Baseline run to size the horizon (and to catch default-schedule
      // violations outright).
      ReplayPolicy base({});
      const RunOutcome b = run_schedule(spec, &base, cfg.window_ns, &oracles);
      ++r.schedules_run;
      if (b.violated) {
        found(b, 0);
        return r;
      }
      const std::uint64_t horizon =
          std::max<std::uint64_t>(b.trail.size(), 16);
      for (int i = 1; i < cfg.budget; ++i) {
        PctPolicy pp(cfg.seed + static_cast<std::uint64_t>(i) *
                                    0x9E3779B97F4A7C15ull,
                     spec.nranks, cfg.pct_depth, horizon);
        const RunOutcome o =
            run_schedule(spec, &pp, cfg.window_ns, &oracles);
        ++r.schedules_run;
        if (o.violated) {
          found(o, i);
          return r;
        }
      }
      return r;
    }
    case Strategy::kDfs: {
      // Bounded-depth DFS over decision prefixes. Each frontier entry is a
      // choice prefix; running it replays the prefix and defaults beyond,
      // and its recorded trail tells us the branching factor at every step,
      // from which the children (first divergences past the prefix) are
      // generated. Prefixes whose full schedule hashes to something already
      // seen are pruned without expansion.
      std::unordered_set<std::uint64_t> seen;
      std::vector<std::vector<std::uint16_t>> frontier;
      frontier.push_back({});
      int index = 0;
      while (!frontier.empty() && r.schedules_run < cfg.budget) {
        const std::vector<std::uint16_t> prefix = std::move(frontier.back());
        frontier.pop_back();
        ReplayPolicy rp(prefix);
        const RunOutcome o =
            run_schedule(spec, &rp, cfg.window_ns, &oracles);
        ++r.schedules_run;
        if (o.violated) {
          found(o, index);
          return r;
        }
        ++index;
        if (!seen.insert(schedule_hash(o.trail)).second) continue;
        ++r.distinct_states;
        const std::size_t limit =
            std::min<std::size_t>(o.trail.size(), cfg.dfs_depth);
        for (std::size_t s = prefix.size(); s < limit; ++s) {
          for (std::uint16_t c = 1; c < o.trail[s].n_candidates; ++c) {
            std::vector<std::uint16_t> child(o.choices.begin(),
                                             o.choices.begin() +
                                                 static_cast<std::ptrdiff_t>(s));
            child.push_back(c);
            frontier.push_back(std::move(child));
          }
        }
      }
      return r;
    }
  }
  return r;
}

}  // namespace upcws::check
