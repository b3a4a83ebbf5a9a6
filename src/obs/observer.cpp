#include "obs/observer.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "stats/chart.hpp"

namespace upcws::obs {

void Observer::start_run(int nranks, std::uint64_t sample_ns) {
  ranks_.clear();
  ranks_.resize(static_cast<std::size_t>(nranks));
  samples_.reset(nranks);
  spans_.start_run(nranks);
  cadence_ = sample_ns;
  engine_reg_.clear();
  engine_next_sample_ns_ = 0;
  psim_windows_.clear();
  // psim_fallbacks_ deliberately survives start_run: it attributes the
  // serial-lane decisions of a whole soak, not one run.
}

void Observer::on_tick(int rank, std::uint64_t now_ns) {
  if (cadence_ == 0) return;
  PerRank& pr = ranks_[rank];
  if (now_ns < pr.next_sample_ns) return;
  // Stamp the aligned boundary, not `now_ns`: ticks arrive on charge
  // quanta, so aligning keeps the series on a regular grid that merges
  // cleanly across ranks.
  const std::uint64_t t = now_ns / cadence_ * cadence_;
  for (const auto& [name, v] : pr.reg.counters())
    samples_.add(rank, t, name, static_cast<std::int64_t>(v));
  for (const auto& [name, fn] : pr.reg.gauges())
    samples_.add(rank, t, name, fn());
  pr.next_sample_ns = t + cadence_;
}

void Observer::on_lock_wait(int rank, std::uint64_t now_ns,
                            std::uint64_t wait_ns) {
  PerRank& pr = ranks_[rank];
  ++pr.reg.counter("lock_waits");
  pr.reg.counter("lock_wait_ns") += wait_ns;
  pr.reg.histogram("lock_wait_ns").add(wait_ns);
  if (wait_ns > 0) pr.lock_waits.push_back({now_ns - wait_ns, now_ns});
}

void Observer::on_stall(int rank, std::uint64_t t_ns, std::uint64_t stall_ns) {
  PerRank& pr = ranks_[rank];
  ++pr.reg.counter("stalls");
  pr.reg.counter("stall_ns") += stall_ns;
  if (stall_ns > 0) pr.stalls.push_back({t_ns, t_ns + stall_ns});
}

void Observer::on_remote_op(int rank, int owner, OpKind kind,
                            std::uint64_t now_ns) {
  (void)owner;
  (void)now_ns;
  PerRank& pr = ranks_[rank];
  if (pr.remote_ops == nullptr) pr.remote_ops = &pr.reg.counter("remote_ops");
  ++*pr.remote_ops;
  std::uint64_t*& by_kind = pr.remote_by_kind[static_cast<std::size_t>(kind)];
  if (by_kind == nullptr)
    by_kind = &pr.reg.counter(std::string("remote_") + op_kind_name(kind));
  ++*by_kind;
}

void Observer::on_psim_window(const PsimWindow& w) {
  psim_windows_.push_back(w);
  engine_reg_.counter("psim_windows") = w.index + 1;
  engine_reg_.counter("psim_events") += w.events;
  // Sample the engine-level series on the same virtual-time cadence as the
  // per-rank metrics, into rank 0's store row (every worker is blocked at
  // the barrier here, so the row is quiescent).
  if (cadence_ == 0 || ranks_.empty() || w.end_ns < engine_next_sample_ns_)
    return;
  const std::uint64_t t = w.end_ns / cadence_ * cadence_;
  samples_.add(0, t, "psim_windows",
               static_cast<std::int64_t>(engine_reg_.counter("psim_windows")));
  samples_.add(0, t, "psim_events",
               static_cast<std::int64_t>(engine_reg_.counter("psim_events")));
  samples_.add(0, t, "psim_window_span_ns",
               static_cast<std::int64_t>(w.end_ns - w.begin_ns));
  samples_.add(0, t, "psim_shard_switch_imbalance",
               static_cast<std::int64_t>(w.max_shard_switches -
                                         w.min_shard_switches));
  engine_next_sample_ns_ = t + cadence_;
}

void Observer::on_psim_fallback(const char* reason) {
  ++psim_fallbacks_[reason];
  ++engine_reg_.counter("psim_fallbacks");
}

std::map<std::string, std::uint64_t> Observer::merged_counters() const {
  std::vector<Registry*> regs;
  for (const PerRank& pr : ranks_)
    regs.push_back(const_cast<Registry*>(&pr.reg));
  return obs::merged_counters(regs);
}

std::map<std::string, stats::LogHistogram> Observer::merged_histograms()
    const {
  std::vector<Registry*> regs;
  for (const PerRank& pr : ranks_)
    regs.push_back(const_cast<Registry*>(&pr.reg));
  return obs::merged_histograms(regs);
}

std::string Observer::sparklines(int width) const {
  std::ostringstream os;
  for (const std::string& name : samples_.metric_names()) {
    // Sum the metric across ranks on the shared sample grid.
    std::map<std::uint64_t, double> by_t;
    for (int r = 0; r < nranks(); ++r)
      for (const SamplePoint& p : samples_.points(r))
        if (p.metric == name) by_t[p.t_ns] += static_cast<double>(p.value);
    if (by_t.empty()) continue;
    std::vector<double> ys;
    ys.reserve(by_t.size());
    for (const auto& [t, v] : by_t) ys.push_back(v);

    // Counters accumulate monotonically; show per-sample deltas so the
    // line reads as a rate. Gauges are shown raw.
    bool is_counter = false;
    for (const PerRank& pr : ranks_)
      if (pr.reg.counters().count(name) != 0) is_counter = true;
    if (is_counter && ys.size() > 1) {
      for (std::size_t i = ys.size() - 1; i > 0; --i) {
        ys[i] -= ys[i - 1];
        ys[i] = std::max(ys[i], 0.0);
      }
      ys.erase(ys.begin());
    }

    double lo = ys.front(), hi = ys.front();
    for (double y : ys) {
      lo = std::min(lo, y);
      hi = std::max(hi, y);
    }
    os << "  " << name << (is_counter ? " (delta)" : "") << "  [" << lo
       << " .. " << hi << "]\n    |" << stats::sparkline(ys, width) << "|\n";
  }
  return os.str();
}

}  // namespace upcws::obs
