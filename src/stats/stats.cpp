#include "stats/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace upcws::stats {

const char* state_name(State s) {
  switch (s) {
    case State::kWorking: return "working";
    case State::kSearching: return "searching";
    case State::kStealing: return "stealing";
    case State::kTermination: return "termination";
    case State::kCount: break;
  }
  return "?";
}

FaultTally& FaultTally::operator+=(const FaultTally& o) {
  stalls += o.stalls;
  stall_ns += o.stall_ns;
  spikes += o.spikes;
  spike_ns += o.spike_ns;
  dropped += o.dropped;
  duplicated += o.duplicated;
  crashes += o.crashes;
  drains += o.drains;
  joins += o.joins;
  partition_delays += o.partition_delays;
  partition_delay_ns += o.partition_delay_ns;
  return *this;
}

RunStats aggregate(const std::vector<ThreadStats>& per_thread,
                   double elapsed_s, double seq_nodes_per_sec) {
  RunStats r;
  r.nranks = static_cast<int>(per_thread.size());
  r.elapsed_s = elapsed_s;

  std::array<std::uint64_t, static_cast<int>(State::kCount)> state_ns{};
  std::uint64_t total_state_ns = 0;
  for (const ThreadStats& t : per_thread) {
    r.total_nodes += t.c.nodes;
    r.total_leaves += t.c.leaves;
    r.total_steals += t.c.steals;
    r.total_probes += t.c.probes;
    r.total_releases += t.c.releases;
    r.total_failed_steals += t.c.failed_steals;
    r.total_spawned += t.c.spawned;
    r.total_reclaimed += t.c.reclaimed;
    r.total_cancels += t.c.cancels;
    r.total_steal_timeouts += t.c.steal_timeouts;
    r.total_retransmits += t.c.retransmits;
    r.total_dups_suppressed += t.c.dups_suppressed;
    r.total_copies_dropped += t.c.copies_dropped;
    r.faults += t.c.faults;
    r.total_locks_revoked += t.c.locks_revoked;
    r.total_stale_unlocks += t.c.stale_unlocks;
    r.total_salvages += t.c.salvages;
    r.total_replays += t.c.replays;
    r.total_recovered_nodes += t.c.recovered_nodes;
    r.total_dedup_drops += t.c.dedup_drops;
    r.max_depth = std::max(r.max_depth, t.c.max_depth);
    for (int s = 0; s < static_cast<int>(State::kCount); ++s) {
      state_ns[s] += t.timer.ns_in(static_cast<State>(s));
      total_state_ns += t.timer.ns_in(static_cast<State>(s));
    }
  }

  if (elapsed_s > 0) {
    r.nodes_per_sec = static_cast<double>(r.total_nodes) / elapsed_s;
    r.steals_per_sec = static_cast<double>(r.total_steals) / elapsed_s;
  }
  if (seq_nodes_per_sec > 0 && elapsed_s > 0) {
    const double t_seq = static_cast<double>(r.total_nodes) / seq_nodes_per_sec;
    r.speedup = t_seq / elapsed_s;
    r.efficiency = r.nranks > 0 ? r.speedup / r.nranks : 0.0;
  }
  if (total_state_ns > 0) {
    for (int s = 0; s < static_cast<int>(State::kCount); ++s)
      r.state_frac[s] =
          static_cast<double>(state_ns[s]) / static_cast<double>(total_state_ns);
  }
  const double denom = static_cast<double>(r.nranks) * elapsed_s * 1e9;
  if (denom > 0)
    r.working_frac =
        static_cast<double>(state_ns[static_cast<int>(State::kWorking)]) /
        denom;

  if (r.nranks > 0 && r.total_nodes > 0) {
    const double mean =
        static_cast<double>(r.total_nodes) / static_cast<double>(r.nranks);
    double var = 0.0, mx = 0.0;
    for (const ThreadStats& t : per_thread) {
      const double d = static_cast<double>(t.c.nodes) - mean;
      var += d * d;
      mx = std::max(mx, static_cast<double>(t.c.nodes));
    }
    var /= static_cast<double>(r.nranks);
    r.nodes_cov = std::sqrt(var) / mean;
    r.nodes_max_over_mean = mx / mean;
  }
  for (const ThreadStats& t : per_thread) r.steal_sizes.merge(t.steal_sizes);
  return r;
}

std::vector<int> work_source_timeline(
    const std::vector<ThreadStats>& per_thread, std::uint64_t horizon_ns,
    int buckets) {
  std::vector<std::pair<std::uint64_t, int>> events;
  for (const ThreadStats& t : per_thread)
    for (const SourceEvent& e : t.source_events)
      events.emplace_back(e.t_ns, e.delta);
  std::sort(events.begin(), events.end());

  std::vector<int> out(static_cast<std::size_t>(buckets), 0);
  if (horizon_ns == 0 || buckets <= 0) return out;
  int cur = 0;
  std::size_t i = 0;
  for (int b = 0; b < buckets; ++b) {
    const std::uint64_t end =
        horizon_ns / buckets * static_cast<std::uint64_t>(b + 1);
    int peak = cur;
    while (i < events.size() && events[i].first <= end) {
      cur += events[i].second;
      peak = std::max(peak, cur);
      ++i;
    }
    out[static_cast<std::size_t>(b)] = peak;
  }
  return out;
}

std::string RunStats::summary() const {
  std::ostringstream os;
  os << "nodes=" << total_nodes << " elapsed=" << elapsed_s << "s"
     << " rate=" << nodes_per_sec / 1e6 << "M/s"
     << " speedup=" << speedup << " eff=" << efficiency
     << " steals=" << total_steals << " (" << steals_per_sec << "/s)";
  if (faults.stalls + faults.spikes + faults.dropped + faults.duplicated > 0)
    os << " faults[stalls=" << faults.stalls << " spikes=" << faults.spikes
       << " dropped=" << faults.dropped
       << " duplicated=" << faults.duplicated << "]";
  if (total_steal_timeouts + total_retransmits + total_dups_suppressed +
          total_copies_dropped >
      0)
    os << " recovery[timeouts=" << total_steal_timeouts
       << " retransmits=" << total_retransmits
       << " dups_suppressed=" << total_dups_suppressed
       << " copies_dropped=" << total_copies_dropped << "]";
  if (faults.drains + faults.joins + faults.partition_delays > 0)
    os << " membership[drains=" << faults.drains
       << " joins=" << faults.joins
       << " partition_delays=" << faults.partition_delays
       << " partition_delay_ns=" << faults.partition_delay_ns << "]";
  if (faults.crashes > 0)
    os << " crash[crashes=" << faults.crashes
       << " revoked=" << total_locks_revoked
       << " stale_unlocks=" << total_stale_unlocks
       << " salvages=" << total_salvages << " replays=" << total_replays
       << " recovered=" << total_recovered_nodes
       << " dedup_drops=" << total_dedup_drops << "]";
  return os.str();
}

}  // namespace upcws::stats
