#include "pgas/faults.hpp"

#include <algorithm>
#include <string>

namespace upcws::pgas {

namespace {
/// Cap on the per-rank fault event log; counters keep accumulating past it.
constexpr std::size_t kMaxEvents = 1 << 16;
/// Seed mix distinct from the Ctx::rng() constant so the fault stream is
/// decorrelated from the algorithm's probe-order stream.
constexpr std::uint64_t kSeedMix = 0xD1B54A32D192ED03ull;
}  // namespace

void FaultPlan::validate(int nranks) const {
  const std::string range = " out of range [0," + std::to_string(nranks) + ")";
  auto fail = [](const std::string& msg) {
    throw std::invalid_argument(msg);
  };
  auto check_rank = [&](const char* item, int r) {
    if (r < 0 || r >= nranks)
      fail(std::string(item) + " rank " + std::to_string(r) + range);
  };
  if (stalls_enabled() && (stall_rank < -1 || stall_rank >= nranks))
    fail("stall rank " + std::to_string(stall_rank) + range +
         " (or -1 for all ranks)");
  if (!(drop_prob >= 0.0 && drop_prob <= 1.0))
    fail("drop-prob must be a probability in [0,1]");
  if (!(dup_prob >= 0.0 && dup_prob <= 1.0))
    fail("dup-prob must be a probability in [0,1]");
  for (const CrashSpec& c : crashes) check_rank("crash", c.rank);
  for (const DrainSpec& d : drains) check_rank("drain", d.rank);
  for (const JoinSpec& j : joins) {
    check_rank("join", j.rank);
    if (j.rank == 0) fail("join rank 0 is invalid (rank 0 seeds the root)");
  }
  const std::uint64_t all = nranks >= 64 ? ~0ull
                            : nranks > 0  ? (1ull << nranks) - 1
                                          : 0;
  for (const PartitionSpec& p : partitions) {
    if (p.heal_ns <= p.start_ns)
      fail("partition heal time must be after its start time");
    if ((p.group_mask & ~all) != 0)
      fail("partition mask names ranks >= " + std::to_string(nranks));
    if (p.group_mask == 0 || p.group_mask == all)
      fail("partition mask must leave both sides nonempty");
  }
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t run_seed,
                             int rank)
    : plan_(plan),
      rank_(rank),
      stall_here_(plan.stalls_enabled() &&
                  (plan.stall_rank < 0 || plan.stall_rank == rank)),
      rng_(run_seed * kSeedMix + 0x9E3779B97F4A7C15ull *
                                     (static_cast<std::uint64_t>(rank) + 1)) {
  if (stall_here_)
    next_stall_ns_ = static_cast<std::uint64_t>(
        static_cast<double>(plan_.stall_period_ns) * scale());
  for (const CrashSpec& cs : plan_.crashes) {
    if (cs.rank == rank) {
      crash_here_ = true;
      crash_spec_ = cs;
      break;  // at most one crash per rank; the first spec wins
    }
  }
  for (const DrainSpec& ds : plan_.drains) {
    if (ds.rank == rank) {
      drain_here_ = true;
      drain_at_ns_ = ds.at_ns;
      break;  // at most one drain per rank; the first spec wins
    }
  }
  for (const JoinSpec& js : plan_.joins) {
    if (js.rank == rank) {
      join_here_ = true;
      join_at_ns_ = js.at_ns;
      break;
    }
  }
}

bool FaultInjector::crash_due(std::uint64_t now_ns, bool in_lock,
                              bool in_steal) {
  if (!crash_here_ || now_ns < crash_armed_ns(in_lock, in_steal))
    return false;
  crash_here_ = false;  // fail-stop fires exactly once
  ++c_.crashes;
  record(trace::Kind::kRankCrashed, now_ns, 0);
  return true;
}

bool FaultInjector::drain_due(std::uint64_t now_ns) {
  if (!drain_here_ || now_ns < drain_at_ns_) return false;
  drain_here_ = false;  // a rank drains exactly once
  ++c_.drains;
  record(trace::Kind::kDrain, now_ns, 0);
  return true;
}

void FaultInjector::note_joined(std::uint64_t now_ns) {
  if (!join_here_) return;
  join_here_ = false;  // a rank joins exactly once
  ++c_.joins;
  record(trace::Kind::kJoin, now_ns, 0);
}

std::uint64_t FaultInjector::partition_extra_ns(int peer,
                                                std::uint64_t now_ns) {
  if (plan_.partitions.empty() || peer == rank_) return 0;
  std::uint64_t extra = 0;
  for (const PartitionSpec& ps : plan_.partitions) {
    if (!ps.active(now_ns) || !ps.separates(rank_, peer)) continue;
    extra = std::max(extra, ps.heal_ns - now_ns);
  }
  if (extra > 0) {
    ++c_.partition_delays;
    c_.partition_delay_ns += extra;
    record(trace::Kind::kPartitionDelay, now_ns, extra);
  }
  return extra;
}

double FaultInjector::scale() {
  std::uniform_real_distribution<double> u(0.5, 1.5);
  return u(rng_);
}

void FaultInjector::record(trace::Kind kind, std::uint64_t t_ns,
                           std::uint64_t ns, int peer) {
  if (events_.size() < kMaxEvents) events_.push_back({t_ns, kind, ns, peer});
}

std::uint64_t FaultInjector::stall_due(std::uint64_t now_ns) {
  if (!stall_here_ || now_ns < next_stall_ns_) return 0;
  const auto dur = static_cast<std::uint64_t>(
      static_cast<double>(plan_.stall_ns) * scale());
  next_stall_ns_ =
      now_ns + dur +
      static_cast<std::uint64_t>(static_cast<double>(plan_.stall_period_ns) *
                                 scale());
  ++c_.stalls;
  c_.stall_ns += dur;
  record(trace::Kind::kStall, now_ns, dur);
  return dur;
}

std::uint64_t FaultInjector::spiked(std::uint64_t base_ns,
                                    std::uint64_t now_ns) {
  if (plan_.spike_prob <= 0.0 || base_ns == 0) return base_ns;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (u(rng_) >= plan_.spike_prob) return base_ns;
  std::exponential_distribution<double> tail(1.0);
  const auto extra = static_cast<std::uint64_t>(
      static_cast<double>(base_ns) * plan_.spike_mult * tail(rng_));
  ++c_.spikes;
  c_.spike_ns += extra;
  record(trace::Kind::kSpike, now_ns, extra);
  return base_ns + extra;
}

bool FaultInjector::drop_message(std::uint64_t now_ns) {
  if (plan_.drop_prob <= 0.0) return false;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (u(rng_) >= plan_.drop_prob) return false;
  ++c_.dropped;
  record(trace::Kind::kMsgDrop, now_ns, 0);
  return true;
}

std::uint64_t FaultInjector::duplicate_delay(std::uint64_t wire_ns,
                                             std::uint64_t now_ns) {
  if (plan_.dup_prob <= 0.0) return 0;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  if (u(rng_) >= plan_.dup_prob) return 0;
  // The duplicate trails the original by up to two wire times (plus a
  // floor so a zero-latency model still reorders).
  std::uniform_real_distribution<double> d(0.0, 1.0);
  const auto delay =
      1 + static_cast<std::uint64_t>(2.0 * static_cast<double>(wire_ns) *
                                     d(rng_));
  ++c_.duplicated;
  record(trace::Kind::kMsgDup, now_ns, delay);
  return delay;
}

}  // namespace upcws::pgas
