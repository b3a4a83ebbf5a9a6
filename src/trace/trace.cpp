#include "trace/trace.hpp"

#include <algorithm>
#include <ostream>

namespace upcws::trace {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kState: return "state";
    case Kind::kStealOk: return "steal_ok";
    case Kind::kStealFail: return "steal_fail";
    case Kind::kRelease: return "release";
    case Kind::kServiceGrant: return "service_grant";
    case Kind::kServiceDeny: return "service_deny";
    case Kind::kStealTimeout: return "steal_timeout";
    case Kind::kRetransmit: return "retransmit";
    case Kind::kStall: return "stall";
    case Kind::kSpike: return "spike";
    case Kind::kMsgDrop: return "msg_drop";
    case Kind::kMsgDup: return "msg_dup";
    case Kind::kRankCrashed: return "rank_crashed";
    case Kind::kLockRevoked: return "lock_revoked";
    case Kind::kWorkRecovered: return "work_recovered";
    case Kind::kDrain: return "drain";
    case Kind::kJoin: return "join";
    case Kind::kPartitionDelay: return "partition_delay";
  }
  return "?";
}

Trace::Trace(int nranks) : bufs_(nranks), ends_(nranks, 0) {}

std::size_t Trace::total_events() const {
  std::size_t n = 0;
  for (const Buf& b : bufs_) n += b.v.size();
  return n;
}

std::uint64_t Trace::dropped_events() const {
  std::uint64_t n = 0;
  for (const Buf& b : bufs_) n += b.dropped;
  return n;
}

std::vector<Event> Trace::ordered(int rank) const {
  const Buf& b = bufs_[rank];
  std::vector<Event> out;
  out.reserve(b.v.size());
  // head is the oldest retained event once the ring wrapped (0 otherwise).
  for (std::size_t i = 0; i < b.v.size(); ++i)
    out.push_back(b.v[(b.head + i) % b.v.size()]);
  return out;
}

std::vector<Event> Trace::merged() const {
  std::vector<Event> all;
  all.reserve(total_events());
  for (int r = 0; r < nranks(); ++r) {
    const std::vector<Event> v = ordered(r);
    all.insert(all.end(), v.begin(), v.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.t_ns != b.t_ns ? a.t_ns < b.t_ns : a.rank < b.rank;
  });
  return all;
}

void Trace::write_csv(std::ostream& os) const {
  os << "t_ns,rank,kind,arg0,arg1\n";
  for (const Event& e : merged())
    os << e.t_ns << ',' << e.rank << ',' << kind_name(e.kind) << ',' << e.arg0
       << ',' << e.arg1 << '\n';
}

ChromeWriter& ChromeWriter::flush(std::string_view tail) {
  os_.write(buf_.get(), p_ - buf_.get());
  os_.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  p_ = buf_.get();
  return *this;
}

void Trace::write_chrome_json(std::ostream& os,
                              const std::vector<FlowEvent>& flows) const {
  ChromeWriter out(os);
  // A Figure-1 state slice of rank `r` from `from` to `end_ns`.
  auto slice = [&](int r, const Event& from, std::uint64_t end_ns) {
    out.slice(stats::state_name(static_cast<stats::State>(from.arg0)),
              from.t_ns, end_ns, r);
  };
  for (int r = 0; r < nranks(); ++r) {
    const std::vector<Event> v = ordered(r);
    // State intervals.
    const Event* prev = nullptr;
    for (const Event& e : v) {
      if (e.kind != Kind::kState) continue;
      if (prev != nullptr) slice(r, *prev, e.t_ns);
      prev = &e;
    }
    if (prev != nullptr) slice(r, *prev, ends_[r]);
    // Instant events for the load-balancing operations.
    for (const Event& e : v) {
      if (e.kind == Kind::kState) continue;
      out.instant(kind_name(e.kind), e.t_ns, r)
          .arg("peer", e.arg0)
          .arg("nodes", e.arg1);
    }
  }
  // Flow steps ("s"/"t"/"f" sharing an id) bind to the enclosing duration
  // slice on their (pid, tid, ts); Perfetto then draws the steal arrows
  // across the rank timelines.
  for (const FlowEvent& f : flows) out.flow(f);
  out.finish();
}

}  // namespace upcws::trace
