#include "trace/trace.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <string>
#include <string_view>

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

void Trace::write_chrome_json(std::ostream& os) const {
  write_chrome_json(os, {});
}

namespace {

/// The rows of a Chrome export, gathered in one buffer that goes to the
/// stream every 64 KiB: numbers are formatted in place by std::to_chars,
/// and the export never holds more than one buffer of text.
class ChromeRows {
 public:
  explicit ChromeRows(std::ostream& os) : os_(os) {
    buf_.reserve(kFlushBytes + 512);
    buf_ = "[\n";
  }

  /// Start a row: the separator after the previous one, and a flush once
  /// the buffer is full.
  ChromeRows& row() {
    if (buf_.size() >= kFlushBytes) flush();
    if (rows_++ > 0) buf_ += ",\n";
    return *this;
  }
  ChromeRows& text(std::string_view s) {
    buf_ += s;
    return *this;
  }
  template <typename Int>
  ChromeRows& num(Int v) {
    char t[24];
    buf_.append(t, std::to_chars(t, t + sizeof t, v).ptr);
    return *this;
  }
  /// Nanoseconds as microseconds, "%.6f" as std::to_string(double) prints
  /// them (the standard defines this to_chars form to match printf).
  ChromeRows& us(std::uint64_t ns) {
    char t[40];  // 2^64 ns is 17 digits of microseconds, plus ".dddddd"
    buf_.append(t, std::to_chars(t, t + sizeof t,
                                 static_cast<double>(ns) / 1000.0,
                                 std::chars_format::fixed, 6)
                       .ptr);
    return *this;
  }
  /// Close the array and write what is left.
  void finish() {
    buf_ += "\n]\n";
    flush();
  }

 private:
  static constexpr std::size_t kFlushBytes = 64 * 1024;
  void flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }
  std::ostream& os_;
  std::string buf_;
  std::size_t rows_ = 0;
};

}  // namespace

void Trace::write_chrome_json(std::ostream& os,
                              const std::vector<FlowEvent>& flows) const {
  ChromeRows out(os);
  // A Figure-1 state slice of rank `r` from `from` to `end_ns`.
  auto slice = [&](int r, const Event& from, std::uint64_t end_ns) {
    out.row()
        .text("{\"name\":\"")
        .text(stats::state_name(static_cast<stats::State>(from.arg0)))
        .text("\",\"ph\":\"X\",\"ts\":")
        .us(from.t_ns)
        .text(",\"dur\":")
        .us(end_ns - from.t_ns)
        .text(",\"pid\":0,\"tid\":")
        .num(r)
        .text("}");
  };
  for (int r = 0; r < nranks(); ++r) {
    const std::vector<Event> v = ordered(r);
    // State intervals.
    const Event* prev = nullptr;
    for (const Event& e : v) {
      if (e.kind != Kind::kState) continue;
      if (prev != nullptr && e.t_ns > prev->t_ns) slice(r, *prev, e.t_ns);
      prev = &e;
    }
    if (prev != nullptr && ends_[r] > prev->t_ns) slice(r, *prev, ends_[r]);
    // Instant events for the load-balancing operations.
    for (const Event& e : v) {
      if (e.kind == Kind::kState) continue;
      out.row()
          .text("{\"name\":\"")
          .text(kind_name(e.kind))
          .text("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":")
          .us(e.t_ns)
          .text(",\"pid\":0,\"tid\":")
          .num(r)
          .text(",\"args\":{\"peer\":")
          .num(e.arg0)
          .text(",\"nodes\":")
          .num(e.arg1)
          .text("}}");
    }
  }
  // Flow steps ("s"/"t"/"f" sharing an id) bind to the enclosing duration
  // slice on their (pid, tid, ts); Perfetto then draws the steal arrows
  // across the rank timelines. bp:"e" on the finish binds to the enclosing
  // slice rather than the next one.
  for (const FlowEvent& f : flows) {
    out.row()
        .text("{\"name\":\"steal\",\"cat\":\"steal\",\"ph\":\"")
        .text(std::string_view(&f.ph, 1))
        .text("\",\"id\":")
        .num(f.id)
        .text(",\"ts\":")
        .us(f.t_ns)
        .text(",\"pid\":0,\"tid\":")
        .num(f.tid)
        .text(f.ph == 'f' ? ",\"bp\":\"e\"}" : "}");
  }
  out.finish();
}

}  // namespace upcws::trace
