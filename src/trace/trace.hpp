// Structured execution traces: what every rank did, when.
//
// When a Trace is attached to a run (WsConfig::trace), the algorithms
// record state changes and load-balancing events with Ctx timestamps
// (virtual ns under the simulator — so a trace of a 256-rank simulated run
// is a faithful picture of the modeled parallel execution). Traces export
// to CSV and to the Chrome/Perfetto trace-event JSON format
// (chrome://tracing, https://ui.perfetto.dev) where the Figure-1 state
// machine of every rank renders as a timeline.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "stats/stats.hpp"

namespace upcws::trace {

enum class Kind : std::uint8_t {
  kState,         ///< arg0 = new stats::State
  kStealOk,       ///< arg0 = victim rank, arg1 = nodes transferred
  kStealFail,     ///< arg0 = victim rank
  kRelease,       ///< arg1 = nodes released to the shared region
  kServiceGrant,  ///< arg0 = thief rank, arg1 = nodes granted
  kServiceDeny,   ///< arg0 = thief rank
  // Hardened-protocol recovery actions.
  kStealTimeout,  ///< arg0 = victim whose answer the thief stopped awaiting
  kRetransmit,    ///< arg0 = peer a request/reply/token was resent to
  // Injected faults (merged from the per-rank FaultInjector logs).
  kStall,         ///< arg1 = injected stall duration (ns)
  kSpike,         ///< arg1 = extra latency injected on a remote op (ns)
  kMsgDrop,       ///< a message from this rank was lost on the wire
  kMsgDup,        ///< arg1 = delay of the duplicated copy (ns)
  // Crash faults and recovery.
  kRankCrashed,   ///< this rank fail-stopped (permanent)
  kLockRevoked,   ///< arg0 = dead holder whose lease this rank broke
  kWorkRecovered, ///< arg0 = dead rank recovered from, arg1 = nodes
  // Elastic membership and partitions.
  kDrain,         ///< this rank gracefully drained out of the membership
  kJoin,          ///< this rank joined the membership mid-run
  kPartitionDelay,///< arg1 = ns a cross-cut op was delayed by a partition
};

const char* kind_name(Kind k);

struct Event {
  std::uint64_t t_ns = 0;
  std::int32_t rank = 0;
  Kind kind = Kind::kState;
  std::int32_t arg0 = 0;
  std::int64_t arg1 = 0;
};

/// One step of a Chrome/Perfetto *flow* — an arrow stitched across the
/// per-rank timeline slices. A flow is a sequence of steps sharing an `id`:
/// exactly one 's' (start), any number of 't' (step), one 'f' (finish).
/// The steal-span exporter (obs::SpanLog::flow_events) produces one flow
/// per completed steal transaction, linking the thief's request slice to
/// the victim's service slice and back to the thief's absorb.
struct FlowEvent {
  std::uint64_t id = 0;    ///< flow identity (steal-span id)
  std::uint64_t t_ns = 0;  ///< Ctx time of this step
  std::int32_t tid = 0;    ///< timeline row (rank) the step attaches to
  char ph = 's';           ///< 's' | 't' | 'f'
};

/// The one Chrome/Perfetto trace-event writer: Trace, obs::SpanLog and
/// obs::JobLog write their exports only through it. One method per row
/// shape ([..] is optional):
///
///   slice    {"name":N[,"cat":C],"ph":"X","ts":T,"dur":D,"pid":0,"tid":R[,"args":{..}]}
///   instant  {"name":N,"ph":"i","s":"t","ts":T,"pid":0,"tid":R[,"args":{..}]}
///   flow     {"name":"steal","cat":"steal","ph":P,"id":I,"ts":T,"pid":0,"tid":R[,"bp":"e"]}
///
/// Times go in as ns and come out as microseconds printed like "%.6f". A
/// slice or instant stays open until the next row, so arg() calls fill its
/// "args" object; a slice of zero length is not written, and neither are
/// the args that follow it. Rows gather in one 64 KiB buffer that goes to
/// the stream when full, with numbers formatted in place by std::to_chars.
class ChromeWriter {
 public:
  /// A row name: `head`, then `tail` or a decimal number when given
  /// ("job " "completed", "attempt " 2).
  struct Name {
    Name(const char* head) : head(head) {}
    Name(std::string_view head, std::string_view tail)
        : head(head), tail(tail) {}
    Name(std::string_view head, std::int64_t number)
        : head(head), number(number) {}
    std::string_view head, tail;
    std::optional<std::int64_t> number;
  };

  explicit ChromeWriter(std::ostream& os) : os_(os) { text("[\n"); }

  /// A duration slice from `begin_ns` to `end_ns` on timeline row `tid`
  /// (none when `end_ns` <= `begin_ns`); `cat` is left out when empty.
  ChromeWriter& slice(const Name& name, std::uint64_t begin_ns,
                      std::uint64_t end_ns, int tid,
                      std::string_view cat = {}) {
    if (end_ns <= begin_ns) return close_row();
    begin_row(name);
    if (!cat.empty()) text("\",\"cat\":\"").text(cat);
    text("\",\"ph\":\"X\",\"ts\":").us(begin_ns);
    text(",\"dur\":").us(end_ns - begin_ns);
    text(",\"pid\":0,\"tid\":").num(tid);
    open_ = true;
    return *this;
  }

  /// A thread-scoped instant at `ts_ns` on row `tid`.
  ChromeWriter& instant(const Name& name, std::uint64_t ts_ns, int tid) {
    begin_row(name);
    text("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":").us(ts_ns);
    text(",\"pid\":0,\"tid\":").num(tid);
    open_ = true;
    return *this;
  }

  /// One step of a steal flow arrow; bp:"e" binds a finish to the slice
  /// that encloses it rather than the next one.
  void flow(const FlowEvent& f) {
    begin_row("steal");
    text("\",\"cat\":\"steal\",\"ph\":\"").text(std::string_view(&f.ph, 1));
    text("\",\"id\":").num(f.id).text(",\"ts\":").us(f.t_ns);
    text(",\"pid\":0,\"tid\":").num(f.tid);
    text(f.ph == 'f' ? std::string_view(",\"bp\":\"e\"}") : "}");
  }

  /// Add `key` to the open row's args: a number, a bool, or a string
  /// (written between quotes as it is).
  template <std::integral Int>
  ChromeWriter& arg(std::string_view key, Int v) {
    if (open_arg(key)) num(v);
    return *this;
  }
  ChromeWriter& arg(std::string_view key, bool v) {
    if (open_arg(key)) text(v ? "true" : "false");
    return *this;
  }
  ChromeWriter& arg(std::string_view key, std::string_view v) {
    if (open_arg(key)) text("\"").text(v).text("\"");
    return *this;
  }

  /// Close the last row and the array, and write what is left.
  void finish() {
    close_row();
    text("\n]\n");
    flush();
  }

 private:
  static constexpr std::size_t kBufBytes = 64 * 1024;

  ChromeWriter& close_row() {
    if (open_) text(args_ ? std::string_view("}}") : "}");
    open_ = args_ = false;
    return *this;
  }
  /// Close the open row, then start a new one with its name; the name's
  /// closing quote opens the row's next field.
  void begin_row(const Name& name) {
    close_row();
    text(rows_++ > 0 ? std::string_view(",\n{\"name\":\"") : "{\"name\":\"");
    text(name.head);
    if (!name.tail.empty()) text(name.tail);
    if (name.number) num(*name.number);
  }
  /// Start `key` in the open row's args; false when no row takes args.
  bool open_arg(std::string_view key) {
    if (!open_) return false;
    text(args_ ? std::string_view(",\"") : ",\"args\":{\"").text(key);
    text("\":");
    args_ = true;
    return true;
  }
  ChromeWriter& text(std::string_view s) {
    if (s.size() > room()) return flush(s);
    std::memcpy(p_, s.data(), s.size());
    p_ += s.size();
    return *this;
  }
  template <typename Int>
  ChromeWriter& num(Int v) {
    if (room() < 24) flush();
    p_ = std::to_chars(p_, p_ + 24, v).ptr;
    return *this;
  }
  /// Nanoseconds as microseconds, "%.6f" as std::to_string(double) prints
  /// them (the standard defines this to_chars form to match printf).
  ChromeWriter& us(std::uint64_t ns) {
    if (room() < 40) flush();  // 2^64 ns is 17 digits of µs, plus ".dddddd"
    p_ = std::to_chars(p_, p_ + 40, static_cast<double>(ns) / 1000.0,
                       std::chars_format::fixed, 6)
             .ptr;
    return *this;
  }
  std::size_t room() const { return static_cast<std::size_t>(end_ - p_); }
  /// Write the buffer, then `tail`, to the stream.
  ChromeWriter& flush(std::string_view tail = {});

  std::ostream& os_;
  std::unique_ptr<char[]> buf_{new char[kBufBytes]};
  char* p_ = buf_.get();                 ///< end of the unwritten text
  char* const end_ = p_ + kBufBytes;
  std::size_t rows_ = 0;
  bool open_ = false;  ///< the last row is a slice or instant (takes args)
  bool args_ = false;  ///< ... and its "args" object is open
};

/// Per-rank event buffers; each rank appends only to its own buffer, so no
/// synchronization is needed under either engine.
///
/// Buffers are unbounded by default. set_ring_capacity(cap) turns each
/// rank's buffer into a ring of `cap` events: the newest events win, the
/// oldest are overwritten, and every overwrite is tallied in
/// dropped_events() — so a million-node traced run keeps bounded memory and
/// the run report can state exactly how much history was lost.
class Trace {
 public:
  explicit Trace(int nranks);

  int nranks() const { return static_cast<int>(bufs_.size()); }

  /// Bound every rank's buffer to `cap` events (0 = unbounded, the
  /// default). Must be called before any events are recorded.
  void set_ring_capacity(std::size_t cap) { cap_ = cap; }
  std::size_t ring_capacity() const { return cap_; }

  /// Events overwritten across all ranks because of the ring bound.
  std::uint64_t dropped_events() const;

  void record(int rank, Event e) {
    Buf& b = bufs_[rank];
    if (cap_ == 0 || b.v.size() < cap_) {
      b.v.push_back(e);
      return;
    }
    b.v[b.head] = e;
    b.head = (b.head + 1) % cap_;
    ++b.dropped;
  }

  void state(int rank, std::uint64_t t, stats::State s) {
    record(rank, {t, rank, Kind::kState, static_cast<std::int32_t>(s), 0});
  }
  void steal(int rank, std::uint64_t t, int victim, std::int64_t nodes,
             bool ok) {
    record(rank, {t, rank, ok ? Kind::kStealOk : Kind::kStealFail, victim,
                  nodes});
  }
  void release(int rank, std::uint64_t t, std::int64_t nodes) {
    record(rank, {t, rank, Kind::kRelease, 0, nodes});
  }
  void service(int rank, std::uint64_t t, int thief, std::int64_t nodes,
               bool granted) {
    record(rank, {t, rank, granted ? Kind::kServiceGrant : Kind::kServiceDeny,
                  thief, nodes});
  }
  void timeout(int rank, std::uint64_t t, int victim) {
    record(rank, {t, rank, Kind::kStealTimeout, victim, 0});
  }
  void retransmit(int rank, std::uint64_t t, int peer) {
    record(rank, {t, rank, Kind::kRetransmit, peer, 0});
  }
  /// Injected fault or lock revocation (a pgas::FaultEvent); `ns` is the
  /// stall, spike, dup or partition delay, `peer` a revocation's dead
  /// holder, each 0 for the other kinds.
  void fault(int rank, std::uint64_t t, Kind kind, std::int64_t ns,
             int peer = 0) {
    record(rank, {t, rank, kind, peer, ns});
  }
  void recover(int rank, std::uint64_t t, int from, std::int64_t nodes) {
    record(rank, {t, rank, Kind::kWorkRecovered, from, nodes});
  }

  /// Mark the end of a rank's timeline (closes its last state interval).
  void finish(int rank, std::uint64_t t) { ends_[rank] = t; }

  std::size_t total_events() const;

  /// One rank's retained events in record order (unrolls the ring).
  std::vector<Event> ordered(int rank) const;

  /// All events of all ranks, sorted by (time, rank).
  std::vector<Event> merged() const;

  /// CSV: t_ns,rank,kind,arg0,arg1
  void write_csv(std::ostream& os) const;

  /// Chrome trace-event JSON: one "thread" per rank; Figure-1 states as
  /// duration events, steals/services as instant events, and `flows`
  /// (steal-span arrows) stitched into the timelines. Open at
  /// https://ui.perfetto.dev; enable "Flow events" to see each steal's
  /// request->service->absorb arrow.
  void write_chrome_json(std::ostream& os,
                         const std::vector<FlowEvent>& flows = {}) const;

 private:
  struct Buf {
    alignas(64) std::vector<Event> v;
    std::size_t head = 0;        ///< ring start once the buffer wrapped
    std::uint64_t dropped = 0;   ///< events overwritten by the ring
  };
  std::vector<Buf> bufs_;
  std::vector<std::uint64_t> ends_;
  std::size_t cap_ = 0;
};

}  // namespace upcws::trace
