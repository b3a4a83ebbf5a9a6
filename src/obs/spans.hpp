// Causal steal-transaction spans: every steal is tracked as one span with a
// run-unique id, from the thief opening the transaction (kRequest) through
// the victim deciding it (kService/kDeny) to the payload landing on the
// thief's stack (kTransfer, kAbsorb) — including the hardened-protocol
// failure paths (kTimeout, kAbandon) and crash salvage (kSalvage). Spans
// export as Perfetto flow events stitched into the trace::Trace timelines,
// so each steal renders as an arrow from the thief's request slice through
// the victim's service slice and back (docs/observability.md).
//
// Recording discipline: every rank appends span events only to its OWN
// buffer; the rank whose timeline a step belongs to is named by the event's
// `track` field. The only cross-rank channel is the active-span table — an
// atomic slot per (thief, victim) pair into which the thief publishes its
// outstanding span id *before* the request becomes visible to the victim.
// The protocols allow at most one outstanding request per pair and the id
// travels on the protocol's own release/acquire edges (lock hand-off or
// request CAS), so a plain atomic slot is sufficient: when the victim
// services a request from rank T it reads active(T, me) and gets the right
// id (or 0 when no observer published one, in which case it records
// nothing). A thief that abandons a request leaves its id published, since
// the request may still be in flight and no protocol edge orders the
// abandon before the victim's read; assembly then drops the victim's steps
// that come after the abandon in (slice key, rank) order — the steps the
// sequential engine's victim would not have recorded.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "trace/trace.hpp"

namespace upcws::obs {

enum class SpanPhase : std::uint8_t {
  kRequest,   ///< thief opened the transaction (lock sought / request sent)
  kService,   ///< victim claimed the request and reserved a grant
  kTransfer,  ///< thief finished pulling the payload
  kAbsorb,    ///< nodes pushed onto the thief's stack (terminal: success)
  kDeny,      ///< victim had no surplus (terminal: failure)
  kTimeout,   ///< thief's response deadline passed (withdraw/retransmit)
  kAbandon,   ///< thief walked away — withdrawn, termination, or lost race
  kSalvage,   ///< payload recovered from a dead peer's lineage record
};

const char* span_phase_name(SpanPhase p);

/// One recorded step of a span.
struct SpanEvent {
  std::uint64_t id = 0;
  std::uint64_t t_ns = 0;
  SpanPhase phase = SpanPhase::kRequest;
  std::int32_t track = 0;  ///< rank timeline this step belongs to
  std::int32_t peer = -1;  ///< other side of the transaction (victim/thief)
  std::int32_t recorder = 0;  ///< rank whose buffer holds the step
  std::int64_t nodes = 0;  ///< payload size where known
  /// Key of the recorder's slice: (slice_ns, recorder) orders the steps of
  /// different ranks as the sequential engine ran them.
  std::uint64_t slice_ns = 0;
};

/// A steal transaction assembled from its events.
struct Span {
  std::uint64_t id = 0;
  int thief = -1;
  int victim = -1;
  std::uint64_t t_request = 0;
  std::uint64_t t_service = 0;   ///< 0 if the victim never recorded service
  std::uint64_t t_transfer = 0;  ///< 0 if no payload was pulled
  std::uint64_t t_absorb = 0;    ///< 0 unless completed
  std::uint64_t t_end = 0;       ///< time of the span's last event
  std::int64_t nodes = 0;
  int timeouts = 0;              ///< kTimeout steps observed (non-terminal)
  bool salvaged = false;         ///< payload came from crash recovery

  enum class Outcome {
    kCompleted,   ///< work absorbed by the thief
    kDenied,      ///< victim refused (no surplus)
    kAbandoned,   ///< thief withdrew / gave up
    kIncomplete,  ///< run ended (or a rank died) mid-transaction
  } outcome = Outcome::kIncomplete;

  bool completed() const { return outcome == Outcome::kCompleted; }
};

const char* span_outcome_name(Span::Outcome o);

/// Per-rank span-event buffers plus the active-span table.
///
/// Id layout (process-unique, not merely run-unique): bits 40..63 carry a
/// process-wide run epoch drawn once per start_run, bits 24..39 carry
/// thief + 1, bits 0..23 a per-thief sequence. Back-to-back runs in one
/// process (service attempts, repeated run_search calls) therefore never
/// reuse an id, so spans from many runs merge into one Perfetto stream
/// without flow-id collisions. Within a run, ids remain a deterministic
/// function of (thief, steal order) — no cross-rank state on the hot path.
class SpanLog {
 public:
  /// Reset for a run of `nranks` ranks.
  void start_run(int nranks);

  int nranks() const { return static_cast<int>(bufs_.size()); }

  /// The process-wide run epoch carried in this log's span ids.
  std::uint64_t run_epoch() const { return epoch_; }

  static int thief_of(std::uint64_t id) {
    return static_cast<int>((id >> 24) & 0xFFFF) - 1;
  }

  /// Open a new span for a steal by `thief` from `victim`; returns its
  /// process-unique id (see the class comment for the layout).
  std::uint64_t begin(int thief, int victim) {
    (void)victim;
    Buf& b = bufs_[static_cast<std::size_t>(thief)];
    return epoch_ << 40 |
           (static_cast<std::uint64_t>(thief) + 1) << 24 |
           (++b.seq & 0xFFFFFF);
  }

  /// Record one step of span `id` from `recorder`'s own context. `track`
  /// names the rank timeline the step belongs to (under the locked
  /// protocol the thief records the victim's service step itself, with
  /// track = victim). `slice_ns` is the key of the recorder's current
  /// slice (Ctx::slice_now_ns; `t` when omitted).
  void event(int recorder, std::uint64_t id, SpanPhase phase, std::uint64_t t,
             int track, int peer, std::int64_t nodes = 0,
             std::optional<std::uint64_t> slice_ns = std::nullopt) {
    bufs_[static_cast<std::size_t>(recorder)].v.push_back(
        {id, t, phase, track, peer, recorder, nodes, slice_ns.value_or(t)});
  }

  /// Publish `id` as thief's outstanding request toward victim. Must
  /// happen before the request is made visible to the victim.
  void publish_active(int thief, int victim, std::uint64_t id) {
    active_[slot(thief, victim)].store(id, std::memory_order_release);
  }

  /// The span id of thief's outstanding request toward victim (0 = none
  /// published — the victim then skips span recording).
  std::uint64_t active(int thief, int victim) const {
    return active_[slot(thief, victim)].load(std::memory_order_acquire);
  }

  void clear_active(int thief, int victim) { publish_active(thief, victim, 0); }

  std::size_t total_events() const;

  /// All events of all ranks, sorted by (time, id).
  std::vector<SpanEvent> events() const;

  /// Group events by id into assembled spans, ordered by t_request.
  std::vector<Span> assemble() const;

  /// One Perfetto flow per completed span: 's' at the thief's request,
  /// 't' at the victim's service (when recorded), 'f' at the thief's
  /// absorb. Feed to trace::Trace::write_chrome_json.
  std::vector<trace::FlowEvent> flow_events() const {
    return flow_events(assemble());
  }
  /// The same flows, from spans already assembled.
  static std::vector<trace::FlowEvent> flow_events(
      const std::vector<Span>& spans);

  /// Standalone Perfetto export (no trace::Trace required): every
  /// assembled span as a duration slice on its thief's track, named by
  /// outcome, with the completed-span flow arrows stitched in. Open at
  /// https://ui.perfetto.dev.
  void write_chrome_json(std::ostream& os) const;

 private:
  std::size_t slot(int thief, int victim) const {
    return static_cast<std::size_t>(thief) *
               static_cast<std::size_t>(nranks()) +
           static_cast<std::size_t>(victim);
  }

  struct Buf {
    alignas(64) std::vector<SpanEvent> v;
    std::uint64_t seq = 0;
  };
  std::vector<Buf> bufs_;
  std::vector<std::atomic<std::uint64_t>> active_;
  std::uint64_t epoch_ = 0;
};

}  // namespace upcws::obs
