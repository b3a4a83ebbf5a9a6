#include "obs/spans.hpp"

#include <algorithm>
#include <map>

namespace upcws::obs {

const char* span_phase_name(SpanPhase p) {
  switch (p) {
    case SpanPhase::kRequest: return "request";
    case SpanPhase::kService: return "service";
    case SpanPhase::kTransfer: return "transfer";
    case SpanPhase::kAbsorb: return "absorb";
    case SpanPhase::kDeny: return "deny";
    case SpanPhase::kTimeout: return "timeout";
    case SpanPhase::kAbandon: return "abandon";
    case SpanPhase::kSalvage: return "salvage";
  }
  return "?";
}

const char* span_outcome_name(Span::Outcome o) {
  switch (o) {
    case Span::Outcome::kCompleted: return "completed";
    case Span::Outcome::kDenied: return "denied";
    case Span::Outcome::kAbandoned: return "abandoned";
    case Span::Outcome::kIncomplete: return "incomplete";
  }
  return "?";
}

void SpanLog::start_run(int nranks) {
  // 24 bits of process-wide epoch: wraps after 16M runs in one process,
  // far past any realistic soak. The first run in a process gets epoch 0,
  // so single-run traces are reproducible process to process.
  static std::atomic<std::uint64_t> next_epoch{0};
  epoch_ = next_epoch.fetch_add(1, std::memory_order_relaxed) & 0xFFFFFF;
  bufs_.clear();
  bufs_.resize(static_cast<std::size_t>(nranks));
  active_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks));
  for (auto& a : active_) a.store(0, std::memory_order_relaxed);
}

std::size_t SpanLog::total_events() const {
  std::size_t n = 0;
  for (const Buf& b : bufs_) n += b.v.size();
  return n;
}

std::vector<SpanEvent> SpanLog::events() const {
  std::vector<SpanEvent> all;
  all.reserve(total_events());
  for (const Buf& b : bufs_) all.insert(all.end(), b.v.begin(), b.v.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const SpanEvent& a, const SpanEvent& b) {
                     return a.t_ns != b.t_ns ? a.t_ns < b.t_ns : a.id < b.id;
                   });
  return all;
}

std::vector<Span> SpanLog::assemble() const {
  const std::vector<SpanEvent> all = events();
  // The abandon key of each abandoned span; a victim's step keyed after it
  // read an id the sequential engine's victim would have found withdrawn.
  using Key = std::pair<std::uint64_t, int>;
  std::map<std::uint64_t, Key> abandoned;
  for (const SpanEvent& e : all)
    if (e.phase == SpanPhase::kAbandon)
      abandoned.emplace(e.id, Key{e.slice_ns, e.recorder});
  std::map<std::uint64_t, Span> by_id;
  for (const SpanEvent& e : all) {
    if (e.recorder != thief_of(e.id)) {
      const auto a = abandoned.find(e.id);
      if (a != abandoned.end() && a->second < Key{e.slice_ns, e.recorder})
        continue;
    }
    Span& s = by_id[e.id];
    if (s.id == 0) {
      s.id = e.id;
      s.thief = thief_of(e.id);
    }
    s.t_end = std::max(s.t_end, e.t_ns);
    switch (e.phase) {
      case SpanPhase::kRequest:
        s.t_request = e.t_ns;
        s.victim = e.peer;
        break;
      case SpanPhase::kService:
        s.t_service = e.t_ns;
        if (s.victim < 0) s.victim = e.track;
        if (e.nodes > 0) s.nodes = e.nodes;
        break;
      case SpanPhase::kTransfer:
        s.t_transfer = e.t_ns;
        if (e.nodes > 0) s.nodes = e.nodes;
        break;
      case SpanPhase::kAbsorb:
        s.t_absorb = e.t_ns;
        if (e.nodes > 0) s.nodes = e.nodes;
        s.outcome = Span::Outcome::kCompleted;
        break;
      case SpanPhase::kDeny:
        if (s.outcome != Span::Outcome::kCompleted)
          s.outcome = Span::Outcome::kDenied;
        break;
      case SpanPhase::kTimeout:
        ++s.timeouts;
        break;
      case SpanPhase::kAbandon:
        if (s.outcome == Span::Outcome::kIncomplete)
          s.outcome = Span::Outcome::kAbandoned;
        break;
      case SpanPhase::kSalvage:
        s.salvaged = true;
        break;
    }
  }
  std::vector<Span> out;
  out.reserve(by_id.size());
  for (auto& [id, s] : by_id) out.push_back(s);
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.t_request != b.t_request ? a.t_request < b.t_request
                                      : a.id < b.id;
  });
  return out;
}

std::vector<trace::FlowEvent> SpanLog::flow_events(
    const std::vector<Span>& spans) {
  std::vector<trace::FlowEvent> out;
  for (const Span& s : spans) {
    if (!s.completed() || s.thief < 0) continue;
    out.push_back({s.id, s.t_request, s.thief, 's'});
    // The victim's service step is absent on salvage paths (the victim is
    // dead); the flow then goes straight from request to absorb.
    if (s.t_service != 0 && s.victim >= 0)
      out.push_back({s.id, s.t_service, s.victim, 't'});
    out.push_back({s.id, s.t_absorb, s.thief, 'f'});
  }
  return out;
}

void SpanLog::write_chrome_json(std::ostream& os) const {
  trace::ChromeWriter out(os);
  const std::vector<Span> spans = assemble();
  for (const Span& s : spans) {
    if (s.thief < 0) continue;
    out.slice({"steal ", span_outcome_name(s.outcome)}, s.t_request, s.t_end,
              s.thief, "steal")
        .arg("victim", s.victim)
        .arg("nodes", s.nodes)
        .arg("timeouts", s.timeouts)
        .arg("salvaged", s.salvaged);
  }
  for (const trace::FlowEvent& f : flow_events(spans)) out.flow(f);
  out.finish();
}

}  // namespace upcws::obs
