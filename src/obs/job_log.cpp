#include "obs/job_log.hpp"

namespace upcws::obs {

const char* job_outcome_name(JobOutcome o) {
  switch (o) {
    case JobOutcome::kNone: return "none";
    case JobOutcome::kCompleted: return "completed";
    case JobOutcome::kRejected: return "rejected";
    case JobOutcome::kCancelled: return "cancelled";
    case JobOutcome::kRetriesExhausted: return "retries_exhausted";
  }
  return "?";
}

void JobLog::reset() {
  jobs_.clear();
  index_.clear();
}

JobTimeline* JobLog::get(std::uint64_t id) {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &jobs_[it->second];
}

const JobTimeline* JobLog::find(std::uint64_t id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &jobs_[it->second];
}

void JobLog::admit(std::uint64_t id, std::uint64_t arrival_ns,
                   std::uint64_t deadline_abs_ns) {
  index_[id] = jobs_.size();
  JobTimeline t;
  t.id = id;
  t.arrival_ns = arrival_ns;
  t.deadline_abs_ns = deadline_abs_ns;
  jobs_.push_back(std::move(t));
}

void JobLog::rejected(std::uint64_t id, std::uint64_t t_ns,
                      const std::string& reason) {
  JobTimeline* t = get(id);
  if (t == nullptr) return;
  t->reject = reason;
  t->terminal_ns = t_ns;
  t->outcome = JobOutcome::kRejected;
}

void JobLog::attempt_begin(std::uint64_t id, int number, std::uint64_t t_ns) {
  JobTimeline* t = get(id);
  if (t == nullptr) return;
  JobAttempt a;
  a.number = number;
  a.begin_ns = t_ns;
  a.end_ns = t_ns;
  t->attempts.push_back(std::move(a));
}

void JobLog::attempt_end(std::uint64_t id, std::uint64_t t_ns, bool failed,
                         bool cancelled) {
  JobTimeline* t = get(id);
  if (t == nullptr || t->attempts.empty()) return;
  JobAttempt& a = t->attempts.back();
  a.end_ns = t_ns;
  a.failed = failed;
  a.cancelled = cancelled;
}

void JobLog::attempt_spans(std::uint64_t id, const std::vector<Span>& spans,
                           std::uint64_t rebase_ns) {
  JobTimeline* t = get(id);
  if (t == nullptr || t->attempts.empty()) return;
  JobAttempt& a = t->attempts.back();
  a.steals = spans;
  auto shift = [rebase_ns](std::uint64_t& v) {
    if (v != 0) v += rebase_ns;  // 0 stays the "never happened" sentinel
  };
  for (Span& s : a.steals) {
    shift(s.t_request);
    shift(s.t_service);
    shift(s.t_transfer);
    shift(s.t_absorb);
    shift(s.t_end);
  }
}

void JobLog::backoff(std::uint64_t id, std::uint64_t until_ns) {
  JobTimeline* t = get(id);
  if (t == nullptr || t->attempts.empty()) return;
  t->attempts.back().backoff_until_ns = until_ns;
}

void JobLog::terminal(std::uint64_t id, std::uint64_t t_ns, JobOutcome o) {
  JobTimeline* t = get(id);
  if (t == nullptr) return;
  t->terminal_ns = t_ns;
  t->outcome = o;
}

void JobLog::write_chrome_json(std::ostream& os) const {
  trace::ChromeWriter out(os);
  for (const JobTimeline& j : jobs_) {
    const int tid = static_cast<int>(j.id);
    out.slice({"job ", job_outcome_name(j.outcome)}, j.arrival_ns,
              j.terminal_ns, tid)
        .arg("job", j.id)
        .arg("attempts", j.attempts.size());
    if (!j.reject.empty()) out.arg("reject", j.reject);
    // Queue-wait, attempt and backoff slices partition [arrival, terminal).
    std::uint64_t cursor = j.arrival_ns;
    for (const JobAttempt& a : j.attempts) {
      out.slice("queued", cursor, a.begin_ns, tid);
      out.slice({"attempt ", a.number}, a.begin_ns, a.end_ns, tid)
          .arg("failed", a.failed)
          .arg("cancelled", a.cancelled);
      cursor = a.end_ns;
      if (a.backoff_until_ns > a.end_ns) {
        out.slice("backoff", a.end_ns, a.backoff_until_ns, tid);
        cursor = a.backoff_until_ns;
      }
      for (const Span& s : a.steals) {
        if (s.t_end <= s.t_request) continue;
        out.slice({"steal ", span_outcome_name(s.outcome)}, s.t_request,
                  s.t_end, tid)
            .arg("victim", s.victim)
            .arg("nodes", s.nodes);
        // Flow steps share the span's process-unique id, so a merged trace
        // that also carries the engine-side export of this attempt draws
        // the arrow between the job lane and the rank timelines.
        if (!s.completed()) continue;
        out.flow({s.id, s.t_request, tid, 's'});
        out.flow({s.id, s.t_absorb, tid, 'f'});
      }
    }
    if (j.outcome != JobOutcome::kNone) {
      out.slice("queued", cursor, j.terminal_ns, tid);
      out.instant(job_outcome_name(j.outcome), j.terminal_ns, tid);
    }
  }
  out.finish();
}

}  // namespace upcws::obs
