// Job-lifecycle spans for the resident service (src/svc): one causal
// timeline per job from admission through queue wait, every attempt (with
// its retry-backoff interval), to the terminal state — plus, when the
// service attaches its per-attempt Observer, the steal-transaction spans of
// each attempt rebased into service time, so the whole soak exports as one
// Perfetto Chrome-JSON stream (job lanes above, steal arrows inside).
//
// Like every obs stream this is pure observation: the service calls the
// record hooks after its own bookkeeping, the log never feeds anything
// back, and a soak with a JobLog attached is byte-identical to one without.
// Span ids inside attempts stay globally unique across the soak's many
// engine runs because SpanLog ids carry a process-wide run epoch.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/spans.hpp"

namespace upcws::obs {

enum class JobOutcome : std::uint8_t {
  kNone,  ///< not terminal yet (run still in flight / log truncated)
  kCompleted,
  kRejected,
  kCancelled,
  kRetriesExhausted,
};

const char* job_outcome_name(JobOutcome o);

/// One engine run of a job, in service time.
struct JobAttempt {
  int number = 0;                    ///< 1-based attempt index
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  bool failed = false;               ///< attempt failed (watchdog/hang)
  bool cancelled = false;            ///< deadline fired during the run
  std::uint64_t backoff_until_ns = 0;  ///< retry backoff end (0 = no retry)
  /// Steal spans of this attempt (Observer-provided), rebased so span times
  /// are service time. Zero-valued step times keep their absent meaning.
  std::vector<Span> steals;
};

/// The full lifecycle of one job.
struct JobTimeline {
  std::uint64_t id = 0;
  std::uint64_t arrival_ns = 0;
  std::uint64_t deadline_abs_ns = 0;  ///< arrival + deadline (0 = none)
  std::uint64_t terminal_ns = 0;
  JobOutcome outcome = JobOutcome::kNone;
  std::string reject;  ///< rejection reason name (empty unless kRejected)
  std::vector<JobAttempt> attempts;
};

/// Append-only log of job timelines, fed by svc::Service when
/// ServiceConfig::job_log is set. Single-threaded (the service dispatch
/// loop is), so no synchronization.
class JobLog {
 public:
  void reset();

  /// A job arrived (before the admission decision — rejected jobs get a
  /// timeline too, so shed load is visible in the stream).
  void admit(std::uint64_t id, std::uint64_t arrival_ns,
             std::uint64_t deadline_abs_ns);

  /// The job was load-shed / shutdown-rejected at `t_ns` with `reason`
  /// (svc::reject_name). Terminal.
  void rejected(std::uint64_t id, std::uint64_t t_ns,
                const std::string& reason);

  /// Attempt `number` (1-based) dispatched at `t_ns`.
  void attempt_begin(std::uint64_t id, int number, std::uint64_t t_ns);

  /// The in-flight attempt returned at `t_ns`.
  void attempt_end(std::uint64_t id, std::uint64_t t_ns, bool failed,
                   bool cancelled);

  /// Steal spans of the attempt that just ended, with `rebase_ns` added to
  /// every nonzero step time (run virtual time -> service time).
  void attempt_spans(std::uint64_t id, const std::vector<Span>& spans,
                     std::uint64_t rebase_ns);

  /// The failed attempt that just ended waits for retry until `until_ns`.
  void backoff(std::uint64_t id, std::uint64_t until_ns);

  /// The job reached terminal state `o` at `t_ns`.
  void terminal(std::uint64_t id, std::uint64_t t_ns, JobOutcome o);

  const std::vector<JobTimeline>& jobs() const { return jobs_; }
  const JobTimeline* find(std::uint64_t id) const;

  /// Perfetto Chrome-JSON export: one lane (tid = job id) per job carrying
  /// queued / attempt / backoff slices, the attempts' steal spans nested
  /// inside, and the steal flow arrows (ids shared with any engine-side
  /// export of the same runs). Open at https://ui.perfetto.dev.
  void write_chrome_json(std::ostream& os) const;

 private:
  JobTimeline* get(std::uint64_t id);

  std::vector<JobTimeline> jobs_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

}  // namespace upcws::obs
