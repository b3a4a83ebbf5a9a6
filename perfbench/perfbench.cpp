// Repository benchmark: host time per simulated node on four
// workloads, and (with --trace 1) a per-layer breakdown timed from outside
// the program. See README.md in this directory for the workloads, the
// metric definitions and the prediction table.
//
// Everything here goes through the libraries' public APIs only: the layer
// timings come from decorators (a timing ws::Problem with a forwarding
// ws::NodeSink, a timing pgas::Engine, a counting pgas::ObsSink) wrapped
// around the real objects, never from scopes inside the program.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits non-zero when any output check fails.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/job_oracle.hpp"
#include "obs/autopsy.hpp"
#include "obs/observer.hpp"
#include "pgas/engine.hpp"
#include "pgas/sim_engine.hpp"
#include "psim/engine.hpp"
#include "svc/service.hpp"
#include "trace/trace.hpp"
#include "uts/params.hpp"
#include "uts/sequential.hpp"
#include "ws/driver.hpp"
#include "ws/uts_problem.hpp"

using namespace upcws;

namespace {

// ---------------------------------------------------------------------------
// Clock and small statistics helpers.

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// "n=3: 1.2 3.4 5.6" — the samples behind a median, for the log.
std::string samples(const std::vector<double>& v) {
  std::string s = "n=" + std::to_string(v.size()) + ":";
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, " %.4g", x);
    s += buf;
  }
  return s;
}

/// Nearest-rank percentile of an unsorted sample (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(rank);
  if (static_cast<double>(idx) < rank) ++idx;
  idx = std::clamp<std::size_t>(idx, 1, v.size());
  return v[idx - 1];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Host-speed calibration.

/// The host shares its cores and caches with other tenants, and its speed
/// drifts by 20-30% over tens of seconds, which moves every host time with
/// it. This fixed kernel belongs to the benchmark, not to the program, so no
/// change to the program moves it. It runs right before and right after
/// every timed pass, and the pass's host time is scaled by kReferenceNs over
/// the kernel's mean time around it.
///
/// The kernel stresses what the simulator is sensitive to: unpredictable
/// indirect calls through 2048 distinct functions, as the engine's virtual
/// dispatch and fiber switches do, and a pointer chase through a ring that
/// fits in L2. Over 60 s of back-to-back sim-t3 passes, the medians of 10-s
/// windows moved by 29% raw and by 10% scaled. A plain hash loop or a chase
/// through the last-level cache tracked the drift less well.
///
/// psim's workers run on every core, so for psim the kernel runs on as many
/// threads at once and its time is their mean.
class Calibrator {
 public:
  /// The kernel's host time on the reference host (4-vCPU Xeon VM, gcc
  /// 12.2, Release). Scaled host times are in that host's ns.
  static constexpr double kReferenceNs = 50e6;

  explicit Calibrator(int threads)
      : threads_(threads), ring_(make_ring(1u << 16)) {
    last_ns_ = run();
  }

  /// Runs the kernel and returns the factor that scales a host time
  /// measured since the previous kernel run to the reference speed.
  double factor() {
    const double before = last_ns_;
    last_ns_ = run();
    kernel_ns.push_back(last_ns_);
    return kReferenceNs / (0.5 * (before + last_ns_));
  }

  std::vector<double> kernel_ns;  ///< every kernel run since construction

 private:
  using Fn = std::uint64_t (*)(std::uint64_t);

  template <int N>
  static std::uint64_t step(std::uint64_t h) {
    h ^= h >> (N % 29 + 3);
    h *= 0x9E3779B97F4A7C15ull + 2 * N;
    return h + N;
  }
  template <int... I>
  static std::array<Fn, sizeof...(I)> table(std::integer_sequence<int, I...>) {
    return {&step<I>...};
  }

  /// One random cycle through n slots (Sattolo's shuffle), fixed seed.
  static std::vector<std::uint32_t> make_ring(std::uint32_t n) {
    std::vector<std::uint32_t> p(n);
    for (std::uint32_t i = 0; i < n; ++i) p[i] = i;
    std::mt19937 g(1);
    for (std::uint32_t i = n - 1; i > 0; --i)
      std::swap(p[i], p[std::uniform_int_distribution<std::uint32_t>(
                          0, i - 1)(g)]);
    return p;
  }

  double run_one() {
    static const std::array<Fn, 2048> fns =
        table(std::make_integer_sequence<int, 2048>{});
    const std::uint64_t t0 = now_ns();
    std::uint64_t h = 1;
    for (int i = 0; i < 2'000'000; ++i) h = fns[h & 2047](h);
    std::uint32_t x = static_cast<std::uint32_t>(h) & (ring_.size() - 1);
    for (int i = 0; i < 2'000'000; ++i) x = ring_[x];
    sink_.store(x, std::memory_order_relaxed);
    return static_cast<double>(now_ns() - t0);
  }

  double run() {
    std::vector<double> ns(static_cast<std::size_t>(threads_));
    std::vector<std::thread> others;
    for (int i = 1; i < threads_; ++i)
      others.emplace_back([this, &ns, i] { ns[i] = run_one(); });
    ns[0] = run_one();
    for (std::thread& t : others) t.join();
    double sum = 0.0;
    for (double x : ns) sum += x;
    return sum / threads_;
  }

  const int threads_;
  const std::vector<std::uint32_t> ring_;
  double last_ns_ = 0.0;
  std::atomic<std::uint32_t> sink_{0};
};

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string spans_path;  ///< traced run: where to write the coarse spans
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "upcws_perfbench: %s\n"
               "usage: upcws_perfbench --workload "
               "{sim-t3|psim-fig5-r128|svc-mix|sim-r128-observed} --seed N "
               "--seconds S --trace {0|1} [--commit SHA] [--spans FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--commit") {
        a.commit = v;
      } else if (k == "--spans") {
        a.spans_path = v;
      } else {
        usage(("unknown flag " + k).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0)
    usage("--seconds must be in (0, 600]");
  return a;
}

// ---------------------------------------------------------------------------
// Inputs.

/// The T3 headline tree: scaled_bench(0), 1,893,387 nodes. It is the same
/// for every workload seed. Binomial trees are heavy-tailed: other root
/// seeds give 0.3M to 6.5M nodes, and even within a 1.2M-1.9M band the
/// virtual makespan moves by 25% and the 128-rank efficiency by 0.32-0.45
/// from tree to tree, more than any regression bound. The workload seed
/// instead drives the ranks' victim-selection RNG (RunConfig::seed).
uts::Params t3_tree() { return uts::scaled_bench(0); }

/// The same tree with the root's children removed: a one-node search,
/// which costs exactly the per-run fixed overhead.
uts::Params leaf_only(uts::Params p) {
  p.b0 = 0;
  return p;
}

/// Sequential references, memoized per tree (describe() is unique per
/// parameter set); the first call also gives the single-thread floor.
struct Reference {
  std::uint64_t nodes = 0;
  double seconds = 0.0;
};

const Reference& reference(const uts::Params& p) {
  static std::map<std::string, Reference> memo;
  const std::string key = p.describe();
  auto it = memo.find(key);
  if (it == memo.end()) {
    const auto r = uts::search_sequential(p);
    if (!r) throw std::runtime_error("sequential reference over budget");
    it = memo.emplace(key, Reference{r->nodes, r->seconds}).first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Per-layer instruments (traced run only).

/// Host time and call counts of the per-node calls, kept per OS thread:
/// Problem::expand never learns its rank, and under psim the ranks of one
/// shard all run on that shard's worker thread, so a thread slot is the
/// finest split that needs no synchronization on the hot path.
struct alignas(64) ThreadLayer {
  std::uint64_t expand_ns = 0;  ///< self time: excludes the child pushes
  std::uint64_t expand_calls = 0;
  std::uint64_t push_ns = 0;
  std::uint64_t push_calls = 0;
};

class LayerTally {
 public:
  ThreadLayer& local() {
    thread_local ThreadLayer* slot = nullptr;
    if (slot == nullptr) {
      std::lock_guard<std::mutex> g(mu_);
      slot = &slots_.emplace_back();
    }
    return *slot;
  }
  /// Sum over every thread that ever reported. Call only while no search
  /// is running (the worker threads have been joined).
  ThreadLayer total() {
    std::lock_guard<std::mutex> g(mu_);
    ThreadLayer t;
    for (const ThreadLayer& s : slots_) {
      t.expand_ns += s.expand_ns;
      t.expand_calls += s.expand_calls;
      t.push_ns += s.push_ns;
      t.push_calls += s.push_calls;
    }
    return t;
  }

 private:
  std::mutex mu_;
  std::deque<ThreadLayer> slots_;  ///< deque: slot addresses stay valid
};

LayerTally& tally() {
  static LayerTally t;
  return t;
}

/// Forwards children to the engine's sink, timing each call (the ws layer:
/// StealStack pushes and the protocol's release checks behind them).
class TimedSink final : public ws::NodeSink {
 public:
  TimedSink(ws::NodeSink& inner, ThreadLayer& t) : inner_(inner), t_(t) {}
  void push(const std::byte* node) override {
    const std::uint64_t t0 = now_ns();
    inner_.push(node);
    t_.push_ns += now_ns() - t0;
    ++t_.push_calls;
  }
  void push_n(const std::byte* nodes, std::size_t count,
              std::size_t node_bytes) override {
    const std::uint64_t t0 = now_ns();
    inner_.push_n(nodes, count, node_bytes);
    t_.push_ns += now_ns() - t0;
    ++t_.push_calls;
  }

 private:
  ws::NodeSink& inner_;
  ThreadLayer& t_;
};

/// Timing decorator around the UTS problem (the uts layer: SHA-1 child
/// generation). Self time excludes the pushes the TimedSink measures.
class TimedProblem final : public ws::Problem {
 public:
  explicit TimedProblem(const ws::Problem& inner) : inner_(inner) {}
  std::size_t node_bytes() const override { return inner_.node_bytes(); }
  void root(std::byte* out) const override { inner_.root(out); }
  int depth(const std::byte* node) const override {
    return inner_.depth(node);
  }
  int expand(const std::byte* node, ws::NodeSink& sink) const override {
    ThreadLayer& t = tally().local();
    const std::uint64_t push_before = t.push_ns;
    TimedSink timed(sink, t);
    const std::uint64_t t0 = now_ns();
    const int n = inner_.expand(node, timed);
    t.expand_ns += now_ns() - t0 - (t.push_ns - push_before);
    ++t.expand_calls;
    return n;
  }

 private:
  const ws::Problem& inner_;
};

/// The pgas layer's counts (ticks, mediated remote ops, lock waits) in
/// per-rank slots — psim calls the per-rank hooks from its worker threads —
/// plus host timestamps of every psim window the barrier closes.
class CountingSink final : public pgas::ObsSink {
 public:
  struct alignas(64) Rank {
    std::uint64_t ticks = 0;
    std::uint64_t ops[6] = {0, 0, 0, 0, 0, 0};
    std::uint64_t lock_waits = 0;
    std::uint64_t lock_wait_ns = 0;
  };

  /// Called before each engine run.
  void begin_run(int nranks) {
    if (ranks_.size() < static_cast<std::size_t>(nranks))
      ranks_.resize(static_cast<std::size_t>(nranks));
    last_window_host_ns_ = now_ns();
  }
  void on_tick(int rank, std::uint64_t) override { ++ranks_[rank].ticks; }
  void on_stall(int, std::uint64_t, std::uint64_t) override {}
  void on_lock_wait(int rank, std::uint64_t, std::uint64_t wait_ns) override {
    ++ranks_[rank].lock_waits;
    ranks_[rank].lock_wait_ns += wait_ns;
  }
  void on_remote_op(int rank, int, OpKind kind, std::uint64_t) override {
    ++ranks_[rank].ops[static_cast<int>(kind)];
  }
  void on_psim_window(const PsimWindow& w) override {
    const std::uint64_t t = now_ns();
    window_host_ns.push_back(static_cast<double>(t - last_window_host_ns_));
    if (record_windows) window_spans.push_back({last_window_host_ns_, t});
    last_window_host_ns_ = t;
    ++windows;
    events += w.events;
    imbalance_sum += static_cast<double>(w.max_shard_switches) /
                     static_cast<double>(std::max<std::uint64_t>(
                         w.min_shard_switches, 1));
  }

  Rank total() const {
    Rank t;
    for (const Rank& r : ranks_) {
      t.ticks += r.ticks;
      for (int k = 0; k < 6; ++k) t.ops[k] += r.ops[k];
      t.lock_waits += r.lock_waits;
      t.lock_wait_ns += r.lock_wait_ns;
    }
    return t;
  }

  std::vector<double> window_host_ns;  ///< host ns per window, all runs
  std::uint64_t windows = 0;
  std::uint64_t events = 0;
  double imbalance_sum = 0.0;
  bool record_windows = false;  ///< keep window spans for the span file
  std::vector<std::pair<std::uint64_t, std::uint64_t>> window_spans;

 private:
  std::vector<Rank> ranks_;
  std::uint64_t last_window_host_ns_ = 0;
};

/// Coarse host-time spans of the traced run, kept in memory and written
/// as Chrome trace-event JSON when the run ends.
struct Span {
  std::string name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  int lane;  ///< 0 = main thread, 1 = psim windows
};

class SpanLog {
 public:
  bool enabled = false;
  void add(std::string name, std::uint64_t b, std::uint64_t e, int lane = 0) {
    if (enabled) spans_.push_back({std::move(name), b, e, lane});
  }
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    const std::uint64_t base = spans_.empty() ? 0 : spans_.front().begin_ns;
    f << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << static_cast<double>(s.begin_ns - base) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.begin_ns) / 1e3
        << "}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::vector<Span> spans_;
};

/// Timing decorator around an engine: host time inside Engine::run (the
/// sim/psim layer plus everything it calls back into), the switch count,
/// the lane a psim run takes, and the sink attachment for runs whose
/// RunConfig::obs is still free.
class TimedEngine final : public pgas::Engine {
 public:
  TimedEngine(pgas::Engine& inner, CountingSink* sink)
      : inner_(inner), psim_(dynamic_cast<psim::PsimEngine*>(&inner)),
        sink_(sink) {}
  pgas::RunResult run(const pgas::RunConfig& cfg,
                      const std::function<void(pgas::Ctx&)>& body) override {
    pgas::RunConfig c = cfg;
    if (c.obs == nullptr && sink_ != nullptr) {
      sink_->begin_run(c.nranks);
      c.obs = sink_;
    }
    if (psim_ != nullptr)
      last_fallback = psim::PsimEngine::fallback_reason(c, psim_->workers());
    const std::uint64_t t0 = now_ns();
    const pgas::RunResult r = inner_.run(c, body);
    const std::uint64_t t1 = now_ns();
    if (spans != nullptr) spans->add("Engine::run", t0, t1);
    run_ns += t1 - t0;
    last_begin_ns = t0;
    last_end_ns = t1;
    switches += r.switches;
    return r;
  }
  const char* name() const override { return inner_.name(); }

  std::uint64_t run_ns = 0;
  std::uint64_t switches = 0;
  std::uint64_t last_begin_ns = 0;
  std::uint64_t last_end_ns = 0;
  /// psim only: why the last run took the serial lane, or nullptr.
  const char* last_fallback = nullptr;
  SpanLog* spans = nullptr;  ///< when set, one span per run

 private:
  pgas::Engine& inner_;
  psim::PsimEngine* psim_;
  CountingSink* sink_;
};

// ---------------------------------------------------------------------------
// Metrics and the report.

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

/// Every metric the benchmark can report, by mode, in BENCHMARK.json
/// order. A metric a workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"host_ns_per_node", "ns"},     {"virtual_efficiency", "frac"},
    {"jobs_per_host_s", "1/s"},     {"svc_latency_p50_ms", "ms"},
    {"svc_latency_p99_ms", "ms"},   {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"uts.expand_calls", "count"},
    {"uts.expand_ns_per_call", "ns"},
    {"uts.expand_frac", "frac"},
    {"uts.seq_ns_per_node", "ns"},
    {"ws.push_calls", "count"},
    {"ws.push_ns_per_call", "ns"},
    {"ws.push_frac", "frac"},
    {"ws.steals", "count"},
    {"ws.steal_attempts", "count"},
    {"ws.steal_success_ratio", "frac"},
    {"ws.probes", "count"},
    {"ws.probes_per_steal", "ratio"},
    {"ws.releases", "count"},
    {"ws.reacquires", "count"},
    {"ws.requests_denied", "count"},
    {"ws.state_frac.working", "frac"},
    {"ws.state_frac.searching", "frac"},
    {"ws.state_frac.stealing", "frac"},
    {"ws.state_frac.termination", "frac"},
    {"ws.nodes_cov", "ratio"},
    {"pgas.ticks", "count"},
    {"pgas.ticks_per_node", "ratio"},
    {"pgas.remote_ops.get", "count"},
    {"pgas.remote_ops.put", "count"},
    {"pgas.remote_ops.add", "count"},
    {"pgas.remote_ops.cas", "count"},
    {"pgas.remote_ops.bulk_get", "count"},
    {"pgas.remote_ops.bulk_put", "count"},
    {"pgas.remote_ops_per_node", "ratio"},
    {"pgas.lock_waits", "count"},
    {"pgas.lock_wait_virtual_frac", "frac"},
    {"sim.switches", "count"},
    {"sim.switches_per_node", "ratio"},
    {"sim.residual_ns_per_node", "ns"},
    {"psim.parallel_lane", "bool"},
    {"psim.windows", "count"},
    {"psim.events", "count"},
    {"psim.events_per_window", "ratio"},
    {"psim.window_host_us_p50", "us"},
    {"psim.window_host_us_p99", "us"},
    {"psim.shard_switch_imbalance", "ratio"},
    {"psim.speedup_vs_sim", "ratio"},
    {"svc.submit_host_s", "s"},
    {"svc.drain_host_s", "s"},
    {"svc.attempts", "count"},
    {"svc.host_ms_per_attempt", "ms"},
    {"svc.retry_attempts", "count"},
    {"svc.crashes_absorbed", "count"},
    {"svc.queue_depth_max", "count"},
    {"svc.pool_busy_frac", "frac"},
    {"svc.shed_frac", "frac"},
    {"obs.autopsy_s", "s"},
    {"trace.export_s", "s"},
    {"trace.events", "count"},
    {"trace.dropped_events", "count"},
    {"obs.overhead_ns_per_node", "ns"},
    {"trace.attributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

class Report {
 public:
  explicit Report(bool traced) {
    for (const auto& [name, unit] : traced ? kPerLayer : kEndToEnd)
      metrics_.emplace_back(name, Metric{0.0, unit});
  }
  /// Set a metric of this run's mode. Metrics of the other mode are
  /// ignored, so workload code can set both unconditionally; a name in
  /// neither list is a bug.
  void set(const char* name, double v) {
    for (auto& [n, m] : metrics_)
      if (std::strcmp(n, name) == 0) {
        m.value = v;
        return;
      }
    for (const auto* list : {&kEndToEnd, &kPerLayer})
      for (const auto& [n, unit] : *list)
        if (std::strcmp(n, name) == 0) return;
    throw std::logic_error(std::string("unknown metric ") + name);
  }
  void attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("FAIL: %s\n", what.c_str());
    }
  }
  std::uint64_t failed() const { return failed_; }

  void print_table() const {
    std::printf("\n%-30s %20s  %s\n", "metric", "value", "unit");
    for (const auto& [n, m] : metrics_)
      std::printf("%-30s %20.6g  %s\n", n, m.value, m.unit);
    std::printf("fail_frac %.6g (%llu failed of %llu attempted)\n",
                ratio(static_cast<double>(failed_),
                      static_cast<double>(attempted_)),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
  }

  void print_json() const {
    std::string s = "{\"correct\": ";
    s += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted_);
    s += ", \"failed\": " + std::to_string(failed_);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto& [n, m] : metrics_) {
      char buf[64];
      const auto r = std::to_chars(buf, buf + sizeof buf, m.value);
      s += first ? "\"" : ", \"";
      first = false;
      s.append(n).append("\": {\"value\": ").append(buf, r.ptr);
      s.append(", \"unit\": \"").append(m.unit).append("\"}");
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
  }

 private:
  std::vector<std::pair<const char*, Metric>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int psim_workers() {
  const unsigned hc = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hc, 1u, 4u));
}

// ---------------------------------------------------------------------------
// Search workloads: sim-t3, psim-fig5-r128, sim-r128-observed.

struct SearchWorkload {
  std::vector<ws::Algo> algos;
  int nranks = 16;
  bool psim = false;
  bool observed = false;
  std::uint64_t run_seed = 0;  ///< RunConfig::seed, from the workload seed
};

/// The virtual-time result of one search: a pure function of the inputs,
/// so it must repeat exactly across repetitions and with tracing on.
struct Invariants {
  std::uint64_t nodes = 0;
  std::uint64_t switches = 0;
  std::uint64_t steals = 0;
  double virtual_elapsed_s = 0.0;
  bool operator==(const Invariants&) const = default;
};

Invariants invariants_of(const ws::SearchResult& r) {
  return {r.agg.total_nodes, r.run.switches, r.agg.total_steals,
          r.run.elapsed_s};
}

/// Field-for-field equality of two searches' results (psim vs sim).
bool same_result(const ws::SearchResult& a, const ws::SearchResult& b) {
  if (!(invariants_of(a) == invariants_of(b))) return false;
  if (a.agg.total_probes != b.agg.total_probes ||
      a.agg.total_releases != b.agg.total_releases ||
      a.agg.total_failed_steals != b.agg.total_failed_steals ||
      a.agg.total_leaves != b.agg.total_leaves ||
      a.agg.max_depth != b.agg.max_depth ||
      a.per_thread.size() != b.per_thread.size())
    return false;
  for (std::size_t r = 0; r < a.per_thread.size(); ++r) {
    const stats::ThreadStats& x = a.per_thread[r];
    const stats::ThreadStats& y = b.per_thread[r];
    if (x.c.nodes != y.c.nodes || x.c.steals != y.c.steals ||
        x.c.probes != y.c.probes || x.c.releases != y.c.releases ||
        x.c.reacquires != y.c.reacquires ||
        x.c.steal_attempts != y.c.steal_attempts ||
        x.c.requests_denied != y.c.requests_denied ||
        x.c.max_stack != y.c.max_stack)
      return false;
    for (int s = 0; s < static_cast<int>(stats::State::kCount); ++s)
      if (x.timer.ns_in(static_cast<stats::State>(s)) !=
          y.timer.ns_in(static_cast<stats::State>(s)))
        return false;
  }
  return true;
}

pgas::RunConfig run_config(int nranks, std::uint64_t seed) {
  pgas::RunConfig rcfg;
  rcfg.nranks = nranks;
  rcfg.net = pgas::NetModel::distributed();
  rcfg.seed = seed;
  // Hundreds of fibers per process: a slim stack per simulated rank. The
  // searches keep explicit steal stacks, so 96 KiB is ample.
  rcfg.fiber_stack_bytes = 96 * 1024;
  return rcfg;
}

constexpr int kChunk = 10;
/// Per-rank trace ring bound for the observed workload: keeps the in-memory
/// Chrome export to tens of MB at 128 ranks.
constexpr std::size_t kTraceCap = 4096;

/// Median of repeated set-ups, scaled to the reference speed: batches of
/// set-ups filling 100 ms each, with the calibration kernel between
/// batches, for at least a second and at least 15 set-ups (one set-up takes
/// 50 us to 70 ms).
double median_setup(Calibrator& cal,
                    const std::function<double()>& setup_once) {
  std::vector<double> raw, scaled;
  cal.factor();
  const std::uint64_t end = now_ns() + 1'000'000'000;
  while (raw.size() < 15 || now_ns() < end) {
    const std::size_t first = raw.size();
    const std::uint64_t batch_end = now_ns() + 100'000'000;
    do raw.push_back(setup_once());
    while (now_ns() < batch_end);
    const double f = cal.factor();
    for (std::size_t i = first; i < raw.size(); ++i)
      scaled.push_back(raw[i] * f);
  }
  std::printf("set-up s, n=%zu, median %.4g raw, %.4g scaled\n", raw.size(),
              median(raw), median(scaled));
  return median(scaled);
}

/// Host timings of one repetition (one pass over the workload's searches).
struct RepTiming {
  double wall_ns = 0.0;
  double run_search_ns = 0.0;  ///< inside ws::run_search
  double autopsy_ns = 0.0;
  double export_ns = 0.0;
  std::uint64_t nodes = 0;
  int searches = 0;
};

/// Traced-run accumulators for the search workloads.
struct SearchTrace {
  double engine_wall_ns = 0.0;  ///< Engine::run wall, in wall units
  double expand_wall_ns = 0.0;  ///< expand self time / lanes
  double push_wall_ns = 0.0;    ///< push time / lanes
  std::uint64_t trace_events = 0;
  std::uint64_t dropped_events = 0;
};

class SearchRunner {
 public:
  SearchRunner(const SearchWorkload& w, const uts::Params& tree, Report& rep)
      : w_(w), tree_(tree), prob_(tree), rep_(rep) {
    if (w_.psim) psim_.emplace(psim_workers());
  }

  pgas::Engine& engine() {
    if (psim_) return *psim_;
    return sim_;
  }
  int lanes_of_last_run() const {
    if (!psim_ || psim_->last_stats().windows == 0) return 1;
    return std::min(psim_->workers(), w_.nranks);
  }

  /// One pass over the workload's searches. Checks every result against
  /// the sequential reference and against the first pass's invariants.
  RepTiming rep_once(bool traced, SearchTrace* st, SpanLog* spans) {
    RepTiming t;
    const std::uint64_t rep0 = now_ns();
    TimedEngine eng(engine(), traced ? &counting_ : nullptr);
    eng.spans = spans;
    TimedProblem timed(prob_);
    const ws::Problem& prob = traced ? static_cast<const ws::Problem&>(timed)
                                     : static_cast<const ws::Problem&>(prob_);
    for (std::size_t i = 0; i < w_.algos.size(); ++i) {
      const ws::Algo algo = w_.algos[i];
      ws::WsConfig cfg = ws::WsConfig::for_algo(algo, kChunk);
      std::optional<obs::Observer> observer;
      std::optional<trace::Trace> tr;
      if (w_.observed) {
        observer.emplace();
        tr.emplace(w_.nranks);
        cfg.obs = &*observer;
        cfg.trace = &*tr;
        cfg.trace_cap = kTraceCap;
      }
      const ThreadLayer before = traced ? tally().total() : ThreadLayer{};
      const std::uint64_t s0 = now_ns();
      ws::SearchResult r =
          ws::run_search(eng, run_config(w_.nranks, w_.run_seed), prob, cfg);
      const std::uint64_t s1 = now_ns();
      t.run_search_ns += static_cast<double>(s1 - s0);
      const int lanes = lanes_of_last_run();
      const std::string label = std::string(ws::algo_label(algo));
      if (st != nullptr) {
        // The split itself is checked, not only its total: each layer's
        // self time fits inside Engine::run, the residual is not negative,
        // and Engine::run fits inside run_search.
        const ThreadLayer after = tally().total();
        const double engine_ns =
            static_cast<double>(eng.last_end_ns - eng.last_begin_ns);
        const double expand_ns =
            static_cast<double>(after.expand_ns - before.expand_ns) / lanes;
        const double push_ns =
            static_cast<double>(after.push_ns - before.push_ns) / lanes;
        rep_.attempt(expand_ns <= engine_ns && push_ns <= engine_ns &&
                         engine_ns - expand_ns - push_ns >= 0.0 &&
                         engine_ns <= static_cast<double>(s1 - s0),
                     label + ": layer split outside Engine::run wall (expand " +
                         std::to_string(expand_ns) + " ns, push " +
                         std::to_string(push_ns) + " ns, engine " +
                         std::to_string(engine_ns) + " ns)");
        st->engine_wall_ns += engine_ns;
        st->expand_wall_ns += expand_ns;
        st->push_wall_ns += push_ns;
      }
      if (spans != nullptr) spans->add("run_search " + label, s0, s1);
      if (w_.observed) {
        const std::uint64_t a0 = now_ns();
        const obs::RunReport arep = obs::autopsy(*observer, &*tr);
        const std::uint64_t a1 = now_ns();
        std::ostringstream os;
        tr->write_chrome_json(os, observer->spans().flow_events());
        const std::uint64_t a2 = now_ns();
        t.autopsy_ns += static_cast<double>(a1 - a0);
        t.export_ns += static_cast<double>(a2 - a1);
        if (spans != nullptr) {
          spans->add("obs::autopsy", a0, a1);
          spans->add("Trace::write_chrome_json", a1, a2);
        }
        if (st != nullptr) {
          st->trace_events += tr->total_events();
          st->dropped_events += tr->dropped_events();
        }
        rep_.attempt(arep.attributed_frac >= 0.99 && os.tellp() > 0,
                     "autopsy/export of " + label);
      }
      check(i, r, traced);
      if (w_.psim) {
        // A serial-lane run leaves last_stats() zeroed, so a run that
        // claims no fallback but closed no window is caught too.
        const bool parallel =
            eng.last_fallback == nullptr && psim_->last_stats().windows > 0;
        all_parallel_ = all_parallel_ && parallel;
        rep_.attempt(parallel,
                     label + " took the psim serial lane (" +
                         (eng.last_fallback ? eng.last_fallback : "no windows") +
                         ")");
      }
      t.nodes += r.agg.total_nodes;
      ++t.searches;
    }
    t.wall_ns = static_cast<double>(now_ns() - rep0);
    return t;
  }

  /// Per-run fixed cost: engine construction plus a one-node search with
  /// the workload's ranks, engine, algorithms and observers.
  double setup_once() {
    const uts::Params leaf = leaf_only(tree_);
    const ws::UtsProblem prob(leaf);
    const std::uint64_t t0 = now_ns();
    std::optional<pgas::SimEngine> sim;
    std::optional<psim::PsimEngine> ps;
    pgas::Engine* eng = nullptr;
    if (w_.psim)
      eng = &ps.emplace(psim_workers());
    else
      eng = &sim.emplace();
    std::uint64_t nodes = 0;
    for (const ws::Algo algo : w_.algos) {
      ws::WsConfig cfg = ws::WsConfig::for_algo(algo, kChunk);
      std::optional<obs::Observer> observer;
      std::optional<trace::Trace> tr;
      if (w_.observed) {
        cfg.obs = &observer.emplace();
        cfg.trace = &tr.emplace(w_.nranks);
        cfg.trace_cap = kTraceCap;
      }
      nodes +=
          ws::run_search(*eng, run_config(w_.nranks, w_.run_seed), prob, cfg)
              .agg.total_nodes;
    }
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    rep_.attempt(nodes == w_.algos.size(), "leaf-only set-up search");
    return s;
  }

  /// Agg metrics summed over the first pass's searches (they repeat).
  void ws_metrics(const std::vector<ws::SearchResult>& rs) {
    double steals = 0, attempts = 0, probes = 0, releases = 0, reacq = 0,
           denied = 0, cov = 0;
    double state_ns[4] = {0, 0, 0, 0};
    for (const ws::SearchResult& r : rs) {
      steals += static_cast<double>(r.agg.total_steals);
      probes += static_cast<double>(r.agg.total_probes);
      releases += static_cast<double>(r.agg.total_releases);
      cov += r.agg.nodes_cov / static_cast<double>(rs.size());
      for (const stats::ThreadStats& t : r.per_thread) {
        attempts += static_cast<double>(t.c.steal_attempts);
        reacq += static_cast<double>(t.c.reacquires);
        denied += static_cast<double>(t.c.requests_denied);
        for (int s = 0; s < 4; ++s)
          state_ns[s] +=
              static_cast<double>(t.timer.ns_in(static_cast<stats::State>(s)));
      }
    }
    const double all_ns = state_ns[0] + state_ns[1] + state_ns[2] + state_ns[3];
    rep_.set("ws.steals", steals);
    rep_.set("ws.steal_attempts", attempts);
    rep_.set("ws.steal_success_ratio", ratio(steals, attempts));
    rep_.set("ws.probes", probes);
    rep_.set("ws.probes_per_steal", ratio(probes, steals));
    rep_.set("ws.releases", releases);
    rep_.set("ws.reacquires", reacq);
    rep_.set("ws.requests_denied", denied);
    rep_.set("ws.state_frac.working", ratio(state_ns[0], all_ns));
    rep_.set("ws.state_frac.searching", ratio(state_ns[1], all_ns));
    rep_.set("ws.state_frac.stealing", ratio(state_ns[2], all_ns));
    rep_.set("ws.state_frac.termination", ratio(state_ns[3], all_ns));
    rep_.set("ws.nodes_cov", cov);
  }

  CountingSink& counting() { return counting_; }
  bool all_parallel() const { return all_parallel_; }
  /// The first pass's results; every later pass must repeat them.
  const std::vector<ws::SearchResult>& first() const { return first_; }

 private:
  void check(std::size_t i, const ws::SearchResult& r, bool traced) {
    const std::string label = ws::algo_label(w_.algos[i]);
    const std::uint64_t want = reference(tree_).nodes;
    rep_.attempt(r.agg.total_nodes == want,
                 label + ": " + std::to_string(r.agg.total_nodes) +
                     " nodes, sequential reference " + std::to_string(want));
    if (first_.size() <= i) {
      first_.push_back(r);
      return;
    }
    if (!(invariants_of(r) == invariants_of(first_[i])))
      rep_.attempt(false, label + (traced ? " traced" : "") +
                              ": virtual invariants differ from the first "
                              "repetition");
  }

  const SearchWorkload& w_;
  const uts::Params tree_;
  const ws::UtsProblem prob_;
  Report& rep_;
  pgas::SimEngine sim_;
  std::optional<psim::PsimEngine> psim_;
  CountingSink counting_;
  std::vector<ws::SearchResult> first_;
  bool all_parallel_ = true;
};

/// The pgas layer's counts over `passes` traced passes of `nodes` nodes in
/// total, reported per pass.
void set_pgas_metrics(Report& rep, const CountingSink::Rank& pg, double passes,
                      double nodes) {
  static const char* const kOpNames[] = {
      "pgas.remote_ops.get",      "pgas.remote_ops.put",
      "pgas.remote_ops.add",      "pgas.remote_ops.cas",
      "pgas.remote_ops.bulk_get", "pgas.remote_ops.bulk_put"};
  double ops = 0;
  for (int k = 0; k < 6; ++k) {
    ops += static_cast<double>(pg.ops[k]);
    rep.set(kOpNames[k], static_cast<double>(pg.ops[k]) / passes);
  }
  rep.set("pgas.ticks", static_cast<double>(pg.ticks) / passes);
  rep.set("pgas.ticks_per_node", ratio(static_cast<double>(pg.ticks), nodes));
  rep.set("pgas.remote_ops_per_node", ratio(ops, nodes));
  rep.set("pgas.lock_waits", static_cast<double>(pg.lock_waits) / passes);
}

void run_search_workload(const SearchWorkload& w, const Args& args,
                         Report& rep) {
  const uts::Params tree = t3_tree();
  std::printf("tree: %s\n", tree.describe().c_str());
  const Reference& ref = reference(tree);
  std::printf("sequential reference: %llu nodes in %.3f s\n",
              static_cast<unsigned long long>(ref.nodes), ref.seconds);

  SearchRunner runner(w, tree, rep);
  Calibrator cal(w.psim ? psim_workers() : 1);
  rep.set("setup_s", median_setup(cal, [&] { return runner.setup_once(); }));

  // The traced run pairs every repetition with a companion pass made beside
  // it, so that the host's drift cancels from the comparison: the same
  // search without observers for the observed workload, the same pair on
  // SimEngine for psim.
  SearchWorkload bare = w;
  bare.observed = false;
  bare.psim = false;
  std::optional<SearchRunner> companion;
  if (args.trace && (w.observed || w.psim)) companion.emplace(bare, tree, rep);
  std::vector<double> ns_per_node, raw_ns_per_node, jobs_per_s, paired;
  SearchTrace st;
  SpanLog spans;
  std::vector<double> traced_ns_per_node;
  double traced_wall = 0, traced_run_search = 0, traced_autopsy = 0,
         traced_export = 0;
  std::uint64_t traced_nodes = 0;
  int reps = 0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  const int min_reps = args.trace ? 2 : 3;
  while (reps < min_reps || now_ns() < deadline) {
    // The traced run alternates untraced and traced passes (order flipped
    // each repetition) so the tracing overhead is measured in one process.
    double untraced = 0;
    for (int k = 0; k < (args.trace ? 2 : 1); ++k) {
      const bool traced = args.trace && ((k + reps) % 2 == 1);
      spans.enabled = traced && traced_nodes == 0 && !args.spans_path.empty();
      runner.counting().record_windows = spans.enabled;
      const RepTiming t =
          runner.rep_once(traced, traced ? &st : nullptr, &spans);
      const double per_node = t.wall_ns / static_cast<double>(t.nodes);
      const double f = cal.factor();
      if (traced) {
        traced_ns_per_node.push_back(per_node);
        traced_wall += t.wall_ns;
        traced_run_search += t.run_search_ns;
        traced_autopsy += t.autopsy_ns;
        traced_export += t.export_ns;
        traced_nodes += t.nodes;
      } else {
        untraced = per_node;
        raw_ns_per_node.push_back(per_node);
        ns_per_node.push_back(per_node * f);
        jobs_per_s.push_back(t.searches / (t.wall_ns * 1e-9) / f);
      }
    }
    if (companion) {
      const RepTiming c = companion->rep_once(false, nullptr, nullptr);
      const double per_node = c.wall_ns / static_cast<double>(c.nodes);
      cal.factor();  // so that the next pass starts right after a kernel run
      paired.push_back(w.observed ? untraced - per_node : per_node / untraced);
    }
    ++reps;
  }
  std::printf("repetitions: %d (closed loop, %zu search%s each)\n", reps,
              w.algos.size(), w.algos.size() == 1 ? "" : "es");
  std::printf("host ns/node per pass, raw, %s\n",
              samples(raw_ns_per_node).c_str());
  std::printf("host ns/node per pass, scaled to the reference speed, %s\n",
              samples(ns_per_node).c_str());
  std::printf("calibration kernel: median %.2f ms over %zu runs (reference "
              "%.2f ms)\n",
              median(cal.kernel_ns) * 1e-6, cal.kernel_ns.size(),
              Calibrator::kReferenceNs * 1e-6);

  // End-to-end metrics (virtual ones repeat exactly; see Invariants).
  const std::vector<ws::SearchResult>& first = runner.first();
  double eff = 0;
  std::vector<double> lat_ms;
  for (const ws::SearchResult& r : first) {
    eff += r.agg.efficiency / static_cast<double>(first.size());
    lat_ms.push_back(r.run.elapsed_s * 1e3);
  }
  rep.set("host_ns_per_node", median(ns_per_node));
  rep.set("virtual_efficiency", eff);
  rep.set("jobs_per_host_s", median(jobs_per_s));
  rep.set("svc_latency_p50_ms", percentile(lat_ms, 50));
  rep.set("svc_latency_p99_ms", percentile(lat_ms, 99));

  if (!args.trace) return;

  // ---- per-layer metrics from the traced passes ---------------------------
  // Counts are per pass (each traced pass repeats the first one exactly).
  const double passes = static_cast<double>(traced_ns_per_node.size());
  const double nodes = static_cast<double>(traced_nodes);
  const ThreadLayer lt = tally().total();
  rep.set("uts.expand_calls", static_cast<double>(lt.expand_calls) / passes);
  rep.set("uts.expand_ns_per_call",
          ratio(static_cast<double>(lt.expand_ns),
                static_cast<double>(lt.expand_calls)));
  rep.set("uts.expand_frac", ratio(st.expand_wall_ns, traced_wall));
  rep.set("uts.seq_ns_per_node",
          ref.seconds * 1e9 / static_cast<double>(ref.nodes));
  rep.set("ws.push_calls", static_cast<double>(lt.push_calls) / passes);
  rep.set("ws.push_ns_per_call", ratio(static_cast<double>(lt.push_ns),
                                       static_cast<double>(lt.push_calls)));
  rep.set("ws.push_frac", ratio(st.push_wall_ns, traced_wall));
  runner.ws_metrics(first);

  const CountingSink::Rank pg = runner.counting().total();
  set_pgas_metrics(rep, pg, passes, nodes);
  double rank_virtual_ns = 0;
  for (const ws::SearchResult& r : first)
    rank_virtual_ns += r.run.elapsed_s * 1e9 * w.nranks;
  rep.set("pgas.lock_wait_virtual_frac",
          ratio(static_cast<double>(pg.lock_wait_ns),
                rank_virtual_ns * passes));

  double switches = 0;
  for (const ws::SearchResult& r : first)
    switches += static_cast<double>(r.run.switches);
  rep.set("sim.switches", switches);
  rep.set("sim.switches_per_node",
          ratio(switches, static_cast<double>(reference(tree).nodes) *
                              static_cast<double>(first.size())));
  const double residual =
      st.engine_wall_ns - st.expand_wall_ns - st.push_wall_ns;
  rep.set("sim.residual_ns_per_node", ratio(residual, nodes));

  if (w.psim) {
    CountingSink& cs = runner.counting();
    rep.set("psim.parallel_lane", runner.all_parallel() ? 1.0 : 0.0);
    rep.set("psim.windows", static_cast<double>(cs.windows) / passes);
    rep.set("psim.events", static_cast<double>(cs.events) / passes);
    rep.set("psim.events_per_window",
            ratio(static_cast<double>(cs.events),
                  static_cast<double>(cs.windows)));
    rep.set("psim.window_host_us_p50",
            percentile(cs.window_host_ns, 50) * 1e-3);
    rep.set("psim.window_host_us_p99",
            percentile(cs.window_host_ns, 99) * 1e-3);
    rep.set("psim.shard_switch_imbalance",
            ratio(cs.imbalance_sum, static_cast<double>(cs.windows)));
  }

  if (w.observed) {
    rep.set("obs.autopsy_s", traced_autopsy * 1e-9 / passes);
    rep.set("trace.export_s", traced_export * 1e-9 / passes);
    rep.set("trace.events", static_cast<double>(st.trace_events) / passes);
    rep.set("trace.dropped_events",
            static_cast<double>(st.dropped_events) / passes);
  }

  // Attribution: every traced nanosecond lands in exactly one layer's self
  // time or in the engine residual; the rest is this program's own loop.
  const double attributed = st.expand_wall_ns + st.push_wall_ns + residual +
                            (traced_run_search - st.engine_wall_ns) +
                            traced_autopsy + traced_export;
  const double attributed_frac = ratio(attributed, traced_wall);
  rep.set("trace.attributed_frac", attributed_frac);
  rep.set("trace.overhead_frac",
          median(traced_ns_per_node) / median(ns_per_node) - 1.0);
  std::printf("attribution: %.2f%% of %.3f s traced wall (expand %.1f%%, "
              "push %.1f%%, engine residual %.1f%%, run_search set-up %.1f%%, "
              "autopsy+export %.1f%%)\n",
              100 * attributed_frac, traced_wall * 1e-9,
              100 * ratio(st.expand_wall_ns, traced_wall),
              100 * ratio(st.push_wall_ns, traced_wall),
              100 * ratio(residual, traced_wall),
              100 * ratio(traced_run_search - st.engine_wall_ns, traced_wall),
              100 * ratio(traced_autopsy + traced_export, traced_wall));
  rep.attempt(attributed_frac > 0.99 && attributed_frac < 1.01,
              "layer self times + residual within 1% of traced wall");

  // Observation purity: the observed search's virtual result is the
  // unobserved one's, field for field. Its host cost is the paired
  // difference, observed minus unobserved, per repetition.
  if (w.observed) {
    for (std::size_t i = 0; i < first.size(); ++i)
      rep.attempt(same_result(first[i], companion->first()[i]),
                  "observed search differs from the unobserved one");
    rep.set("obs.overhead_ns_per_node", median(paired));
  }

  // psim's answer must be the sequential engine's, and its speed is quoted
  // against it: sim over psim ns/node, paired per repetition.
  if (w.psim) {
    for (std::size_t i = 0; i < first.size(); ++i)
      rep.attempt(same_result(first[i], companion->first()[i]),
                  std::string("psim ") + ws::algo_label(w.algos[i]) +
                      " differs from SimEngine");
    rep.set("psim.speedup_vs_sim", median(paired));
  }

  if (!args.spans_path.empty()) {
    spans.enabled = true;
    for (const auto& [b, e] : runner.counting().window_spans)
      spans.add("psim window", b, e, 1);
    if (!spans.write(args.spans_path))
      rep.attempt(false, "write spans to " + args.spans_path);
    else
      std::printf("spans: %s\n", args.spans_path.c_str());
  }
}

// ---------------------------------------------------------------------------
// svc-mix: an open loop of small jobs into one resident service.

constexpr int kSvcJobs = 3000;
constexpr int kSvcPool = 8;
/// Mean virtual pool time per job of this mix, crashed ranks' repairs
/// included: at every offered load from 0.3 to 0.9 the measured
/// svc.pool_busy_frac came within 0.04 of the load. Arrivals are offered at
/// 70% of the capacity this implies, below the p99 knee (README.md gives
/// the load sweep).
constexpr double kSvcMeanServiceNs = 200'000;
constexpr double kSvcLoad = 0.7;

/// Jobs with their virtual arrival instants (nondecreasing).
using JobStream = std::vector<std::pair<svc::JobSpec, std::uint64_t>>;

/// The job stream of one seed. Which kind, size, algorithm and chunk a job
/// gets is a fixed function of its index, so every seed offers the same mix;
/// the seed draws the arrival gaps, instance seeds, run seeds and crash
/// points. A seed-drawn mix would move the latency percentiles by more than
/// the regression bounds from seed to seed.
JobStream job_stream(std::uint64_t seed) {
  std::mt19937_64 g(seed * 0x9E3779B97F4A7C15ull + 17);
  std::uniform_real_distribution<double> uni(1e-12, 1.0);
  const double mean_gap = kSvcMeanServiceNs / kSvcLoad;
  JobStream jobs;
  std::uint64_t t = 0;
  int stealing = 0;
  for (int i = 0; i < kSvcJobs; ++i) {
    svc::JobSpec s;
    const int kind = i % 20;  // 14 UTS : 3 knapsack : 3 max-clique
    if (kind < 14) {
      s.workload = svc::Workload::kUts;
      s.tree = uts::test_small(static_cast<std::uint32_t>((i / 8) % 8));
    } else if (kind < 17) {
      s.workload = svc::Workload::kKnapsack;
      s.bnb_size = 12 + i % 7;
      s.bnb_seed = g() % 1000 + 1;
    } else {
      s.workload = svc::Workload::kMaxClique;
      s.bnb_size = 9 + i % 5;
      s.bnb_seed = g() % 1000 + 1;
    }
    s.algo = ws::kAllAlgosExtended[static_cast<std::size_t>(i) %
                                   std::size(ws::kAllAlgosExtended)];
    s.chunk = 2 + (i / 64) % 4;
    s.run_seed = g() % 100'000 + 1;
    s.max_retries = 2;
    s.watchdog_ns = 200'000'000;
    // Every fourth stealing-variant job loses a rank mid-run (work-push has
    // no steal protocol to reroute around a dead rank).
    if (s.algo != ws::Algo::kWorkPush && stealing++ % 4 == 1) {
      s.steal_timeout_ns = 30'000;
      pgas::CrashSpec c;
      c.rank = 1 + static_cast<int>(g() % 5);
      c.at_ns = 20'000 + g() % 80'000;
      s.faults.crashes.push_back(c);
    }
    t += static_cast<std::uint64_t>(-mean_gap * std::log(uni(g)));
    jobs.emplace_back(s, t);
  }
  return jobs;
}

svc::ServiceConfig service_config() {
  svc::ServiceConfig cfg;
  cfg.pool_ranks = kSvcPool;
  // Large enough that the open loop never sheds at this offered load: a
  // shed job would count as failed.
  cfg.queue_cap = kSvcJobs;
  cfg.repair_ns = 2'000'000;
  cfg.verify_completed = true;
  return cfg;
}

/// What must repeat exactly for a job from one pass to the next.
struct JobOutcome {
  svc::JobState state;
  std::uint64_t nodes;
  std::uint64_t finish_ns;
  int attempts;
  bool operator==(const JobOutcome&) const = default;
};

struct SvcPass {
  double wall_ns = 0, submit_ns = 0, drain_ns = 0;
  std::uint64_t nodes = 0, completed = 0, attempts = 0;
  svc::Summary summary;
  std::vector<JobOutcome> outcomes;
};

SvcPass svc_pass(const JobStream& jobs, pgas::Engine& engine, Report& rep,
                 SpanLog* spans) {
  SvcPass p;
  const std::uint64_t t0 = now_ns();
  svc::Service s(engine, service_config());
  for (const auto& [spec, at] : jobs) {
    const std::uint64_t a = now_ns();
    s.submit(spec, at);
    const std::uint64_t b = now_ns();
    p.submit_ns += static_cast<double>(b - a);
    if (spans != nullptr) spans->add("Service::submit", a, b);
  }
  const std::uint64_t d0 = now_ns();
  s.drain();
  const std::uint64_t d1 = now_ns();
  p.drain_ns = static_cast<double>(d1 - d0);
  if (spans != nullptr) spans->add("Service::drain", d0, d1);
  p.wall_ns = static_cast<double>(d1 - t0);

  p.summary = s.summary();
  for (const svc::JobRecord& j : s.jobs()) {
    const bool ok = j.state == svc::JobState::kCompleted && j.error.empty();
    rep.attempt(ok, "job " + std::to_string(j.id) + " ended " +
                        svc::state_name(j.state) +
                        (j.error.empty() ? "" : ": " + j.error));
    p.completed += ok ? 1 : 0;
    p.nodes += j.nodes;
    p.attempts += static_cast<std::uint64_t>(j.attempts);
    p.outcomes.push_back({j.state, j.nodes, j.finish_ns, j.attempts});
  }
  const check::JobOracleReport oracle =
      check::check_jobs(s.views(), s.pool_ranks());
  rep.attempt(oracle.ok(), "job oracle: " + oracle.summary());
  return p;
}

double svc_setup_once(Report& rep) {
  svc::JobSpec leaf;
  leaf.workload = svc::Workload::kUts;
  leaf.tree = leaf_only(uts::test_small(0));
  const std::uint64_t t0 = now_ns();
  pgas::SimEngine eng;
  svc::Service s(eng, service_config());
  const svc::JobId id = s.submit(leaf, 0);
  s.drain();
  const double sec = static_cast<double>(now_ns() - t0) * 1e-9;
  rep.attempt(s.job(id).state == svc::JobState::kCompleted,
              "leaf-only set-up job");
  return sec;
}

void run_svc_workload(const Args& args, Report& rep) {
  const auto jobs = job_stream(args.seed);
  std::printf("job stream: %d jobs, Poisson arrivals in virtual time at %.0f%% "
              "of the %d-rank pool's capacity (mean gap %.0f ns). Arrivals are "
              "virtual, so the generator is never late.\n",
              kSvcJobs, kSvcLoad * 100, kSvcPool,
              kSvcMeanServiceNs / kSvcLoad);

  Calibrator cal(1);
  rep.set("setup_s", median_setup(cal, [&] { return svc_setup_once(rep); }));

  pgas::SimEngine sim;
  CountingSink counting;
  TimedEngine timed(sim, &counting);
  SpanLog spans;
  timed.spans = &spans;
  std::vector<double> ns_per_node, raw_ns_per_node, jobs_per_s,
      traced_ns_per_node;
  std::optional<SvcPass> first;
  double traced_wall = 0, traced_submit = 0, traced_drain = 0;
  std::uint64_t traced_attempts = 0;
  int reps = 0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  const int min_reps = args.trace ? 2 : 3;
  while (reps < min_reps || now_ns() < deadline) {
    for (int k = 0; k < (args.trace ? 2 : 1); ++k) {
      const bool traced = args.trace && ((k + reps) % 2 == 1);
      spans.enabled = traced && traced_wall == 0 && !args.spans_path.empty();
      const std::uint64_t engine_before = timed.run_ns;
      SvcPass p = svc_pass(jobs, traced ? static_cast<pgas::Engine&>(timed)
                                        : static_cast<pgas::Engine&>(sim),
                           rep, &spans);
      const double per_node = p.wall_ns / static_cast<double>(p.nodes);
      const double f = cal.factor();
      if (traced) {
        // The engine runs happen inside submit/drain: the service's self
        // time must not come out negative.
        const double engine = static_cast<double>(timed.run_ns - engine_before);
        rep.attempt(engine <= p.submit_ns + p.drain_ns,
                    "engine runs outside Service::submit/drain wall");
        traced_ns_per_node.push_back(per_node);
        traced_wall += p.wall_ns;
        traced_submit += p.submit_ns;
        traced_drain += p.drain_ns;
        traced_attempts += p.attempts;
      } else {
        raw_ns_per_node.push_back(per_node);
        ns_per_node.push_back(per_node * f);
        jobs_per_s.push_back(static_cast<double>(p.completed) /
                             (p.wall_ns * 1e-9) / f);
      }
      if (!first) {
        first = std::move(p);
      } else {
        rep.attempt(p.outcomes == first->outcomes,
                    std::string("job outcomes differ from the first pass") +
                        (traced ? " (traced)" : ""));
      }
    }
    ++reps;
  }
  std::printf("repetitions: %d (each one full pass over the job stream)\n",
              reps);
  std::printf("host ns/node per pass, raw, %s\n",
              samples(raw_ns_per_node).c_str());
  std::printf("host ns/node per pass, scaled to the reference speed, %s\n",
              samples(ns_per_node).c_str());
  std::printf("calibration kernel: median %.2f ms over %zu runs (reference "
              "%.2f ms)\n",
              median(cal.kernel_ns) * 1e-6, cal.kernel_ns.size(),
              Calibrator::kReferenceNs * 1e-6);

  const svc::Summary& sum = first->summary;
  std::vector<double> lat_ms;
  for (std::uint64_t ns : sum.completed_latency_ns)
    lat_ms.push_back(static_cast<double>(ns) * 1e-6);
  const pgas::NetModel net = service_config().net;
  rep.set("host_ns_per_node", median(ns_per_node));
  // The paper's efficiency over the pool's busy time: useful node work
  // against the rank-time the pool was occupied.
  rep.set("virtual_efficiency",
          ratio(static_cast<double>(sum.nodes_visited) *
                    static_cast<double>(net.work_ns_per_node),
                static_cast<double>(kSvcPool) *
                    static_cast<double>(sum.busy_ns)));
  rep.set("jobs_per_host_s", median(jobs_per_s));
  rep.set("svc_latency_p50_ms", percentile(lat_ms, 50));
  rep.set("svc_latency_p99_ms", percentile(lat_ms, 99));
  std::printf("completed jobs: %llu of %llu; %zu latency samples beyond p99\n",
              static_cast<unsigned long long>(sum.completed),
              static_cast<unsigned long long>(sum.submitted),
              lat_ms.size() - static_cast<std::size_t>(
                                  0.99 * static_cast<double>(lat_ms.size())));

  if (!args.trace) return;

  const double traced_reps = static_cast<double>(traced_ns_per_node.size());
  const double nodes = static_cast<double>(first->nodes) * traced_reps;
  rep.set("svc.submit_host_s", traced_submit * 1e-9 / traced_reps);
  rep.set("svc.drain_host_s", traced_drain * 1e-9 / traced_reps);
  rep.set("svc.attempts", static_cast<double>(first->attempts));
  rep.set("svc.host_ms_per_attempt",
          ratio((traced_submit + traced_drain) * 1e-6,
                static_cast<double>(traced_attempts)));
  rep.set("svc.retry_attempts", static_cast<double>(sum.retry_attempts));
  rep.set("svc.crashes_absorbed", static_cast<double>(sum.crashes));
  rep.set("svc.queue_depth_max", static_cast<double>(sum.queue_depth_max));
  rep.set("svc.pool_busy_frac", ratio(static_cast<double>(sum.busy_ns),
                                      static_cast<double>(sum.now_ns)));
  rep.set("svc.shed_frac", ratio(static_cast<double>(sum.rejected),
                                 static_cast<double>(sum.submitted)));

  // The service builds its problems internally, so expansion is not
  // separable here: it stays inside the engine residual. The sequential
  // floor is measured on the stream's UTS trees instead.
  double seq_s = 0;
  std::uint64_t seq_nodes = 0;
  for (std::uint32_t r = 0; r < 8; ++r) {
    const auto res = uts::search_sequential(uts::test_small(r));
    seq_s += res->seconds;
    seq_nodes += res->nodes;
  }
  rep.set("uts.seq_ns_per_node",
          seq_s * 1e9 / static_cast<double>(seq_nodes));

  const CountingSink::Rank pg = counting.total();
  set_pgas_metrics(rep, pg, traced_reps, nodes);
  rep.set("pgas.lock_wait_virtual_frac",
          ratio(static_cast<double>(pg.lock_wait_ns),
                traced_reps * kSvcPool * static_cast<double>(sum.busy_ns)));
  rep.set("sim.switches", static_cast<double>(timed.switches) / traced_reps);
  rep.set("sim.switches_per_node",
          ratio(static_cast<double>(timed.switches), nodes));
  rep.set("sim.residual_ns_per_node",
          ratio(static_cast<double>(timed.run_ns), nodes));

  const double engine = static_cast<double>(timed.run_ns);
  const double svc_self = traced_submit + traced_drain - engine;
  const double attributed_frac = ratio(svc_self + engine, traced_wall);
  rep.set("trace.attributed_frac", attributed_frac);
  rep.set("trace.overhead_frac",
          median(traced_ns_per_node) / median(ns_per_node) - 1.0);
  std::printf("attribution: %.2f%% of %.3f s traced wall (service self "
              "%.1f%%, engine runs %.1f%%)\n",
              100 * attributed_frac, traced_wall * 1e-9,
              100 * ratio(svc_self, traced_wall),
              100 * ratio(engine, traced_wall));
  rep.attempt(attributed_frac > 0.99 && attributed_frac < 1.01,
              "layer self times + residual within 1% of traced wall");
  if (!args.spans_path.empty()) {
    if (!spans.write(args.spans_path))
      rep.attempt(false, "write spans to " + args.spans_path);
    else
      std::printf("spans: %s\n", args.spans_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::optional<SearchWorkload> search;
  if (args.workload == "sim-t3") {
    search = SearchWorkload{{ws::Algo::kUpcDistMem}, 16, false, false};
  } else if (args.workload == "psim-fig5-r128") {
    search = SearchWorkload{{ws::Algo::kUpcDistMem, ws::Algo::kMpiWs}, 128,
                            true, false};
  } else if (args.workload == "sim-r128-observed") {
    search = SearchWorkload{{ws::Algo::kUpcDistMem}, 128, false, true};
  } else if (args.workload != "svc-mix") {
    usage(("unknown workload " + args.workload).c_str());
  }
  if (search) search->run_seed = args.seed;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("context: nproc=%u psim_workers=%d compiler=\"%s\" build=%s "
              "commit=%s\n",
              std::thread::hardware_concurrency(), psim_workers(),
#if defined(__clang__)
              "clang " __clang_version__,
#elif defined(__GNUC__)
              "gcc " __VERSION__,
#else
              "unknown",
#endif
              PERFBENCH_BUILD_TYPE, args.commit.c_str());
  std::fflush(stdout);

  Report rep(args.trace);
  try {
    if (search)
      run_search_workload(*search, args, rep);
    else
      run_svc_workload(args, rep);
  } catch (const std::exception& e) {
    std::printf("FAIL: %s\n", e.what());
    return 1;
  }
  rep.set("peak_rss_mb", peak_rss_mb());
  rep.print_table();
  rep.print_json();
  return rep.failed() == 0 ? 0 : 1;
}
