#include "common.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

#include "sha1/sha1.hpp"

namespace upcws::benchutil {

Mode mode_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return Mode::kQuick;
    if (std::strcmp(argv[i], "--full") == 0) return Mode::kFull;
  }
  return Mode::kDefault;
}

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kQuick: return "quick";
    case Mode::kDefault: return "default";
    case Mode::kFull: return "full";
  }
  return "?";
}

void print_banner(const std::string& title, const std::string& paper_ref,
                  const std::string& config) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_ref.c_str());
  std::printf("run:   %s\n", config.c_str());
  std::printf("==============================================================\n");
}

double mnps(const ws::SearchResult& r) { return r.agg.nodes_per_sec / 1e6; }

std::string fmt(double v, int prec) {
  std::ostringstream os;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  os << buf;
  return os.str();
}

namespace {

// Minimal JSON string escape: the keys/values we emit are bench and metric
// names plus tree descriptions -- printable ASCII -- but quotes and
// backslashes must not corrupt the document.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  // JSON has no inf/nan; clamp to null-safe 0 (a bench that produces these
  // has failed anyway and the compare tool will flag the wild delta).
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr)
    return "0";
  return buf;
}

}  // namespace

BenchReporter::Result& BenchReporter::Result::metric(const std::string& key,
                                                     double value) {
  metrics.emplace_back(key, value);
  return *this;
}

BenchReporter::Result& BenchReporter::Result::note(const std::string& key,
                                                   const std::string& value) {
  notes.emplace_back(key, value);
  return *this;
}

double BenchReporter::Result::value(const std::string& key) const {
  for (const auto& [k, v] : metrics)
    if (k == key) return v;
  return 0.0;
}

BenchReporter::BenchReporter(std::string bench, Mode mode)
    : bench_(std::move(bench)), mode_(mode) {}

BenchReporter::Result& BenchReporter::result(const std::string& name) {
  for (Result& r : results_)
    if (r.name == name) return r;
  results_.push_back(Result{name, {}, {}});
  return results_.back();
}

void BenchReporter::write_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema\": \"upcws-bench-v1\",\n";
  os << "  \"bench\": \"" << json_escape(bench_) << "\",\n";
  os << "  \"mode\": \"" << mode_name(mode_) << "\",\n";
  // Host context: host-time metrics compare only between files that agree
  // on both (tools/compare_bench.py notes any difference).
  os << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"sha1_kernel\": \"" << sha1::kernel_name() << "\",\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const Result& r = results_[i];
    os << "    {\n      \"name\": \"" << json_escape(r.name) << "\",\n";
    os << "      \"metrics\": {";
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      if (j > 0) os << ", ";
      os << "\"" << json_escape(r.metrics[j].first)
         << "\": " << json_number(r.metrics[j].second);
    }
    os << "},\n      \"notes\": {";
    for (std::size_t j = 0; j < r.notes.size(); ++j) {
      if (j > 0) os << ", ";
      os << "\"" << json_escape(r.notes[j].first) << "\": \""
         << json_escape(r.notes[j].second) << "\"";
    }
    os << "}\n    }" << (i + 1 < results_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

bool BenchReporter::write_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "BenchReporter: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  write_json(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace upcws::benchutil
