#include "common.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <thread>

#include "sha1/sha1.hpp"
#include "stats/table.hpp"

namespace upcws::benchutil {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kQuick: return "quick";
    case Mode::kDefault: return "default";
    case Mode::kFull: return "full";
  }
  return "?";
}

std::string fmt(double v, int prec) {
  std::ostringstream os;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  os << buf;
  return os.str();
}

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  // JSON has no inf/nan; clamp to null-safe 0 (a bench that produces these
  // has failed anyway and the compare tool will flag the wild delta).
  if (std::strstr(buf, "inf") != nullptr || std::strstr(buf, "nan") != nullptr)
    return "0";
  return buf;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  for (std::string line; std::getline(f, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
      continue;
    const std::size_t from = line.find_first_not_of(" \t", colon + 1);
    if (from != std::string::npos) return line.substr(from);
  }
  return "unrecorded";
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
  os << "  \"bench\": \"" << stats::json_escape(bench_) << "\",\n";
  os << "  \"mode\": \"" << mode_name(mode_) << "\",\n";
  // Host context: host-time metrics compare only between files that agree
  // on all three (tools/compare_bench.py notes any difference).
  os << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n";
  os << "  \"sha1_kernel\": \"" << sha1::kernel_name() << "\",\n";
  os << "  \"cpu_model\": \"" << stats::json_escape(cpu_model()) << "\",\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const Result& r = results_[i];
    os << "    {\n      \"name\": \"" << stats::json_escape(r.name) << "\",\n";
    os << "      \"metrics\": {";
    for (std::size_t j = 0; j < r.metrics.size(); ++j) {
      if (j > 0) os << ", ";
      os << "\"" << stats::json_escape(r.metrics[j].first)
         << "\": " << json_number(r.metrics[j].second);
    }
    os << "},\n      \"notes\": {";
    for (std::size_t j = 0; j < r.notes.size(); ++j) {
      if (j > 0) os << ", ";
      os << "\"" << stats::json_escape(r.notes[j].first) << "\": \""
         << stats::json_escape(r.notes[j].second) << "\"";
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
