#include "stats/table.hpp"

#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace upcws::stats {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size())
    throw std::invalid_argument("Table::add_row: cell count != header count");
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::fmt(std::uint64_t v) { return std::to_string(v); }
std::string Table::fmt(int v) { return std::to_string(v); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> w(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) w[i] = headers_[i].size();
  for (const auto& r : rows_)
    for (std::size_t i = 0; i < r.size(); ++i)
      w[i] = std::max(w[i], r[i].size());

  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << std::setw(static_cast<int>(w[i])) << cells[i];
      os << (i + 1 < cells.size() ? "  " : "");
    }
    os << '\n';
  };
  line(headers_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < w.size(); ++i) total += w[i] + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& r : rows_) line(r);
}

void Table::print_csv(std::ostream& os) const {
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i)
      os << cells[i] << (i + 1 < cells.size() ? "," : "");
    os << '\n';
  };
  line(headers_);
  for (const auto& r : rows_) line(r);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace upcws::stats
