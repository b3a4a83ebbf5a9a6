// Minimal fixed-width table / CSV formatter for the benchmark harness.
// Every figure/table reproduction prints through this so the output format
// is uniform and machine-parsable (EXPERIMENTS.md records the rows). Also
// the one JSON string escaper of the hand-written JSON writers.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace upcws::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  /// Helpers for numeric cells.
  static std::string fmt(double v, int precision = 2);
  static std::string fmt(std::uint64_t v);
  static std::string fmt(int v);

  /// Render as an aligned fixed-width table.
  void print(std::ostream& os) const;

  /// Render as CSV (headers + rows).
  void print_csv(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }
  const std::vector<std::string>& row(std::size_t i) const { return rows_[i]; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// `s` as the body of a JSON string: `"`, `\` and newline and tab in
/// their short forms, every other control character as \u00XX.
std::string json_escape(const std::string& s);

}  // namespace upcws::stats
