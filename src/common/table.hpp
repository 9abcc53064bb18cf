// Plain-text table printer used by the benchmark harness to emit
// paper-style tables (Table I/II/III rows, figure series).
#pragma once

#include <string>
#include <vector>

namespace ca3dmm {

/// Accumulates rows of strings and prints them with aligned columns.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Adds one row; must have the same number of cells as the header.
  void add_row(std::vector<std::string> cells);

  /// Renders the table with a rule under the header.
  std::string str() const;

  /// Prints to stdout.
  void print() const;

  /// Renders as CSV (header + rows); cells are written verbatim, with
  /// quoting only when a cell contains a comma or quote.
  std::string csv() const;

  /// Writes the CSV rendering to `path` (plot-ready figure data).
  void write_csv(const std::string& path) const;

  size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a byte count as MB with the paper's granularity.
std::string format_mb(double bytes);

/// Formats seconds with 2-3 significant digits like the paper's tables.
std::string format_seconds(double s);

}  // namespace ca3dmm
