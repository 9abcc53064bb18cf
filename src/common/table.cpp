#include "common/table.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace ca3dmm {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  CA_REQUIRE(cells.size() == header_.size(),
             "TextTable row has %zu cells, header has %zu", cells.size(),
             header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<size_t> width(header_.size(), 0);
  for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c)
      if (row[c].size() > width[c]) width[c] = row[c].size();

  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += "  ";
      // Right-align every cell; numeric-heavy tables read better that way.
      out.append(width[c] - row[c].size(), ' ');
      out += row[c];
    }
    out += '\n';
  };

  std::string out;
  emit_row(header_, out);
  size_t total = 0;
  for (size_t c = 0; c < width.size(); ++c) total += width[c] + 2;
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

void TextTable::print() const {
  const std::string s = str();
  std::fwrite(s.data(), 1, s.size(), stdout);
  std::fflush(stdout);
}

std::string TextTable::csv() const {
  auto emit = [](const std::vector<std::string>& row, std::string& out) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) out += ',';
      const std::string& cell = row[c];
      if (cell.find(',') != std::string::npos ||
          cell.find('"') != std::string::npos) {
        out += '"';
        for (char ch : cell) {
          if (ch == '"') out += '"';
          out += ch;
        }
        out += '"';
      } else {
        out += cell;
      }
    }
    out += '\n';
  };
  std::string out;
  emit(header_, out);
  for (const auto& row : rows_) emit(row, out);
  return out;
}

void TextTable::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  CA_REQUIRE(f != nullptr, "cannot open %s for writing", path.c_str());
  const std::string s = csv();
  std::fwrite(s.data(), 1, s.size(), f);
  std::fclose(f);
}

std::string format_mb(double bytes) {
  return strprintf("%.0f", bytes / (1024.0 * 1024.0));
}

std::string format_seconds(double s) {
  if (s >= 10.0) return strprintf("%.1f", s);
  return strprintf("%.2f", s);
}

}  // namespace ca3dmm
