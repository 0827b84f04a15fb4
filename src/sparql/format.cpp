#include "sparql/format.hpp"

#include <algorithm>
#include <vector>

namespace ahsw::sparql {

namespace {

[[nodiscard]] std::string pad(const std::string& s, std::size_t width) {
  std::string out = s;
  out.resize(std::max(width, out.size()), ' ');
  return out;
}

}  // namespace

std::string to_table(const QueryResult& result) {
  switch (result.form) {
    case QueryForm::kAsk:
      return result.ask_answer ? "yes\n" : "no\n";
    case QueryForm::kConstruct:
    case QueryForm::kDescribe: {
      std::string out;
      for (const rdf::Triple& t : result.graph) {
        out += t.to_string();
        out += '\n';
      }
      out += std::to_string(result.graph.size()) + " triples\n";
      return out;
    }
    case QueryForm::kSelect:
      break;
  }

  // Column set: the declared projection; fall back to the variables present
  // in the solutions when empty (SELECT * results store them implicitly).
  std::vector<std::string> columns = result.variables;
  if (columns.empty()) columns = variables_of(result.solutions);

  std::vector<std::size_t> widths;
  widths.reserve(columns.size());
  for (const std::string& c : columns) widths.push_back(c.size());

  std::vector<std::vector<std::string>> cells;
  cells.reserve(result.solutions.size());
  for (const Binding& b : result.solutions.bindings()) {
    std::vector<std::string> row;
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const rdf::Term* t = b.get(columns[i]);
      row.push_back(t != nullptr ? t->to_string() : "");
      widths[i] = std::max(widths[i], row.back().size());
    }
    cells.push_back(std::move(row));
  }

  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out += "|";
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += " " + pad(row[i], widths[i]) + " |";
    }
    out += "\n";
  };
  emit_row(columns);
  out += "|";
  for (std::size_t w : widths) out += std::string(w + 2, '-') + "|";
  out += "\n";
  for (const auto& row : cells) emit_row(row);
  out += std::to_string(result.solutions.size()) + " rows\n";
  return out;
}

}  // namespace ahsw::sparql
