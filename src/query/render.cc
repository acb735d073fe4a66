#include "query/render.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/stats.h"

namespace prometheus::pool {

namespace {

void Write(stats::JsonWriter& w, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      w.Null();
      return;
    case ValueType::kBool:
      w.Bool(v.AsBool());
      return;
    case ValueType::kInt:
      w.Int(v.AsInt());
      return;
    case ValueType::kDouble:
      if (std::isfinite(v.AsDouble())) {
        w.Number(v.AsDouble());
      } else {
        w.Null();
      }
      return;
    case ValueType::kString:
      w.String(v.AsString());
      return;
    case ValueType::kList:
      w.BeginArray();
      for (const Value& item : v.AsList()) Write(w, item);
      w.EndArray();
      return;
    case ValueType::kStruct:
      w.BeginObject();
      for (const auto& [name, field] : v.AsStruct()) {
        w.Key(name);
        Write(w, field);
      }
      w.EndObject();
      return;
    default:
      w.String(v.ToString());
      return;
  }
}

bool IsStructRow(const std::vector<Value>& row) {
  return row.size() == 1 && row[0].type() == ValueType::kStruct;
}

}  // namespace

std::string RenderJson(const Value& value) {
  stats::JsonWriter w;
  Write(w, value);
  return w.str();
}

std::string RenderJson(const ResultSet& rows) {
  stats::JsonWriter w;
  w.BeginArray();
  for (const std::vector<Value>& row : rows.rows) {
    if (IsStructRow(row)) {
      Write(w, row[0]);
      continue;
    }
    w.BeginObject();
    for (std::size_t i = 0; i < row.size() && i < rows.columns.size(); ++i) {
      w.Key(rows.columns[i]);
      Write(w, row[i]);
    }
    w.EndObject();
  }
  w.EndArray();
  return w.str();
}

std::string RenderText(const ResultSet& rows) {
  std::vector<std::string> columns = rows.columns;
  std::vector<std::vector<std::string>> cells;
  const bool structs = !rows.rows.empty() &&
                       std::all_of(rows.rows.begin(), rows.rows.end(),
                                   IsStructRow);
  if (structs) {
    columns.clear();
    for (const auto& field : rows.rows[0][0].AsStruct()) {
      columns.push_back(field.first);
    }
  }
  std::vector<std::size_t> widths;
  for (const std::string& c : columns) widths.push_back(c.size());
  for (const std::vector<Value>& row : rows.rows) {
    std::vector<std::string> line;
    if (structs) {
      for (const std::string& c : columns) {
        const Value* field = row[0].Field(c);
        line.push_back(field != nullptr ? field->ToString() : "");
      }
    } else {
      for (const Value& cell : row) line.push_back(cell.ToString());
    }
    for (std::size_t i = 0; i < line.size() && i < widths.size(); ++i) {
      if (line[i].size() > widths[i]) widths[i] = line[i].size();
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  auto emit = [&out, &widths](const std::vector<std::string>& line) {
    for (std::size_t i = 0; i < line.size(); ++i) {
      out += line[i];
      const std::size_t width = i < widths.size() ? widths[i] : 0;
      if (line[i].size() < width) out.append(width - line[i].size(), ' ');
      out += "  ";
    }
    out += '\n';
  };
  emit(columns);
  for (const std::vector<std::string>& line : cells) emit(line);
  out += "(" + std::to_string(rows.rows.size()) + " rows)\n";
  return out;
}

}  // namespace prometheus::pool
