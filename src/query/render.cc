#include "query/render.h"

#include <algorithm>
#include <charconv>
#include <cmath>
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

void AppendUint(std::string* out, std::uint64_t v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void AppendQuoted(std::string* out, std::string_view s) {
  *out += '"';
  stats::AppendJsonEscaped(out, s);
  *out += '"';
}

/// Appends the JSON-escaped `ToString()` text of `cell`. Only strings and
/// the lists and structs that can nest them hold characters JSON escapes;
/// every other cell's text goes into the body as `AppendText` writes it.
void AppendCellText(std::string* out, const Value& cell) {
  switch (cell.type()) {
    case ValueType::kString:
      *out += "\\\"";
      stats::AppendJsonEscaped(out, cell.AsString());
      *out += "\\\"";
      return;
    case ValueType::kList:
    case ValueType::kStruct:
      stats::AppendJsonEscaped(out, cell.ToString());
      return;
    default:
      cell.AppendText(out);
      return;
  }
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

std::string RenderQueryJson(const QueryEnvelope& e) {
  static const ResultSet kNoRows;
  const ResultSet& rs = e.rows != nullptr ? *e.rows : kNoRows;
  std::string out;
  out.reserve(128 + e.status.size() + e.text.size() +
              16 * rs.rows.size() * rs.columns.size());
  out += "{\"id\":";
  AppendUint(&out, e.id);
  out += ",\"code\":";
  AppendQuoted(&out, e.code);
  out += e.ok ? ",\"ok\":true,\"status\":" : ",\"ok\":false,\"status\":";
  AppendQuoted(&out, e.status);
  out += ",\"epoch\":";
  AppendUint(&out, e.epoch);
  if (!e.cache.empty()) {
    out += ",\"cache\":";
    AppendQuoted(&out, e.cache);
  }
  out += ",\"columns\":[";
  for (std::size_t i = 0; i < rs.columns.size(); ++i) {
    if (i != 0) out += ',';
    AppendQuoted(&out, rs.columns[i]);
  }
  out += "],\"rows\":[";
  for (std::size_t r = 0; r < rs.rows.size(); ++r) {
    out += r != 0 ? ",[" : "[";
    const std::vector<Value>& row = rs.rows[r];
    for (std::size_t i = 0; i < row.size(); ++i) {
      out += i != 0 ? ",\"" : "\"";
      AppendCellText(&out, row[i]);
      out += '"';
    }
    out += ']';
  }
  out += ']';
  if (!e.text.empty()) {
    out += ",\"text\":";
    AppendQuoted(&out, e.text);
  }
  out += '}';
  return out;
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
