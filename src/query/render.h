#ifndef PROMETHEUS_QUERY_RENDER_H_
#define PROMETHEUS_QUERY_RENDER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/value.h"
#include "query/query_engine.h"

namespace prometheus::pool {

/// The one module that renders rows: a `sys.*` query's rows become JSON for
/// the HTTP plane's telemetry routes and an aligned table for the shell,
/// and a `/query` or `/profile` response becomes its JSON body.

/// A struct becomes an object in field order, a list an array. Bools and
/// ints stay typed; a finite double is a number, NaN and infinity are
/// `null`, as is a null. Strings render as their text; any other value
/// (an object reference) as its `ToString()` text.
std::string RenderJson(const Value& value);

/// An array with one element per row. A row holding a single struct cell
/// (`select r from sys.requests r`) renders as that struct; any other row
/// as an object keyed by column name.
std::string RenderJson(const ResultSet& rows);

/// The shell's aligned table: a header line, one line per row, and a
/// `(N rows)` footer. When every row is a single struct cell the struct's
/// fields become the columns, as in `RenderJson`.
std::string RenderText(const ResultSet& rows);

/// What a `/query` or `/profile` body carries besides the rows: the
/// request envelope the shell prints too. Views only; the caller keeps the
/// response alive while it renders.
struct QueryEnvelope {
  std::uint64_t id = 0;
  std::string_view code;    ///< transport disposition ("ok", "rejected"...)
  bool ok = false;
  std::string_view status;  ///< the database status, rendered
  std::uint64_t epoch = 0;
  std::string_view cache;   ///< "hit" / "miss"; empty when not consulted
  const ResultSet* rows = nullptr;  ///< null renders as no columns, no rows
  std::string_view text;    ///< the PROFILE span tree; empty when absent
};

/// The `/query` body: `{"id":..,"code":..,"ok":..,"status":..,"epoch":..,
/// ["cache":..,]"columns":[..],"rows":[[..]..][,"text":..]}`. Every cell is
/// a JSON string holding the cell's `ToString()` text — a string cell
/// quoted POOL-style — written straight into the body, once.
std::string RenderQueryJson(const QueryEnvelope& envelope);

}  // namespace prometheus::pool

#endif  // PROMETHEUS_QUERY_RENDER_H_
