#ifndef PROMETHEUS_QUERY_RENDER_H_
#define PROMETHEUS_QUERY_RENDER_H_

#include <string>

#include "common/value.h"
#include "query/query_engine.h"

namespace prometheus::pool {

/// The one renderer behind every telemetry surface: a `sys.*` query's rows
/// become JSON for the HTTP plane and an aligned table for the shell.

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

}  // namespace prometheus::pool

#endif  // PROMETHEUS_QUERY_RENDER_H_
