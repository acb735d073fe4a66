#ifndef PROMETHEUS_SERVER_TELEMETRY_H_
#define PROMETHEUS_SERVER_TELEMETRY_H_

#include <array>
#include <cstdint>
#include <string>

namespace prometheus::server::telemetry {

// The fixed POOL texts behind every telemetry surface. The HTTP routes and
// the shell's dot-commands run them through `Server::QueryCatalog` and
// render the rows with `pool::RenderJson` / `pool::RenderText`, so each
// surface has one row source (its `sys.*` class) and one renderer.

/// `.sys`: the catalog's own listing, one row per `sys.*` class.
inline constexpr char kCatalog[] = "select c from sys.catalog c";

/// `GET /debug/requests`, `.recent`: the flight recorder, oldest first.
inline constexpr char kRequests[] = "select r from sys.requests r";

/// `GET /slowlog`: the slow-query log, oldest first.
inline constexpr char kSlowLog[] = "select s from sys.slowlog s";

/// `.health` (`/health` and kHealth render the same row without the
/// engine, so they answer even before a query could be planned).
inline constexpr char kHealth[] = "select h from sys.health h";

/// `.lag`: this server's replication link.
inline constexpr char kReplication[] = "select r from sys.replication r";

/// kCacheControl's answer (`.cache`): the cache statistics, field/value.
inline constexpr char kCache[] =
    "select c.field as field, c.value as value from sys.cache c";

/// `kRequests` narrowed to one trace id (empty: every id) and to the
/// newest `limit` entries (0: all of them), still oldest first. The id is
/// spliced into the text, so callers pass only ids that passed the
/// X-Trace-Id alphabet check (`[A-Za-z0-9._:-]`, no quotes).
inline std::string RequestsQuery(const std::string& trace_id,
                                 std::uint64_t limit) {
  std::string query = kRequests;
  if (!trace_id.empty()) query += " where r.trace_id = '" + trace_id + "'";
  if (limit == 0) return query;
  return "select x from (" + query + " order by r.seq desc limit " +
         std::to_string(limit) + ") x order by x.seq";
}

/// One named part of the contention report.
struct Section {
  const char* name;
  const char* query;
};

/// `GET /debug/contention`, `.contention [window]`: the wait states
/// (cumulative, or since the previous windowed read — reading
/// `sys.contention_window` consumes the window), the epoch-guard gauges
/// and the MVCC snapshot state, in that order.
inline std::array<Section, 3> ContentionSections(bool windowed) {
  return {{{"states", windowed ? "select c from sys.contention_window c"
                               : "select c from sys.contention c"},
           {"guard",
            "select m.name as name, m.value as value from sys.metrics m "
            "where m.kind = 'gauge' and m.name like 'guard_%'"},
           {"mvcc", "select s from sys.snapshots s"}}};
}

}  // namespace prometheus::server::telemetry

#endif  // PROMETHEUS_SERVER_TELEMETRY_H_
