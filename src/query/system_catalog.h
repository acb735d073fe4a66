#ifndef PROMETHEUS_QUERY_SYSTEM_CATALOG_H_
#define PROMETHEUS_QUERY_SYSTEM_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/value.h"

namespace prometheus {
class DbSnapshot;
}  // namespace prometheus

namespace prometheus::pool {

/// The virtual system catalog: a family of read-only `sys.*` classes whose
/// extents are materialized on demand from live server state instead of
/// stored objects. The query engine treats a registered catalog class like
/// any other extent — predicates, joins, sorting, projection and PROFILE all
/// work — except that rows are `Value` structs (there are no Oids to hand
/// out), no index ever applies, and results are excluded from the result
/// cache (they describe a moving target, not an epoch-stable database
/// state).
///
/// Providers are plain closures registered once at server construction, so
/// this module stays dependency-light: it knows nothing about the obs /
/// cache / replication layers it ends up describing. Each receives the
/// store the query reads, so schema-describing classes answer for the
/// query's own snapshot. Materialization happens at most once per query
/// execution (the engine memoizes rows per top-level query), which is what
/// makes a self-join of `sys.requests` against itself — or a join against
/// a real taxon extent — see one consistent point-in-time row set.
class SystemCatalog {
 public:
  using Provider = std::function<std::vector<Value>(const DbSnapshot&)>;

  struct ClassInfo {
    std::string name;                     // "sys.metrics"
    std::string help;                     // one-line description
    std::vector<std::string> attributes;  // field names, declaration order
  };

  /// True for any name in the reserved `sys.` namespace, registered or not.
  static bool IsCatalogName(const std::string& name);

  /// Registers a catalog class. Not thread-safe: call during single-threaded
  /// server construction, before any query runs.
  void Register(std::string name, std::string help,
                std::vector<std::string> attributes, Provider provider);

  bool Has(const std::string& name) const;

  /// Runs the provider against `view` and returns the materialized rows.
  /// Returns an empty vector for unregistered names.
  std::vector<Value> Materialize(const std::string& name,
                                 const DbSnapshot& view) const;

  /// Registered classes in registration order (used by `sys.catalog` and the
  /// shell's `.sys` listing).
  const std::vector<ClassInfo>& ListClasses() const { return infos_; }

 private:
  struct Entry {
    ClassInfo info;
    Provider provider;
  };
  std::vector<Entry> entries_;
  std::vector<ClassInfo> infos_;
};

/// Returns true when the query text references the `sys.` namespace outside
/// a string literal (case-insensitive). The server uses this to bypass the
/// result cache for catalog queries; a false positive only costs a cache
/// bypass, never a wrong answer.
bool QueryTouchesCatalog(const std::string& text);

/// Lock-free per-class heat counters maintained inline in the engine's
/// scan and index paths. `sys.storage` snapshots them so the future
/// partition planner has per-extent evidence (which classes are scanned hot,
/// which are served by indexes). Counters are cumulative since process
/// start; relaxed atomics are fine because rows are advisory statistics.
class ExtentHeat {
 public:
  struct Counters {
    std::string class_name;
    std::uint64_t scans = 0;         // full extent scans
    std::uint64_t index_hits = 0;    // index-served range resolutions
    std::uint64_t rows_scanned = 0;  // candidate rows produced by scans
  };

  static ExtentHeat& Instance();

  void RecordScan(const std::string& class_name, std::uint64_t rows);
  void RecordIndexHit(const std::string& class_name, std::uint64_t rows);

  /// Point-in-time copy of every tracked class's counters.
  std::vector<Counters> Snapshot() const;

 private:
  // Fixed-size open hash table of heap-allocated slots published with a CAS;
  // slots are never removed or resized (the class universe is small), so
  // readers need no locks and writers only race on first-touch publication.
  struct Slot {
    std::string name;
    std::atomic<std::uint64_t> scans{0};
    std::atomic<std::uint64_t> index_hits{0};
    std::atomic<std::uint64_t> rows_scanned{0};
  };

  static constexpr std::size_t kSlots = 512;

  Slot* FindOrInsert(const std::string& class_name);

  std::atomic<Slot*> slots_[kSlots] = {};
};

}  // namespace prometheus::pool

#endif  // PROMETHEUS_QUERY_SYSTEM_CATALOG_H_
