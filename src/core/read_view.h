#ifndef PROMETHEUS_CORE_READ_VIEW_H_
#define PROMETHEUS_CORE_READ_VIEW_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/value.h"

// Read-view plumbing. There is one read type, `DbSnapshot` (core/snapshot.h):
// the database's live working store and every published snapshot are
// instances of it. This header says which instance the current thread reads
// through, so the query engine, views and catalog providers are written
// once and serve both embedded reads of the live store and lock-free reads
// of a pinned snapshot.

namespace prometheus {

class Database;
class DbSnapshot;

/// Direction selector for link traversal.
enum class Direction : std::uint8_t {
  kOut,   ///< follow links from source to target
  kIn,    ///< follow links from target to source
  kBoth,  ///< follow links either way (undirected view)
};

/// Named initial attribute assignment used at object/link creation.
using AttrInit = std::pair<std::string, Value>;

namespace internal {
/// The store the current thread's query execution reads through. Set by
/// `ScopedReadView` (the server installs the request's pinned snapshot
/// before calling the engine); null means "read the live database".
inline thread_local const DbSnapshot* g_current_read_view = nullptr;
}  // namespace internal

/// The thread's installed snapshot, or null when execution should fall
/// back to the live database (embedded mode, writer-thread rule callbacks).
inline const DbSnapshot* CurrentReadView() {
  return internal::g_current_read_view;
}

/// The store reads on this thread go through: the installed snapshot when
/// there is one, else `db`'s live working store (where the caller follows
/// the epoch-guard protocol). Queries, views, catalog providers and the
/// taxonomy helpers all resolve their reads here.
const DbSnapshot& ReadViewOf(const Database& db);

/// RAII installer for the thread's read view. Nests: the previous view is
/// restored on destruction.
class ScopedReadView {
 public:
  explicit ScopedReadView(const DbSnapshot* view)
      : prev_(internal::g_current_read_view) {
    internal::g_current_read_view = view;
  }
  ~ScopedReadView() { internal::g_current_read_view = prev_; }

  ScopedReadView(const ScopedReadView&) = delete;
  ScopedReadView& operator=(const ScopedReadView&) = delete;

 private:
  const DbSnapshot* prev_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_READ_VIEW_H_
