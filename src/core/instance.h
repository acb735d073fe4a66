#ifndef PROMETHEUS_CORE_INSTANCE_H_
#define PROMETHEUS_CORE_INSTANCE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/oid.h"
#include "common/value.h"
#include "core/schema.h"

namespace prometheus {

/// A stored object instance: one immutable-once-shared version in the
/// database's store (see `DbSnapshot`).
///
/// Pointer contract. A `const Object*` from a lookup is non-owning. A
/// pointer into a pinned snapshot stays valid and unchanged for the pin's
/// lifetime. A pointer into the live store goes *stale* when a mutation
/// copies the record (the writer copies any version a published snapshot
/// shares before changing it), and the stale version is freed at the next
/// publish unless a pinned snapshot still holds it; deletion ends it too.
/// Writer-thread code must therefore not hold such a pointer across a
/// mutation of the same record: fetch it again afterwards. The same holds
/// for `Link` and for the vector returned by `LinksInContext`.
struct Object {
  Oid oid = kNullOid;
  const ClassDef* cls = nullptr;

  /// Attribute slots; attributes left at default are stored explicitly on
  /// creation so reads never miss.
  std::unordered_map<std::string, Value> attrs;

  /// Incident links (both endpoints index their links for O(degree)
  /// traversal — thesis 6.1.4, relationship indexes).
  std::vector<Oid> out_links;
  std::vector<Oid> in_links;

  /// Position inside the class extent vector (swap-remove bookkeeping).
  std::size_t extent_pos = 0;
};

/// A stored relationship instance — a *link* (thesis 4.3). Links are
/// first-class: they have an Oid, carry attributes, can be queried by POOL,
/// and may belong to a classification context (thesis 4.6.2).
struct Link {
  Oid oid = kNullOid;
  const RelationshipDef* def = nullptr;
  Oid source = kNullOid;
  Oid target = kNullOid;

  /// The classification this link belongs to, or kNullOid when the link is
  /// context-free. Classifications are themselves objects, so this is an
  /// ordinary Oid.
  Oid context = kNullOid;

  /// Link attributes (e.g. the "placement motivation" that provides the
  /// traceability requirement 4).
  std::unordered_map<std::string, Value> attrs;

  /// Position inside the relationship-class extent (swap-remove bookkeeping).
  std::size_t extent_pos = 0;

  /// Position inside the context index (swap-remove bookkeeping); only
  /// meaningful when `context != kNullOid`.
  std::size_t ctx_pos = 0;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_INSTANCE_H_
