#ifndef PROMETHEUS_VIEWS_VIEW_MANAGER_H_
#define PROMETHEUS_VIEWS_VIEW_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/database.h"
#include "query/query_engine.h"

namespace prometheus {

/// Declaration of a view (thesis 6.1.3, figure 29): a named, virtual subset
/// of the database. A view selects objects by any combination of
///  - a class (with subclasses),
///  - a POOL predicate over `self`,
///  - a classification context (only objects participating in it),
/// which is exactly how the thesis extracts one classification at a time
/// from the global overlapping store.
struct ViewDef {
  std::string name;
  /// Restrict to instances of this class; empty = any class.
  std::string class_name;
  /// POOL boolean expression over `self`; empty = no predicate.
  std::string predicate;
  /// Restrict to members of this classification; kNullOid = whole database.
  Oid context = kNullOid;
};

/// The views layer: registry and evaluator of views.
///
/// Views are *virtual* (the thesis' choice for volatile revision data,
/// 3.2.2): each evaluation runs against the store the caller names — a
/// pinned `DbSnapshot` on any thread, or `Database::live_store()` on the
/// writer's — so a view always answers for exactly that state and costs
/// nothing on update. The registry itself is not synchronised: define and
/// drop views before evaluating them concurrently.
class ViewManager {
 public:
  /// `db` (whose schema `Define` checks class names against) must outlive
  /// the manager.
  explicit ViewManager(const Database* db) : db_(db) {}

  ViewManager(const ViewManager&) = delete;
  ViewManager& operator=(const ViewManager&) = delete;

  /// Registers a view. The predicate is parsed now; a view must name a
  /// class or a context (or both).
  Status Define(const ViewDef& def);

  /// Removes a view.
  Status Drop(const std::string& name);

  /// True when `name` is defined.
  bool Has(const std::string& name) const;

  /// Names of all defined views.
  std::vector<std::string> names() const;

  /// Evaluates the view against `store`: all objects there satisfying it.
  Result<std::vector<Oid>> Evaluate(const std::string& name,
                                    const DbSnapshot& store) const;

  /// Evaluates the view against `store` and restricts it to links: the
  /// edges of the view's context whose two endpoints satisfy the view (the
  /// extracted sub-classification). Requires the view to have a context.
  Result<std::vector<Oid>> EvaluateEdges(const std::string& name,
                                         const DbSnapshot& store) const;

 private:
  struct CompiledView {
    ViewDef def;
    std::unique_ptr<pool::Expr> predicate;  // null = none
  };

  const CompiledView* Find(const std::string& name) const;
  Result<bool> Satisfies(const CompiledView& view, const DbSnapshot& store,
                         Oid oid) const;
  std::vector<Oid> Candidates(const CompiledView& view,
                              const DbSnapshot& store) const;

  const Database* db_;
  pool::QueryEngine engine_;
  std::vector<std::unique_ptr<CompiledView>> views_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_VIEWS_VIEW_MANAGER_H_
