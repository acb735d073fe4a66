#include "views/view_manager.h"

#include <algorithm>
#include <unordered_set>

#include "query/parser.h"

namespace prometheus {

Status ViewManager::Define(const ViewDef& def) {
  if (def.name.empty()) {
    return Status::InvalidArgument("view name must not be empty");
  }
  if (Has(def.name)) {
    return Status::InvalidArgument("view '" + def.name +
                                   "' already defined");
  }
  if (def.class_name.empty() && def.context == kNullOid) {
    return Status::InvalidArgument(
        "view '" + def.name + "' must name a class or a classification");
  }
  if (!def.class_name.empty() &&
      db_->FindClass(def.class_name) == nullptr) {
    return Status::NotFound("unknown class '" + def.class_name + "'");
  }
  auto view = std::make_unique<CompiledView>();
  view->def = def;
  if (!def.predicate.empty()) {
    auto parsed = pool::ParseExpression(def.predicate);
    if (!parsed.ok()) {
      return Status::ParseError("view '" + def.name + "' predicate: " +
                                parsed.status().message());
    }
    view->predicate = std::move(parsed).value();
  }
  views_.push_back(std::move(view));
  return Status::Ok();
}

Status ViewManager::Drop(const std::string& name) {
  auto it = std::find_if(views_.begin(), views_.end(),
                         [&](const std::unique_ptr<CompiledView>& v) {
                           return v->def.name == name;
                         });
  if (it == views_.end()) {
    return Status::NotFound("no view '" + name + "'");
  }
  views_.erase(it);
  return Status::Ok();
}

bool ViewManager::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::vector<std::string> ViewManager::names() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& v : views_) out.push_back(v->def.name);
  return out;
}

const ViewManager::CompiledView* ViewManager::Find(
    const std::string& name) const {
  for (const auto& v : views_) {
    if (v->def.name == name) return v.get();
  }
  return nullptr;
}

Result<bool> ViewManager::Satisfies(const CompiledView& view,
                                    const DbSnapshot& store, Oid oid) const {
  if (!view.def.class_name.empty() &&
      !store.IsInstanceOf(oid, view.def.class_name)) {
    return false;
  }
  if (view.predicate != nullptr) {
    pool::Environment env{{"self", Value::Ref(oid)}};
    PROMETHEUS_ASSIGN_OR_RETURN(Value v,
                                engine_.Eval(*view.predicate, store, env));
    return v.type() == ValueType::kBool && v.AsBool();
  }
  return true;
}

std::vector<Oid> ViewManager::Candidates(const CompiledView& view,
                                         const DbSnapshot& store) const {
  if (view.def.context == kNullOid) return store.Extent(view.def.class_name);
  std::vector<Oid> candidates;
  std::unordered_set<Oid> seen;
  for (Oid lid : store.LinksInContext(view.def.context)) {
    const Link* l = store.GetLink(lid);
    if (l == nullptr) continue;
    if (seen.insert(l->source).second) candidates.push_back(l->source);
    if (seen.insert(l->target).second) candidates.push_back(l->target);
  }
  return candidates;
}

Result<std::vector<Oid>> ViewManager::Evaluate(const std::string& name,
                                               const DbSnapshot& store) const {
  const CompiledView* view = Find(name);
  if (view == nullptr) {
    return Status::NotFound("no view '" + name + "'");
  }
  std::vector<Oid> out;
  for (Oid oid : Candidates(*view, store)) {
    PROMETHEUS_ASSIGN_OR_RETURN(bool pass, Satisfies(*view, store, oid));
    if (pass) out.push_back(oid);
  }
  return out;
}

Result<std::vector<Oid>> ViewManager::EvaluateEdges(
    const std::string& name, const DbSnapshot& store) const {
  const CompiledView* view = Find(name);
  if (view == nullptr) {
    return Status::NotFound("no view '" + name + "'");
  }
  if (view->def.context == kNullOid) {
    return Status::FailedPrecondition("view '" + name +
                                      "' has no classification context");
  }
  std::vector<Oid> out;
  for (Oid lid : store.LinksInContext(view->def.context)) {
    const Link* l = store.GetLink(lid);
    if (l == nullptr) continue;
    PROMETHEUS_ASSIGN_OR_RETURN(bool src_ok,
                                Satisfies(*view, store, l->source));
    if (!src_ok) continue;
    PROMETHEUS_ASSIGN_OR_RETURN(bool dst_ok,
                                Satisfies(*view, store, l->target));
    if (dst_ok) out.push_back(lid);
  }
  return out;
}

}  // namespace prometheus
