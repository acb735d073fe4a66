#include "views/view_manager.h"

#include <algorithm>

#include "query/parser.h"

namespace prometheus {

ViewManager::ViewManager(Database* db) : db_(db), engine_(db) {
  listener_ = db_->bus().Subscribe(
      [this](const Event& e) {
        OnEvent(e);
        return Status::Ok();
      },
      /*priority=*/45);
}

ViewManager::~ViewManager() { db_->bus().Unsubscribe(listener_); }

Status ViewManager::Define(const ViewDef& def) {
  return DefineInternal(def, /*materialized=*/false);
}

Status ViewManager::DefineMaterialized(const ViewDef& def) {
  return DefineInternal(def, /*materialized=*/true);
}

Status ViewManager::DefineInternal(const ViewDef& def, bool materialized) {
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
  view->materialized = materialized;
  if (!def.predicate.empty()) {
    auto parsed = pool::ParseExpression(def.predicate);
    if (!parsed.ok()) {
      return Status::ParseError("view '" + def.name + "' predicate: " +
                                parsed.status().message());
    }
    view->predicate = std::move(parsed).value();
  }
  if (materialized) {
    PROMETHEUS_ASSIGN_OR_RETURN(std::vector<Oid> candidates,
                                Candidates(*view));
    for (Oid oid : candidates) {
      PROMETHEUS_ASSIGN_OR_RETURN(bool pass, Satisfies(*view, oid));
      if (pass) view->members.insert(oid);
    }
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

ViewManager::CompiledView* ViewManager::FindMutable(const std::string& name) {
  for (auto& v : views_) {
    if (v->def.name == name) return v.get();
  }
  return nullptr;
}

Result<bool> ViewManager::Satisfies(const CompiledView& view, Oid oid) const {
  if (!view.def.class_name.empty() &&
      !ReadViewOf(*db_).IsInstanceOf(oid, view.def.class_name)) {
    return false;
  }
  if (view.predicate != nullptr) {
    pool::Environment env{{"self", Value::Ref(oid)}};
    PROMETHEUS_ASSIGN_OR_RETURN(Value v, engine_.Eval(*view.predicate, env));
    return v.type() == ValueType::kBool && v.AsBool();
  }
  return true;
}

bool ViewManager::IsMember(const CompiledView& view, Oid oid) const {
  const DbSnapshot& rv = ReadViewOf(*db_);
  if (rv.GetObject(oid) == nullptr) return false;
  if (view.def.context != kNullOid) {
    // Context views require current participation in the classification.
    bool participates = !rv.IncidentLinks(oid, Direction::kBoth, nullptr,
                                          view.def.context)
                             .empty();
    if (!participates) return false;
  }
  auto pass = Satisfies(view, oid);
  return pass.ok() && pass.value();
}

void ViewManager::RefreshMembership(CompiledView* view, Oid oid) {
  bool member = IsMember(*view, oid);
  bool present = view->members.count(oid) > 0;
  if (member == present) return;
  if (member) {
    view->members.insert(oid);
  } else {
    view->members.erase(oid);
  }
  ++maintenance_updates_;
}

void ViewManager::OnEvent(const Event& event) {
  bool any_materialized = false;
  for (const auto& v : views_) {
    if (v->materialized) {
      any_materialized = true;
      break;
    }
  }
  if (!any_materialized) return;
  switch (event.kind) {
    case EventKind::kAfterCreateObject:
    case EventKind::kAfterDeleteObject:
    case EventKind::kAfterSetAttribute:
      for (auto& v : views_) {
        if (v->materialized) RefreshMembership(v.get(), event.subject);
      }
      break;
    case EventKind::kAfterCreateLink:
    case EventKind::kAfterDeleteLink: {
      for (auto& v : views_) {
        if (!v->materialized) continue;
        if (v->def.context != kNullOid && v->def.context != event.context) {
          continue;
        }
        RefreshMembership(v.get(), event.source);
        RefreshMembership(v.get(), event.target);
      }
      break;
    }
    default:
      break;
  }
}

Result<std::vector<Oid>> ViewManager::Candidates(
    const CompiledView& view) const {
  const DbSnapshot& rv = ReadViewOf(*db_);
  std::vector<Oid> candidates;
  if (view.def.context != kNullOid) {
    std::unordered_set<Oid> seen;
    for (Oid lid : rv.LinksInContext(view.def.context)) {
      const Link* l = rv.GetLink(lid);
      if (l == nullptr) continue;
      if (seen.insert(l->source).second) candidates.push_back(l->source);
      if (seen.insert(l->target).second) candidates.push_back(l->target);
    }
  } else {
    candidates = rv.Extent(view.def.class_name);
  }
  return candidates;
}

Result<std::vector<Oid>> ViewManager::Evaluate(
    const std::string& name) const {
  const CompiledView* view = Find(name);
  if (view == nullptr) {
    return Status::NotFound("no view '" + name + "'");
  }
  if (view->materialized) {
    std::vector<Oid> out(view->members.begin(), view->members.end());
    std::sort(out.begin(), out.end());
    return out;
  }
  PROMETHEUS_ASSIGN_OR_RETURN(std::vector<Oid> candidates,
                              Candidates(*view));
  std::vector<Oid> out;
  for (Oid oid : candidates) {
    PROMETHEUS_ASSIGN_OR_RETURN(bool pass, Satisfies(*view, oid));
    if (pass) out.push_back(oid);
  }
  return out;
}

Result<std::vector<Oid>> ViewManager::EvaluateEdges(
    const std::string& name) const {
  const CompiledView* view = Find(name);
  if (view == nullptr) {
    return Status::NotFound("no view '" + name + "'");
  }
  if (view->def.context == kNullOid) {
    return Status::FailedPrecondition("view '" + name +
                                      "' has no classification context");
  }
  const DbSnapshot& rv = ReadViewOf(*db_);
  std::vector<Oid> out;
  for (Oid lid : rv.LinksInContext(view->def.context)) {
    const Link* l = rv.GetLink(lid);
    if (l == nullptr) continue;
    PROMETHEUS_ASSIGN_OR_RETURN(bool src_ok, Satisfies(*view, l->source));
    if (!src_ok) continue;
    PROMETHEUS_ASSIGN_OR_RETURN(bool dst_ok, Satisfies(*view, l->target));
    if (dst_ok) out.push_back(lid);
  }
  return out;
}

}  // namespace prometheus
