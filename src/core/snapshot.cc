#include "core/snapshot.h"

#include <deque>
#include <unordered_set>

#include "core/database.h"

namespace prometheus {

namespace mvcc::internal {
std::atomic<std::uint64_t> g_retained_versions{0};
std::atomic<std::uint64_t> g_live_snapshots{0};
}  // namespace mvcc::internal

DbSnapshot::DbSnapshot()
    : synonym_parent_(std::make_shared<const std::unordered_map<Oid, Oid>>()),
      schema_(std::make_shared<const SchemaTables>()) {}

// Every read algorithm is written once, here, against the store. Schema
// *children* walks go to the store's own `subclasses`/`subrels` tables.

const ClassDef* DbSnapshot::FindClass(std::string_view name) const {
  auto it = schema_->classes_by_name.find(std::string(name));
  return it == schema_->classes_by_name.end() ? nullptr : it->second;
}

const RelationshipDef* DbSnapshot::FindRelationship(
    std::string_view name) const {
  auto it = schema_->rels_by_name.find(std::string(name));
  return it == schema_->rels_by_name.end() ? nullptr : it->second;
}

const RelationshipTemplate* DbSnapshot::FindTemplate(
    std::string_view name) const {
  auto it = schema_->templates.find(std::string(name));
  return it == schema_->templates.end() ? nullptr : &it->second;
}

const std::vector<MethodDef>& DbSnapshot::MethodsOf(
    const ClassDef* cls) const {
  static const std::vector<MethodDef> kNone;
  auto it = schema_->methods.find(cls);
  return it == schema_->methods.end() ? kNone : it->second;
}

const MethodDef* DbSnapshot::FindMethod(const ClassDef* cls,
                                        std::string_view name) const {
  for (const MethodDef& m : MethodsOf(cls)) {
    if (m.name == name) return &m;
  }
  for (const ClassDef* s : cls->supers()) {
    if (const MethodDef* m = FindMethod(s, name)) return m;
  }
  return nullptr;
}

Result<Value> DbSnapshot::GetAttribute(Oid oid,
                                       const std::string& name) const {
  const Object* obj = GetObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("no object @" + std::to_string(oid));
  }
  auto it = obj->attrs.find(name);
  if (it != obj->attrs.end()) return it->second;
  // Attribute inheritance over incoming links (thesis 4.4.5).
  for (Oid lid : obj->in_links) {
    const Link* link = GetLink(lid);
    if (link == nullptr || !link->def->semantics().inherit_attributes) {
      continue;
    }
    if (link->def->FindAttribute(name) != nullptr) {
      auto ait = link->attrs.find(name);
      if (ait != link->attrs.end()) return ait->second;
      return Value::Null();
    }
  }
  return Status::NotFound("object @" + std::to_string(oid) +
                          " has no attribute '" + name + "'");
}

bool DbSnapshot::IsInstanceOf(Oid oid, std::string_view class_name) const {
  const Object* obj = GetObject(oid);
  if (obj == nullptr) return false;
  const ClassDef* cls = FindClass(class_name);
  return cls != nullptr && obj->cls->IsSubclassOf(cls);
}

const std::vector<const ClassDef*>& DbSnapshot::SubclassesOf(
    const ClassDef* cls) const {
  static const std::vector<const ClassDef*> kNone;
  auto it = schema_->subclasses.find(cls);
  return it == schema_->subclasses.end() ? kNone : it->second;
}

std::vector<Oid> DbSnapshot::Extent(const std::string& class_name,
                                    bool include_subclasses) const {
  const ClassDef* cls = FindClass(class_name);
  if (cls == nullptr) return {};
  std::vector<Oid> out;
  std::deque<const ClassDef*> work{cls};
  while (!work.empty()) {
    const ClassDef* c = work.front();
    work.pop_front();
    auto it = extents_.find(c);
    if (it != extents_.end()) {
      out.insert(out.end(), it->second->begin(), it->second->end());
    }
    if (include_subclasses) {
      for (const ClassDef* sub : SubclassesOf(c)) work.push_back(sub);
    }
  }
  return out;
}

Result<Value> DbSnapshot::GetLinkAttribute(Oid oid,
                                           const std::string& name) const {
  const Link* link = GetLink(oid);
  if (link == nullptr) {
    return Status::NotFound("no link @" + std::to_string(oid));
  }
  auto it = link->attrs.find(name);
  if (it == link->attrs.end()) {
    return Status::NotFound("relationship '" + link->def->name() +
                            "' has no attribute '" + name + "'");
  }
  return it->second;
}

std::vector<Oid> DbSnapshot::LinkExtent(const std::string& rel_name,
                                        bool include_subrelationships) const {
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) return {};
  std::vector<Oid> out;
  std::deque<const RelationshipDef*> work{def};
  while (!work.empty()) {
    const RelationshipDef* d = work.front();
    work.pop_front();
    auto it = link_extents_.find(d);
    if (it != link_extents_.end()) {
      out.insert(out.end(), it->second->begin(), it->second->end());
    }
    if (include_subrelationships) {
      auto subs = schema_->subrels.find(d);
      if (subs != schema_->subrels.end()) {
        for (const RelationshipDef* sub : subs->second) work.push_back(sub);
      }
    }
  }
  return out;
}

const std::vector<Oid>& DbSnapshot::LinksInContext(Oid context) const {
  static const std::vector<Oid> kEmpty;
  auto it = context_index_.find(context);
  return it == context_index_.end() ? kEmpty : *it->second;
}

std::vector<Oid> DbSnapshot::IncidentLinks(Oid oid, Direction dir,
                                           const RelationshipDef* def,
                                           Oid context) const {
  const Object* obj = GetObject(oid);
  if (obj == nullptr) return {};
  std::vector<Oid> out;
  auto consider = [&](const std::vector<Oid>& side) {
    for (Oid lid : side) {
      const Link* link = GetLink(lid);
      if (link == nullptr) continue;
      if (def != nullptr && !link->def->IsSubrelationshipOf(def)) continue;
      if (context != kNullOid && link->context != context) continue;
      out.push_back(lid);
    }
  };
  bool want_out = dir != Direction::kIn;
  bool want_in = dir != Direction::kOut;
  if (def != nullptr && !def->semantics().directed) {
    want_out = want_in = true;
  }
  if (want_out) consider(obj->out_links);
  if (want_in) consider(obj->in_links);
  return out;
}

std::vector<Oid> DbSnapshot::Neighbors(Oid oid, const std::string& rel_name,
                                       Direction dir, Oid context) const {
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) return {};
  std::vector<Oid> out;
  for (Oid lid : IncidentLinks(oid, dir, def, context)) {
    const Link* link = GetLink(lid);
    out.push_back(link->source == oid ? link->target : link->source);
  }
  return out;
}

Result<std::vector<Oid>> DbSnapshot::Traverse(Oid start,
                                              const std::string& rel_name,
                                              std::uint32_t min_depth,
                                              std::uint32_t max_depth,
                                              Direction dir,
                                              Oid context) const {
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) {
    return Status::NotFound("unknown relationship '" + rel_name + "'");
  }
  if (GetObject(start) == nullptr) {
    return Status::NotFound("no object @" + std::to_string(start));
  }
  if (max_depth != 0 && min_depth > max_depth) {
    return Status::InvalidArgument("min_depth exceeds max_depth");
  }
  std::vector<Oid> result;
  std::unordered_set<Oid> visited{start};
  std::deque<std::pair<Oid, std::uint32_t>> frontier{{start, 0}};
  if (min_depth == 0) result.push_back(start);
  while (!frontier.empty()) {
    auto [oid, depth] = frontier.front();
    frontier.pop_front();
    if (max_depth != 0 && depth == max_depth) continue;
    for (Oid next : Neighbors(oid, rel_name, dir, context)) {
      if (!visited.insert(next).second) continue;
      std::uint32_t d = depth + 1;
      if (d >= min_depth) result.push_back(next);
      frontier.emplace_back(next, d);
    }
  }
  return result;
}

Oid DbSnapshot::CanonicalOf(Oid oid) const {
  Oid cur = oid;
  for (;;) {
    auto it = synonym_parent_->find(cur);
    if (it == synonym_parent_->end()) return cur;
    cur = it->second;
  }
}

bool DbSnapshot::AreSynonyms(Oid a, Oid b) const {
  return CanonicalOf(a) == CanonicalOf(b);
}

std::vector<Oid> DbSnapshot::SynonymSet(Oid oid) const {
  Oid root = CanonicalOf(oid);
  std::vector<Oid> out;
  if (GetObject(root) != nullptr) out.push_back(root);
  for (const auto& [child, parent] : *synonym_parent_) {
    (void)parent;
    if (child != root && CanonicalOf(child) == root &&
        GetObject(child) != nullptr) {
      out.push_back(child);
    }
  }
  return out;
}

const AttributeIndex* DbSnapshot::FindIndex(const void* owner,
                                            const ClassDef* cls,
                                            std::string_view attr) const {
  for (const auto& ix : indexes_) {
    if (ix->owner() == owner && ix->cls() == cls && ix->attr() == attr) {
      return ix.get();
    }
  }
  return nullptr;
}

void SnapshotHandle::Release() {
  if (db_ != nullptr && snap_ != nullptr) {
    Database* db = db_;
    const std::uint64_t epoch = snap_->epoch();
    db_ = nullptr;
    snap_.reset();  // may free this pin's versions before the unpin books it
    db->ReleasePin(epoch);
  } else {
    db_ = nullptr;
    snap_.reset();
  }
}

}  // namespace prometheus
