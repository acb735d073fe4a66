#include "core/database.h"

#include <algorithm>
#include <unordered_set>

#include "obs/metrics.h"

namespace prometheus {

namespace {

/// Cached gauge pointers mirroring the always-on mvcc counters into the
/// metrics registry (registration is get-or-create and mutex-protected, so
/// resolve once).
struct MvccGauges {
  obs::Gauge* retained;
  obs::Gauge* live;
  obs::Gauge* pinned;
  obs::Gauge* oldest;

  static const MvccGauges& Get() {
    static const MvccGauges g{
        obs::Registry().GetGauge(
            "mvcc_retained_versions",
            "Object/link versions alive in the store and its snapshots"),
        obs::Registry().GetGauge("mvcc_live_snapshots",
                                 "Published snapshots currently alive"),
        obs::Registry().GetGauge("mvcc_pinned_snapshots",
                                 "Snapshot handles currently pinned"),
        obs::Registry().GetGauge(
            "mvcc_oldest_snapshot_epoch",
            "GC watermark: oldest epoch a pinned snapshot still reads"),
    };
    return g;
  }
};

/// Type-checks `value` against an attribute declaration. Null is always
/// accepted (absent optional value).
Status CheckValueType(const AttributeDef& def, const Value& value) {
  if (value.is_null() || def.type == ValueType::kNull) return Status::Ok();
  if (value.type() == def.type) return Status::Ok();
  // Ints are acceptable where doubles are declared.
  if (def.type == ValueType::kDouble && value.type() == ValueType::kInt) {
    return Status::Ok();
  }
  return Status::TypeError("attribute '" + def.name + "' expects " +
                           ValueTypeName(def.type) + ", got " +
                           ValueTypeName(value.type()));
}

}  // namespace

/// One entry of the transaction undo log. Entries are applied in reverse
/// order by Abort(); each restores the state from just before its mutation.
struct Database::UndoRecord {
  enum class Kind {
    kCreateObject,
    kDeleteObject,
    kSetAttribute,
    kCreateLink,
    kDeleteLink,
    kSetLinkAttribute,
    kDeclareSynonym,
  };

  Kind kind;
  Oid oid = kNullOid;
  std::string name;
  Value old_value;
  std::shared_ptr<const Object> object_snapshot;
  std::shared_ptr<const Link> link_snapshot;
};

Database::Database() { store_.live_epoch_ = &epoch_; }
Database::~Database() = default;

const DbSnapshot& ReadViewOf(const Database& db) {
  const DbSnapshot* view = CurrentReadView();
  return view != nullptr ? *view : db.live_store();
}

// ------------------------------------------------------------------ schema

Result<const ClassDef*> Database::DefineClass(
    const std::string& name, const std::vector<std::string>& supers,
    std::vector<AttributeDef> attributes, bool is_abstract) {
  BeginMutation();
  if (name.empty()) {
    return Status::InvalidArgument("class name must not be empty");
  }
  if (FindClass(name) != nullptr || FindRelationship(name) != nullptr) {
    return Status::InvalidArgument("name '" + name + "' already defined");
  }
  std::vector<const ClassDef*> super_defs;
  for (const std::string& s : supers) {
    const ClassDef* sd = FindClass(s);
    if (sd == nullptr) {
      return Status::NotFound("unknown super-class '" + s + "'");
    }
    super_defs.push_back(sd);
  }
  auto cls = std::make_shared<ClassDef>(name, is_abstract);
  cls->supers_ = super_defs;
  for (AttributeDef& a : attributes) {
    if (a.name.empty()) {
      return Status::InvalidArgument("attribute name must not be empty");
    }
    for (const ClassDef* s : super_defs) {
      if (s->FindAttribute(a.name) != nullptr) {
        return Status::InvalidArgument("attribute '" + a.name +
                                       "' collides with inherited attribute");
      }
    }
    for (const AttributeDef& prev : cls->attributes_) {
      if (prev.name == a.name) {
        return Status::InvalidArgument("duplicate attribute '" + a.name +
                                       "'");
      }
    }
    PROMETHEUS_RETURN_IF_ERROR(CheckValueType(a, a.default_value));
    cls->attributes_.push_back(std::move(a));
  }
  ClassDef* raw = cls.get();
  SchemaTables& schema = MutableSchema();
  for (const ClassDef* s : super_defs) {
    const_cast<ClassDef*>(s)->subclasses_.push_back(raw);
    schema.subclasses[s].push_back(raw);
  }
  schema.classes_by_name[name] = raw;
  schema.classes_in_order.push_back(raw);
  schema.class_keep_alive.push_back(std::move(cls));
  Event ddl(EventKind::kAfterDefineClass);
  ddl.type_name = name;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(ddl));
  return static_cast<const ClassDef*>(raw);
}

Result<const RelationshipDef*> Database::DefineRelationship(
    const std::string& name, const std::string& source_class,
    const std::string& target_class, RelationshipSemantics semantics,
    std::vector<AttributeDef> link_attributes,
    const std::vector<std::string>& supers) {
  BeginMutation();
  if (name.empty()) {
    return Status::InvalidArgument("relationship name must not be empty");
  }
  if (FindClass(name) != nullptr || FindRelationship(name) != nullptr) {
    return Status::InvalidArgument("name '" + name + "' already defined");
  }
  const ClassDef* src = FindClass(source_class);
  if (src == nullptr) {
    return Status::NotFound("unknown source class '" + source_class + "'");
  }
  const ClassDef* dst = FindClass(target_class);
  if (dst == nullptr) {
    return Status::NotFound("unknown target class '" + target_class + "'");
  }
  // Table 3 of the thesis: not every combination of behaviours is
  // meaningful — reject the contradictory ones at definition time.
  if (semantics.max_out != kUnboundedCard &&
      semantics.min_out > semantics.max_out) {
    return Status::InvalidArgument("relationship '" + name +
                                   "': min_out exceeds max_out");
  }
  if (semantics.max_in != kUnboundedCard &&
      semantics.min_in > semantics.max_in) {
    return Status::InvalidArgument("relationship '" + name +
                                   "': min_in exceeds max_in");
  }
  if (!semantics.directed && semantics.inherit_attributes) {
    return Status::InvalidArgument(
        "relationship '" + name +
        "': attribute inheritance flows along the link direction and "
        "requires a directed relationship");
  }
  if (!semantics.directed && semantics.lifetime_dependent) {
    return Status::InvalidArgument(
        "relationship '" + name +
        "': lifetime dependency (whole deletes part) requires a directed "
        "relationship");
  }
  if (semantics.exclusive && semantics.exclusivity_group.empty()) {
    semantics.exclusivity_group = name;
  }
  std::vector<const RelationshipDef*> super_defs;
  for (const std::string& s : supers) {
    const RelationshipDef* sd = FindRelationship(s);
    if (sd == nullptr) {
      return Status::NotFound("unknown super-relationship '" + s + "'");
    }
    // Covariance: the refined relationship must relate refined classes.
    if (!src->IsSubclassOf(sd->source_class()) ||
        !dst->IsSubclassOf(sd->target_class())) {
      return Status::InvalidArgument(
          "relationship '" + name +
          "' does not covariantly refine super-relationship '" + s + "'");
    }
    super_defs.push_back(sd);
  }
  auto rel = std::make_shared<RelationshipDef>(name, src, dst,
                                               std::move(semantics));
  rel->supers_ = super_defs;
  for (AttributeDef& a : link_attributes) {
    if (a.name.empty()) {
      return Status::InvalidArgument("attribute name must not be empty");
    }
    PROMETHEUS_RETURN_IF_ERROR(CheckValueType(a, a.default_value));
    rel->attributes_.push_back(std::move(a));
  }
  RelationshipDef* raw = rel.get();
  SchemaTables& schema = MutableSchema();
  for (const RelationshipDef* s : super_defs) {
    const_cast<RelationshipDef*>(s)->subs_.push_back(raw);
    schema.subrels[s].push_back(raw);
  }
  schema.rels_by_name[name] = raw;
  schema.rels_in_order.push_back(raw);
  schema.rel_keep_alive.push_back(std::move(rel));
  Event ddl(EventKind::kAfterDefineRelationship);
  ddl.type_name = name;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(ddl));
  return static_cast<const RelationshipDef*>(raw);
}

Status Database::DefineMethod(const std::string& class_name,
                              MethodDef method) {
  BeginMutation();
  auto* cls = const_cast<ClassDef*>(FindClass(class_name));
  if (cls == nullptr) {
    return Status::NotFound("unknown class '" + class_name + "'");
  }
  if (method.name.empty()) {
    return Status::InvalidArgument("method name must not be empty");
  }
  if (cls->FindMethod(method.name) != nullptr) {
    return Status::InvalidArgument("method '" + method.name +
                                   "' already declared");
  }
  cls->methods_.push_back(std::move(method));
  return Status::Ok();
}

Status Database::DefineRelationshipTemplate(
    const std::string& name, RelationshipSemantics semantics,
    std::vector<AttributeDef> link_attributes) {
  AssertExclusiveAccess();
  if (name.empty()) {
    return Status::InvalidArgument("template name must not be empty");
  }
  if (rel_templates_.count(name)) {
    return Status::InvalidArgument("template '" + name +
                                   "' already defined");
  }
  rel_templates_[name] =
      RelationshipTemplate{std::move(semantics), std::move(link_attributes)};
  rel_template_order_.push_back(name);
  Event ddl(EventKind::kAfterDefineTemplate);
  ddl.type_name = name;
  return PublishEvent(ddl);
}

Result<const RelationshipDef*> Database::InstantiateRelationship(
    const std::string& template_name, const std::string& rel_name,
    const std::string& source_class, const std::string& target_class) {
  AssertExclusiveAccess();
  auto it = rel_templates_.find(template_name);
  if (it == rel_templates_.end()) {
    return Status::NotFound("unknown relationship template '" +
                            template_name + "'");
  }
  return DefineRelationship(rel_name, source_class, target_class,
                            it->second.semantics, it->second.attributes);
}

std::vector<std::string> Database::relationship_templates() const {
  return rel_template_order_;
}

const RelationshipSemantics* Database::FindTemplateSemantics(
    const std::string& name) const {
  auto it = rel_templates_.find(name);
  return it == rel_templates_.end() ? nullptr : &it->second.semantics;
}

const std::vector<AttributeDef>* Database::FindTemplateAttributes(
    const std::string& name) const {
  auto it = rel_templates_.find(name);
  return it == rel_templates_.end() ? nullptr : &it->second.attributes;
}

// --------------------------------------------------------------- internals

Object* Database::MutableObject(Oid oid) {
  return store_.objects_.Mutable(
      oid, [](const Object& o) { return mvcc::MakeVersion(o); });
}

Link* Database::MutableLink(Oid oid) {
  return store_.links_.Mutable(
      oid, [](const Link& l) { return mvcc::MakeVersion(l); });
}

Status Database::PublishEvent(const Event& event) {
  if (!events_enabled_) return Status::Ok();
  return bus_.Publish(event);
}

void Database::RecordUndo(UndoRecord record) {
  undo_log_.push_back(std::move(record));
}

namespace {

/// Swap-removes `pos` from `v`; returns the oid moved into `pos`, or
/// kNullOid when `pos` was the last slot.
Oid SwapRemove(std::vector<Oid>& v, std::size_t pos) {
  v[pos] = v.back();
  v.pop_back();
  return pos < v.size() ? v[pos] : kNullOid;
}

}  // namespace

void Database::InsertObject(std::shared_ptr<const Object> version) {
  const Oid oid = version->oid;
  store_.objects_.Set(oid, std::move(version));
  Object* obj = MutableObject(oid);
  std::vector<Oid>& extent = mvcc::Writable(store_.extents_[obj->cls]);
  obj->extent_pos = extent.size();
  extent.push_back(oid);
  ++store_.live_objects_;
}

std::shared_ptr<const Object> Database::EraseObject(Oid oid) {
  const Object& obj = *GetObject(oid);
  const Oid moved =
      SwapRemove(mvcc::Writable(store_.extents_[obj.cls]), obj.extent_pos);
  if (moved != kNullOid) MutableObject(moved)->extent_pos = obj.extent_pos;
  --store_.live_objects_;
  return store_.objects_.Erase(oid);
}

void Database::InsertLink(std::shared_ptr<const Link> version) {
  const Oid oid = version->oid;
  store_.links_.Set(oid, std::move(version));
  Link* link = MutableLink(oid);
  AttachLinkToEndpoints(*link);
  std::vector<Oid>& extent = mvcc::Writable(store_.link_extents_[link->def]);
  link->extent_pos = extent.size();
  extent.push_back(oid);
  if (link->context != kNullOid) {
    std::vector<Oid>& bucket =
        mvcc::Writable(store_.context_index_[link->context]);
    link->ctx_pos = bucket.size();
    bucket.push_back(oid);
  }
  ++store_.live_links_;
}

std::shared_ptr<const Link> Database::EraseLink(Oid oid) {
  const Link& link = *GetLink(oid);
  DetachLinkFromEndpoints(link);
  Oid moved = SwapRemove(mvcc::Writable(store_.link_extents_[link.def]),
                         link.extent_pos);
  if (moved != kNullOid) MutableLink(moved)->extent_pos = link.extent_pos;
  if (link.context != kNullOid) {
    moved = SwapRemove(mvcc::Writable(store_.context_index_[link.context]),
                       link.ctx_pos);
    if (moved != kNullOid) MutableLink(moved)->ctx_pos = link.ctx_pos;
  }
  --store_.live_links_;
  return store_.links_.Erase(oid);
}

void Database::DetachLinkFromEndpoints(const Link& link) {
  if (Object* src = MutableObject(link.source)) {
    auto& v = src->out_links;
    v.erase(std::remove(v.begin(), v.end(), link.oid), v.end());
  }
  if (Object* dst = MutableObject(link.target)) {
    auto& v = dst->in_links;
    v.erase(std::remove(v.begin(), v.end(), link.oid), v.end());
  }
}

void Database::AttachLinkToEndpoints(const Link& link) {
  if (Object* src = MutableObject(link.source)) {
    src->out_links.push_back(link.oid);
  }
  if (Object* dst = MutableObject(link.target)) {
    dst->in_links.push_back(link.oid);
  }
}

// ----------------------------------------------------------------- objects

Result<Oid> Database::CreateObject(const std::string& class_name,
                                   std::vector<AttrInit> inits) {
  BeginMutation();
  const ClassDef* cls = FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown class '" + class_name + "'");
  }
  if (cls->is_abstract()) {
    return Status::InvalidArgument("class '" + class_name + "' is abstract");
  }
  Oid oid = next_oid_++;

  Event before{EventKind::kBeforeCreateObject};
  before.subject = oid;
  before.type_name = cls->name();
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  Object obj;
  obj.oid = oid;
  obj.cls = cls;
  std::vector<const AttributeDef*> all_attrs;
  cls->CollectAttributes(&all_attrs);
  for (const AttributeDef* a : all_attrs) {
    obj.attrs[a->name] = a->default_value;
  }
  for (AttrInit& init : inits) {
    const AttributeDef* a = cls->FindAttribute(init.first);
    if (a == nullptr) {
      return Status::NotFound("class '" + class_name + "' has no attribute '" +
                              init.first + "'");
    }
    PROMETHEUS_RETURN_IF_ERROR(CheckValueType(*a, init.second));
    obj.attrs[init.first] = std::move(init.second);
  }
  InsertObject(mvcc::MakeVersion(std::move(obj)));

  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kCreateObject;
  undo.oid = oid;
  RecordUndo(std::move(undo));

  Event after = before;
  after.kind = EventKind::kAfterCreateObject;
  Status violation = PublishEvent(after);
  if (!in_transaction_) {
    if (violation.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
      return violation;
    }
  } else if (!violation.ok()) {
    return violation;
  }
  return oid;
}

Status Database::DeleteObject(Oid oid) {
  BeginMutation();
  const Object* obj = GetObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("no object @" + std::to_string(oid));
  }
  Event before{EventKind::kBeforeDeleteObject};
  before.subject = oid;
  before.type_name = obj->cls->name();
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  std::vector<Oid> cascade;
  Status st = DeleteObjectInternal(oid, &cascade);
  // Lifetime-dependent targets die with their whole (thesis 4.4.3).
  std::unordered_set<Oid> seen;
  while (st.ok() && !cascade.empty()) {
    Oid next = cascade.back();
    cascade.pop_back();
    if (!seen.insert(next).second) continue;
    if (GetObject(next) == nullptr) continue;  // already gone
    st = DeleteObjectInternal(next, &cascade);
  }
  if (!in_transaction_) {
    if (st.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
    }
  }
  return st;
}

Status Database::DeleteObjectInternal(Oid oid, std::vector<Oid>* cascade) {
  const Object* obj = GetObject(oid);
  if (obj == nullptr) return Status::Ok();

  // Remove incident links first. Participant death always removes the link,
  // even for constant relationships.
  std::vector<Oid> incident = obj->out_links;
  incident.insert(incident.end(), obj->in_links.begin(), obj->in_links.end());
  for (Oid lid : incident) {
    const Link* link = GetLink(lid);
    if (link == nullptr) continue;
    if (link->source == oid && link->def->semantics().lifetime_dependent) {
      cascade->push_back(link->target);
    }
    PROMETHEUS_RETURN_IF_ERROR(DeleteLinkInternal(lid));
  }

  // Detaching the links edited the record and may have copied it away
  // from `obj`: fetch it again.
  obj = GetObject(oid);
  Event after{EventKind::kAfterDeleteObject};
  after.subject = oid;
  after.type_name = obj->cls->name();

  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kDeleteObject;
  undo.oid = oid;
  undo.object_snapshot = EraseObject(oid);
  RecordUndo(std::move(undo));

  return PublishEvent(after);
}

Status Database::SetAttribute(Oid oid, const std::string& name, Value value) {
  BeginMutation();
  const Object* obj = GetObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("no object @" + std::to_string(oid));
  }
  const AttributeDef* attr = obj->cls->FindAttribute(name);
  if (attr == nullptr) {
    return Status::NotFound("class '" + obj->cls->name() +
                            "' has no attribute '" + name + "'");
  }
  PROMETHEUS_RETURN_IF_ERROR(CheckValueType(*attr, value));
  if (semantics_enabled_ && !attr->ref_class.empty() &&
      value.type() == ValueType::kRef) {
    if (!IsInstanceOf(value.AsRef(), attr->ref_class)) {
      return Status::TypeError("attribute '" + name + "' must reference a " +
                               attr->ref_class);
    }
  }
  auto current = obj->attrs.find(name);
  Value old = current == obj->attrs.end() ? Value() : current->second;

  Event before{EventKind::kBeforeSetAttribute};
  before.subject = oid;
  before.type_name = obj->cls->name();
  before.attribute = name;
  before.old_value = old;
  before.new_value = value;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  // Copy-on-write only now, after the before-rules ran: `obj` may be a
  // version a published snapshot shares.
  MutableObject(oid)->attrs[name] = std::move(value);
  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kSetAttribute;
  undo.oid = oid;
  undo.name = name;
  undo.old_value = std::move(old);
  RecordUndo(std::move(undo));

  Event after = before;
  after.kind = EventKind::kAfterSetAttribute;
  Status violation = PublishEvent(after);
  if (!in_transaction_) {
    if (violation.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
      return violation;
    }
  } else if (!violation.ok()) {
    return violation;
  }
  return Status::Ok();
}

// ------------------------------------------------------------------- links

Status Database::CheckLinkSemantics(const RelationshipDef* def,
                                    const Object& source,
                                    const Object& target) const {
  const RelationshipSemantics& sem = def->semantics();
  // Cardinality maxima.
  if (sem.max_out != kUnboundedCard) {
    std::uint32_t n = 0;
    for (Oid lid : source.out_links) {
      const Link* l = GetLink(lid);
      if (l != nullptr && l->def->IsSubrelationshipOf(def)) ++n;
    }
    if (n >= sem.max_out) {
      return Status::ConstraintViolation(
          "cardinality: source @" + std::to_string(source.oid) +
          " already has " + std::to_string(n) + " '" + def->name() +
          "' links (max " + std::to_string(sem.max_out) + ")");
    }
  }
  if (sem.max_in != kUnboundedCard) {
    std::uint32_t n = 0;
    for (Oid lid : target.in_links) {
      const Link* l = GetLink(lid);
      if (l != nullptr && l->def->IsSubrelationshipOf(def)) ++n;
    }
    if (n >= sem.max_in) {
      return Status::ConstraintViolation(
          "cardinality: target @" + std::to_string(target.oid) +
          " already has " + std::to_string(n) + " '" + def->name() +
          "' links (max " + std::to_string(sem.max_in) + ")");
    }
  }
  // Exclusivity across the group (figure 15).
  if (sem.exclusive) {
    for (Oid lid : target.in_links) {
      const Link* l = GetLink(lid);
      if (l == nullptr) continue;
      const RelationshipSemantics& other = l->def->semantics();
      if (other.exclusive &&
          other.exclusivity_group == sem.exclusivity_group) {
        return Status::ConstraintViolation(
            "exclusivity: target @" + std::to_string(target.oid) +
            " already participates in exclusive group '" +
            sem.exclusivity_group + "' via '" + l->def->name() + "'");
      }
    }
  }
  // Sharability (figure 16).
  if (!sem.shareable) {
    for (Oid lid : target.in_links) {
      const Link* l = GetLink(lid);
      if (l != nullptr && l->def->IsSubrelationshipOf(def)) {
        return Status::ConstraintViolation(
            "sharability: target @" + std::to_string(target.oid) +
            " is an unshared component of '" + def->name() + "'");
      }
    }
  }
  return Status::Ok();
}

Result<Oid> Database::CreateLink(const std::string& rel_name, Oid source,
                                 Oid target, Oid context,
                                 std::vector<AttrInit> inits) {
  BeginMutation();
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) {
    return Status::NotFound("unknown relationship '" + rel_name + "'");
  }
  const Object* src = GetObject(source);
  if (src == nullptr) {
    return Status::NotFound("no source object @" + std::to_string(source));
  }
  const Object* dst = GetObject(target);
  if (dst == nullptr) {
    return Status::NotFound("no target object @" + std::to_string(target));
  }
  if (semantics_enabled_) {
    if (!src->cls->IsSubclassOf(def->source_class())) {
      return Status::TypeError("source @" + std::to_string(source) + " (" +
                               src->cls->name() + ") is not a " +
                               def->source_class()->name());
    }
    if (!dst->cls->IsSubclassOf(def->target_class())) {
      return Status::TypeError("target @" + std::to_string(target) + " (" +
                               dst->cls->name() + ") is not a " +
                               def->target_class()->name());
    }
    PROMETHEUS_RETURN_IF_ERROR(CheckLinkSemantics(def, *src, *dst));
    if (context != kNullOid && GetObject(context) == nullptr) {
      return Status::NotFound("no context object @" +
                              std::to_string(context));
    }
  }
  Oid oid = next_oid_++;

  Event before{EventKind::kBeforeCreateLink};
  before.subject = oid;
  before.type_name = def->name();
  before.source = source;
  before.target = target;
  before.context = context;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  Link link;
  link.oid = oid;
  link.def = def;
  link.source = source;
  link.target = target;
  link.context = context;
  std::vector<const AttributeDef*> all_attrs;
  def->CollectAttributes(&all_attrs);
  for (const AttributeDef* a : all_attrs) {
    link.attrs[a->name] = a->default_value;
  }
  for (AttrInit& init : inits) {
    const AttributeDef* a = def->FindAttribute(init.first);
    if (a == nullptr) {
      return Status::NotFound("relationship '" + rel_name +
                              "' has no attribute '" + init.first + "'");
    }
    PROMETHEUS_RETURN_IF_ERROR(CheckValueType(*a, init.second));
    link.attrs[init.first] = std::move(init.second);
  }
  InsertLink(mvcc::MakeVersion(std::move(link)));

  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kCreateLink;
  undo.oid = oid;
  RecordUndo(std::move(undo));

  Event after = before;
  after.kind = EventKind::kAfterCreateLink;
  Status violation = PublishEvent(after);
  if (!in_transaction_) {
    if (violation.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
      return violation;
    }
  } else if (!violation.ok()) {
    return violation;
  }
  return oid;
}

Status Database::DeleteLink(Oid oid) {
  BeginMutation();
  const Link* link = GetLink(oid);
  if (link == nullptr) {
    return Status::NotFound("no link @" + std::to_string(oid));
  }
  if (semantics_enabled_ && link->def->semantics().constant) {
    return Status::ConstraintViolation("link @" + std::to_string(oid) +
                                       " of constant relationship '" +
                                       link->def->name() +
                                       "' cannot be deleted");
  }
  Status st = DeleteLinkInternal(oid);
  if (!in_transaction_) {
    if (st.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
    }
  }
  return st;
}

Status Database::DeleteLinkInternal(Oid oid) {
  // Constancy is checked by the public entry point: participant death
  // removes links of constant relationships too.
  const Link* link = GetLink(oid);
  if (link == nullptr) return Status::Ok();

  Event before{EventKind::kBeforeDeleteLink};
  before.subject = oid;
  before.type_name = link->def->name();
  before.source = link->source;
  before.target = link->target;
  before.context = link->context;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  Event after = before;
  after.kind = EventKind::kAfterDeleteLink;

  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kDeleteLink;
  undo.oid = oid;
  undo.link_snapshot = EraseLink(oid);
  RecordUndo(std::move(undo));

  return PublishEvent(after);
}

Status Database::SetLinkAttribute(Oid oid, const std::string& name,
                                  Value value) {
  BeginMutation();
  const Link* link = GetLink(oid);
  if (link == nullptr) {
    return Status::NotFound("no link @" + std::to_string(oid));
  }
  if (semantics_enabled_ && link->def->semantics().constant) {
    return Status::ConstraintViolation("link @" + std::to_string(oid) +
                                       " of constant relationship '" +
                                       link->def->name() +
                                       "' cannot be modified");
  }
  const AttributeDef* attr = link->def->FindAttribute(name);
  if (attr == nullptr) {
    return Status::NotFound("relationship '" + link->def->name() +
                            "' has no attribute '" + name + "'");
  }
  PROMETHEUS_RETURN_IF_ERROR(CheckValueType(*attr, value));
  auto current = link->attrs.find(name);
  Value old = current == link->attrs.end() ? Value() : current->second;

  Event before{EventKind::kBeforeSetLinkAttribute};
  before.subject = oid;
  before.type_name = link->def->name();
  before.source = link->source;
  before.target = link->target;
  before.context = link->context;
  before.attribute = name;
  before.old_value = old;
  before.new_value = value;
  PROMETHEUS_RETURN_IF_ERROR(PublishEvent(before));

  MutableLink(oid)->attrs[name] = std::move(value);
  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kSetLinkAttribute;
  undo.oid = oid;
  undo.name = name;
  undo.old_value = std::move(old);
  RecordUndo(std::move(undo));

  Event after = before;
  after.kind = EventKind::kAfterSetLinkAttribute;
  Status violation = PublishEvent(after);
  if (!in_transaction_) {
    if (violation.ok()) {
      undo_log_.clear();
    } else {
      UndoAll();
      return violation;
    }
  } else if (!violation.ok()) {
    return violation;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- synonyms

Status Database::DeclareSynonym(Oid a, Oid b) {
  BeginMutation();
  if (GetObject(a) == nullptr || GetObject(b) == nullptr) {
    return Status::NotFound("synonym declaration requires two live objects");
  }
  Oid ra = CanonicalOf(a);
  Oid rb = CanonicalOf(b);
  if (ra == rb) return Status::Ok();
  // Attach the larger oid's root under the smaller so the canonical
  // representative is deterministic (the oldest object).
  if (rb < ra) std::swap(ra, rb);
  mvcc::Writable(store_.synonym_parent_)[rb] = ra;
  UndoRecord undo{};
  undo.kind = UndoRecord::Kind::kDeclareSynonym;
  undo.oid = rb;
  RecordUndo(std::move(undo));
  Event after(EventKind::kAfterDeclareSynonym);
  after.source = ra;
  after.target = rb;
  PublishEvent(after);
  if (!in_transaction_) undo_log_.clear();
  return Status::Ok();
}

// ------------------------------------------------------ storage substrate

Status Database::RestoreObjectRaw(Oid oid, const std::string& class_name,
                                  std::vector<AttrInit> attrs) {
  BeginMutation();
  if (in_transaction_) {
    return Status::FailedPrecondition(
        "raw restore is not valid inside a transaction");
  }
  if (oid == kNullOid || GetObject(oid) != nullptr ||
      GetLink(oid) != nullptr) {
    return Status::InvalidArgument("oid @" + std::to_string(oid) +
                                   " is unavailable");
  }
  const ClassDef* cls = FindClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("unknown class '" + class_name + "'");
  }
  Object obj;
  obj.oid = oid;
  obj.cls = cls;
  for (AttrInit& a : attrs) obj.attrs[a.first] = std::move(a.second);
  InsertObject(mvcc::MakeVersion(std::move(obj)));
  EnsureNextOidAbove(oid);
  return Status::Ok();
}

Status Database::RestoreLinkRaw(Oid oid, const std::string& rel_name,
                                Oid source, Oid target, Oid context,
                                std::vector<AttrInit> attrs) {
  BeginMutation();
  if (in_transaction_) {
    return Status::FailedPrecondition(
        "raw restore is not valid inside a transaction");
  }
  if (oid == kNullOid || GetObject(oid) != nullptr ||
      GetLink(oid) != nullptr) {
    return Status::InvalidArgument("oid @" + std::to_string(oid) +
                                   " is unavailable");
  }
  const RelationshipDef* def = FindRelationship(rel_name);
  if (def == nullptr) {
    return Status::NotFound("unknown relationship '" + rel_name + "'");
  }
  if (GetObject(source) == nullptr || GetObject(target) == nullptr) {
    return Status::NotFound("link endpoints must be restored first");
  }
  Link link;
  link.oid = oid;
  link.def = def;
  link.source = source;
  link.target = target;
  link.context = context;
  for (AttrInit& a : attrs) link.attrs[a.first] = std::move(a.second);
  InsertLink(mvcc::MakeVersion(std::move(link)));
  EnsureNextOidAbove(oid);
  return Status::Ok();
}

Status Database::RestoreSynonymRaw(Oid child, Oid parent) {
  BeginMutation();
  if (child == parent) return Status::Ok();
  mvcc::Writable(store_.synonym_parent_)[child] = parent;
  return Status::Ok();
}

void Database::EnsureNextOidAbove(Oid oid) {
  if (next_oid_ <= oid) next_oid_ = oid + 1;
}

Status Database::Clear() {
  BeginMutation();
  if (in_transaction_) {
    return Status::FailedPrecondition("cannot clear inside a transaction");
  }
  undo_log_.clear();
  rel_template_order_.clear();
  rel_templates_.clear();
  // A fresh working store. Snapshots taken before the clear stay fully
  // readable — their SchemaTables keep-alives own the old definitions.
  store_ = DbSnapshot();
  store_.live_epoch_ = &epoch_;
  next_oid_ = 1;
  return Status::Ok();
}

// ------------------------------------------------------------ transactions

Status Database::Begin() {
  AssertExclusiveAccess();
  if (in_transaction_) {
    return Status::FailedPrecondition("nested transactions are unsupported");
  }
  in_transaction_ = true;
  undo_log_.clear();
  Event ev{EventKind::kTransactionBegin};
  PublishEvent(ev);
  return Status::Ok();
}

Status Database::Commit() {
  BeginMutation();
  if (!in_transaction_) {
    return Status::FailedPrecondition("no transaction in progress");
  }
  Event pre{EventKind::kBeforeCommit};
  Status st = PublishEvent(pre);
  if (!st.ok()) {
    UndoAll();
    in_transaction_ = false;
    Event ab{EventKind::kAfterAbort};
    PublishEvent(ab);
    return Status::Aborted("commit vetoed: " + st.ToString());
  }
  undo_log_.clear();
  in_transaction_ = false;
  Event post{EventKind::kAfterCommit};
  PublishEvent(post);
  return Status::Ok();
}

Status Database::Abort() {
  BeginMutation();
  if (!in_transaction_) {
    return Status::FailedPrecondition("no transaction in progress");
  }
  UndoAll();
  in_transaction_ = false;
  Event ev{EventKind::kAfterAbort};
  PublishEvent(ev);
  return Status::Ok();
}

void Database::UndoAll() {
  while (!undo_log_.empty()) {
    UndoRecord rec = std::move(undo_log_.back());
    undo_log_.pop_back();
    // Each branch restores the pre-mutation state and publishes a
    // compensating after-event describing the inverse mutation so derived
    // state (indexes, views, classification caches) stays consistent.
    Event comp;
    comp.compensating = true;
    switch (rec.kind) {
      case UndoRecord::Kind::kCreateObject: {
        const Object* obj = GetObject(rec.oid);
        if (obj == nullptr) break;
        comp.kind = EventKind::kAfterDeleteObject;
        comp.subject = rec.oid;
        comp.type_name = obj->cls->name();
        EraseObject(rec.oid);
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kDeleteObject: {
        InsertObject(std::move(rec.object_snapshot));
        // Incident-link vectors are rebuilt by the link undo records that
        // precede this record in the log (and hence follow it in undo
        // order), so clear them here.
        Object* obj = MutableObject(rec.oid);
        obj->out_links.clear();
        obj->in_links.clear();
        comp.kind = EventKind::kAfterCreateObject;
        comp.subject = rec.oid;
        comp.type_name = obj->cls->name();
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kSetAttribute: {
        Object* obj = MutableObject(rec.oid);
        if (obj == nullptr) break;
        comp.kind = EventKind::kAfterSetAttribute;
        comp.subject = rec.oid;
        comp.type_name = obj->cls->name();
        comp.attribute = rec.name;
        comp.old_value = obj->attrs[rec.name];
        comp.new_value = rec.old_value;
        obj->attrs[rec.name] = std::move(rec.old_value);
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kCreateLink: {
        const Link* link = GetLink(rec.oid);
        if (link == nullptr) break;
        comp.kind = EventKind::kAfterDeleteLink;
        comp.subject = rec.oid;
        comp.type_name = link->def->name();
        comp.source = link->source;
        comp.target = link->target;
        comp.context = link->context;
        EraseLink(rec.oid);
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kDeleteLink: {
        const Link& link = *rec.link_snapshot;
        comp.kind = EventKind::kAfterCreateLink;
        comp.subject = rec.oid;
        comp.type_name = link.def->name();
        comp.source = link.source;
        comp.target = link.target;
        comp.context = link.context;
        InsertLink(std::move(rec.link_snapshot));
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kSetLinkAttribute: {
        Link* link = MutableLink(rec.oid);
        if (link == nullptr) break;
        comp.kind = EventKind::kAfterSetLinkAttribute;
        comp.subject = rec.oid;
        comp.type_name = link->def->name();
        comp.source = link->source;
        comp.target = link->target;
        comp.context = link->context;
        comp.attribute = rec.name;
        comp.old_value = link->attrs[rec.name];
        comp.new_value = rec.old_value;
        link->attrs[rec.name] = std::move(rec.old_value);
        PublishEvent(comp);
        break;
      }
      case UndoRecord::Kind::kDeclareSynonym: {
        mvcc::Writable(store_.synonym_parent_).erase(rec.oid);
        break;
      }
    }
  }
}

// ------------------------------------------------------ MVCC publication

void Database::Publish(std::uint64_t epoch) {
  // The copy shares every record, trie node and table with the working
  // store; the writer's next change to any of them copies it first.
  auto* cut = new DbSnapshot(store_);
  cut->epoch_ = epoch;
  cut->live_epoch_ = nullptr;
  mvcc::internal::g_live_snapshots.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const DbSnapshot> snap(cut, [](const DbSnapshot* p) {
    mvcc::internal::g_live_snapshots.fetch_sub(1, std::memory_order_relaxed);
    delete p;
  });
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    current_snapshot_.swap(snap);
  }
  unpublished_.store(false, std::memory_order_release);
  snap.reset();  // drop the superseded cut before reporting retention
  UpdateMvccGauges();
}

SnapshotHandle Database::AcquireSnapshot() {
  // Unguarded mutations are legal only while single-threaded, but the
  // first acquire after them may race a writer. Republish only while no
  // writer holds the guard; a writer that holds it publishes those
  // mutations on entry, before it edits anything, so the wait below lasts
  // microseconds, never a write section.
  while (unpublished_.load(std::memory_order_acquire)) {
    std::shared_lock<std::shared_mutex> quiesce(guard_, std::try_to_lock);
    if (quiesce.owns_lock()) {
      if (unpublished_.load(std::memory_order_acquire)) Publish(epoch());
      break;
    }
    std::this_thread::yield();
  }
  std::shared_ptr<const DbSnapshot> snap;
  {
    std::lock_guard<std::mutex> lk(snap_mu_);
    snap = current_snapshot_;
  }
  RegisterPin(snap->epoch());
  return SnapshotHandle(std::move(snap), this);
}

void Database::RegisterPin(std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lk(snap_reg_mu_);
    pinned_epochs_.insert(epoch);
  }
  UpdateMvccGauges();
}

void Database::ReleasePin(std::uint64_t epoch) {
  {
    std::lock_guard<std::mutex> lk(snap_reg_mu_);
    auto it = pinned_epochs_.find(epoch);
    if (it != pinned_epochs_.end()) pinned_epochs_.erase(it);
  }
  UpdateMvccGauges();
}

std::size_t Database::pinned_snapshots() const {
  std::lock_guard<std::mutex> lk(snap_reg_mu_);
  return pinned_epochs_.size();
}

std::uint64_t Database::oldest_pinned_epoch() const {
  std::lock_guard<std::mutex> lk(snap_reg_mu_);
  return pinned_epochs_.empty() ? epoch() : *pinned_epochs_.begin();
}

void Database::UpdateMvccGauges() const {
  if (!obs::MetricsEnabled()) return;
  const MvccGauges& g = MvccGauges::Get();
  g.retained->Set(static_cast<std::int64_t>(mvcc::RetainedVersions()));
  g.live->Set(static_cast<std::int64_t>(mvcc::LiveSnapshots()));
  std::lock_guard<std::mutex> lk(snap_reg_mu_);
  g.pinned->Set(static_cast<std::int64_t>(pinned_epochs_.size()));
  g.oldest->Set(static_cast<std::int64_t>(
      pinned_epochs_.empty() ? epoch() : *pinned_epochs_.begin()));
}

// ------------------------------------------------------------- validation

Status Database::ValidateCardinality() const {
  for (const RelationshipDef* rel : relationships()) {
    const RelationshipSemantics& sem = rel->semantics();
    if (sem.min_out == 0 && sem.min_in == 0) continue;
    if (sem.min_out > 0) {
      for (Oid oid : Extent(rel->source_class()->name())) {
        const Object* obj = GetObject(oid);
        std::uint32_t n = 0;
        for (Oid lid : obj->out_links) {
          const Link* l = GetLink(lid);
          if (l != nullptr && l->def->IsSubrelationshipOf(rel)) ++n;
        }
        if (n < sem.min_out) {
          return Status::ConstraintViolation(
              "object @" + std::to_string(oid) + " has " + std::to_string(n) +
              " outgoing '" + rel->name() + "' links (min " +
              std::to_string(sem.min_out) + ")");
        }
      }
    }
    if (sem.min_in > 0) {
      for (Oid oid : Extent(rel->target_class()->name())) {
        const Object* obj = GetObject(oid);
        std::uint32_t n = 0;
        for (Oid lid : obj->in_links) {
          const Link* l = GetLink(lid);
          if (l != nullptr && l->def->IsSubrelationshipOf(rel)) ++n;
        }
        if (n < sem.min_in) {
          return Status::ConstraintViolation(
              "object @" + std::to_string(oid) + " has " + std::to_string(n) +
              " incoming '" + rel->name() + "' links (min " +
              std::to_string(sem.min_in) + ")");
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace prometheus
