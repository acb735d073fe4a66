#include "storage/import.h"

#include <fstream>

#include "storage/snapshot.h"

namespace prometheus::storage {

namespace {

/// Rewrites every object reference inside `value` through `map`.
/// References to objects outside the snapshot become null.
Value RemapValue(const Value& value,
                 const std::unordered_map<Oid, Oid>& map) {
  switch (value.type()) {
    case ValueType::kRef: {
      auto it = map.find(value.AsRef());
      return it == map.end() ? Value::Null() : Value::Ref(it->second);
    }
    case ValueType::kList: {
      Value::List out;
      out.reserve(value.AsList().size());
      for (const Value& v : value.AsList()) {
        out.push_back(RemapValue(v, map));
      }
      return Value::MakeList(std::move(out));
    }
    case ValueType::kStruct: {
      Value::Struct out;
      out.reserve(value.AsStruct().size());
      for (const auto& [name, v] : value.AsStruct()) {
        out.emplace_back(name, RemapValue(v, map));
      }
      return Value::MakeStruct(std::move(out));
    }
    default:
      return value;
  }
}

/// True when `value` contains an object reference anywhere.
bool ContainsRef(const Value& value) {
  if (value.type() == ValueType::kRef) return true;
  if (value.type() == ValueType::kList) {
    for (const Value& v : value.AsList()) {
      if (ContainsRef(v)) return true;
    }
  }
  if (value.type() == ValueType::kStruct) {
    for (const auto& [name, v] : value.AsStruct()) {
      if (ContainsRef(v)) return true;
    }
  }
  return false;
}

Status MergeSchema(Database* db, const Database& src, ImportReport* report) {
  for (const ClassDef* cls : src.classes()) {
    const ClassDef* existing = db->FindClass(cls->name());
    if (existing != nullptr) {
      // The sources must agree on the attributes they share.
      for (const AttributeDef& attr : cls->attributes()) {
        const AttributeDef* found = existing->FindAttribute(attr.name);
        if (found == nullptr) {
          return Status::InvalidArgument(
              "schema conflict: class '" + cls->name() +
              "' lacks imported attribute '" + attr.name + "'");
        }
        if (found->type != attr.type) {
          return Status::InvalidArgument(
              "schema conflict: attribute '" + cls->name() + "." +
              attr.name + "' has a different type in the import");
        }
      }
      continue;
    }
    std::vector<std::string> supers;
    for (const ClassDef* s : cls->supers()) supers.push_back(s->name());
    std::vector<AttributeDef> attrs = cls->attributes();
    PROMETHEUS_RETURN_IF_ERROR(
        db->DefineClass(cls->name(), supers, std::move(attrs),
                        cls->is_abstract())
            .status());
    for (const MethodDef& method : src.live_store().MethodsOf(cls)) {
      PROMETHEUS_RETURN_IF_ERROR(db->DefineMethod(cls->name(), method));
    }
    ++report->classes_defined;
  }
  for (const RelationshipDef* rel : src.relationships()) {
    const RelationshipDef* existing = db->FindRelationship(rel->name());
    if (existing != nullptr) {
      if (existing->source_class()->name() != rel->source_class()->name() ||
          existing->target_class()->name() != rel->target_class()->name()) {
        return Status::InvalidArgument(
            "schema conflict: relationship '" + rel->name() +
            "' relates different classes in the import");
      }
      for (const AttributeDef& attr : rel->attributes()) {
        if (existing->FindAttribute(attr.name) == nullptr) {
          return Status::InvalidArgument(
              "schema conflict: relationship '" + rel->name() +
              "' lacks imported attribute '" + attr.name + "'");
        }
      }
      continue;
    }
    std::vector<std::string> supers;
    for (const RelationshipDef* s : rel->supers()) {
      supers.push_back(s->name());
    }
    std::vector<AttributeDef> attrs = rel->attributes();
    PROMETHEUS_RETURN_IF_ERROR(
        db->DefineRelationship(rel->name(), rel->source_class()->name(),
                               rel->target_class()->name(), rel->semantics(),
                               std::move(attrs), supers)
            .status());
    ++report->relationships_defined;
  }
  return Status::Ok();
}

}  // namespace

Result<ImportReport> ImportSnapshot(Database* db, std::istream& in) {
  // Stage the snapshot in a scratch database, then merge object by object
  // through the public API so events/rules/indexes observe the import.
  Database staging;
  PROMETHEUS_RETURN_IF_ERROR(LoadSnapshot(&staging, in));

  ImportReport report;
  PROMETHEUS_RETURN_IF_ERROR(MergeSchema(db, staging, &report));

  // Pass 1: create the objects with their non-reference attributes.
  for (const ClassDef* cls : staging.classes()) {
    for (Oid old_oid :
         staging.Extent(cls->name(), /*include_subclasses=*/false)) {
      const Object* obj = staging.GetObject(old_oid);
      std::vector<AttrInit> inits;
      for (const auto& [name, value] : obj->attrs) {
        if (!ContainsRef(value)) inits.emplace_back(name, value);
      }
      PROMETHEUS_ASSIGN_OR_RETURN(
          Oid fresh, db->CreateObject(cls->name(), std::move(inits)));
      report.oid_map[old_oid] = fresh;
      ++report.objects_imported;
    }
  }
  // Pass 2: reference-bearing attributes, now that the map is complete.
  for (const auto& [old_oid, fresh] : report.oid_map) {
    const Object* obj = staging.GetObject(old_oid);
    for (const auto& [name, value] : obj->attrs) {
      if (!ContainsRef(value)) continue;
      PROMETHEUS_RETURN_IF_ERROR(
          db->SetAttribute(fresh, name, RemapValue(value, report.oid_map)));
    }
  }
  // Pass 3: links, with endpoints, contexts and attributes remapped.
  for (const RelationshipDef* rel : staging.relationships()) {
    for (Oid lid : staging.LinkExtent(rel->name(),
                                      /*include_subrelationships=*/false)) {
      const Link* link = staging.GetLink(lid);
      auto src = report.oid_map.find(link->source);
      auto dst = report.oid_map.find(link->target);
      if (src == report.oid_map.end() || dst == report.oid_map.end()) {
        return Status::IoError("imported link references a missing object");
      }
      Oid ctx = kNullOid;
      if (link->context != kNullOid) {
        auto mapped = report.oid_map.find(link->context);
        if (mapped != report.oid_map.end()) ctx = mapped->second;
      }
      std::vector<AttrInit> inits;
      for (const auto& [name, value] : link->attrs) {
        inits.emplace_back(name, RemapValue(value, report.oid_map));
      }
      PROMETHEUS_RETURN_IF_ERROR(
          db->CreateLink(rel->name(), src->second, dst->second, ctx,
                         std::move(inits))
              .status());
      ++report.links_imported;
    }
  }
  // Pass 4: synonym sets.
  for (const auto& [old_oid, fresh] : report.oid_map) {
    Oid root = staging.CanonicalOf(old_oid);
    if (root == old_oid) continue;
    auto mapped_root = report.oid_map.find(root);
    if (mapped_root == report.oid_map.end()) continue;
    PROMETHEUS_RETURN_IF_ERROR(
        db->DeclareSynonym(fresh, mapped_root->second));
    ++report.synonyms_imported;
  }
  return report;
}

Result<ImportReport> ImportSnapshot(Database* db, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  return ImportSnapshot(db, in);
}

}  // namespace prometheus::storage
