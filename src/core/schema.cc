#include "core/schema.h"

#include <algorithm>

namespace prometheus {

bool ClassDef::IsSubclassOf(const ClassDef* other) const {
  if (this == other) return true;
  for (const ClassDef* s : supers_) {
    if (s->IsSubclassOf(other)) return true;
  }
  return false;
}

const AttributeDef* ClassDef::FindAttribute(std::string_view name) const {
  for (const AttributeDef& a : attributes_) {
    if (a.name == name) return &a;
  }
  for (const ClassDef* s : supers_) {
    if (const AttributeDef* a = s->FindAttribute(name)) return a;
  }
  return nullptr;
}

void ClassDef::CollectAttributes(
    std::vector<const AttributeDef*>* out) const {
  for (const ClassDef* s : supers_) s->CollectAttributes(out);
  for (const AttributeDef& a : attributes_) {
    // A redeclared name overrides the inherited one.
    auto dup = std::find_if(
        out->begin(), out->end(),
        [&a](const AttributeDef* x) { return x->name == a.name; });
    if (dup != out->end()) {
      *dup = &a;
    } else {
      out->push_back(&a);
    }
  }
}

bool RelationshipDef::IsSubrelationshipOf(const RelationshipDef* other) const {
  if (this == other) return true;
  for (const RelationshipDef* s : supers_) {
    if (s->IsSubrelationshipOf(other)) return true;
  }
  return false;
}

const AttributeDef* RelationshipDef::FindAttribute(
    std::string_view name) const {
  for (const AttributeDef& a : attributes_) {
    if (a.name == name) return &a;
  }
  for (const RelationshipDef* s : supers_) {
    if (const AttributeDef* a = s->FindAttribute(name)) return a;
  }
  return nullptr;
}

void RelationshipDef::CollectAttributes(
    std::vector<const AttributeDef*>* out) const {
  for (const RelationshipDef* s : supers_) s->CollectAttributes(out);
  for (const AttributeDef& a : attributes_) {
    auto dup = std::find_if(
        out->begin(), out->end(),
        [&a](const AttributeDef* x) { return x->name == a.name; });
    if (dup != out->end()) {
      *dup = &a;
    } else {
      out->push_back(&a);
    }
  }
}

}  // namespace prometheus
