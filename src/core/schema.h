#ifndef PROMETHEUS_CORE_SCHEMA_H_
#define PROMETHEUS_CORE_SCHEMA_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace prometheus {

/// Declaration of an attribute of a class or of a relationship class
/// (thesis section 4.2: attributes are (type, name) pairs).
struct AttributeDef {
  /// Attribute name, unique within its class (including inherited names).
  std::string name;
  /// Declared type. `kNull` means "any" (untyped, ODMG `Object`).
  ValueType type = ValueType::kNull;
  /// For `kRef` attributes, the class the referenced object must belong to;
  /// empty means any class.
  std::string ref_class;
  /// Value given to freshly created instances; null if none.
  Value default_value;
};

/// Declaration of a method of a class (thesis 4.2: methods are
/// `C m(C1 r1, ..., Cn rn)` signatures). Prometheus stores method
/// signatures as schema metadata — behaviour lives in the host language,
/// as in the ODMG binding. They are kept per class in the store's schema
/// tables (`DbSnapshot::MethodsOf`), not on the `ClassDef`, because later
/// DDL adds them to a class that published snapshots already share.
struct MethodDef {
  std::string name;
  /// Return type name; empty for void.
  std::string return_type;
  /// Parameter (type, name) pairs.
  std::vector<std::pair<std::string, std::string>> parameters;
};

/// A class of the ODMG-style schema (thesis 4.2).
///
/// Owns its directly declared attributes; inherited attributes are reached
/// by walking `supers()`. Instances are created through
/// `Database::CreateObject` and recorded in the class extent.
class ClassDef {
 public:
  /// Constructed by `Database::DefineClass` only.
  ClassDef(std::string name, bool is_abstract)
      : name_(std::move(name)), abstract_(is_abstract) {}

  ClassDef(const ClassDef&) = delete;
  ClassDef& operator=(const ClassDef&) = delete;

  const std::string& name() const { return name_; }

  /// Abstract classes cannot be instantiated.
  bool is_abstract() const { return abstract_; }

  /// Direct super-classes (multiple inheritance is allowed, as in ODMG).
  const std::vector<const ClassDef*>& supers() const { return supers_; }

  /// Attributes declared directly on this class.
  const std::vector<AttributeDef>& attributes() const { return attributes_; }

  /// True when this class is `other` or transitively inherits from it.
  bool IsSubclassOf(const ClassDef* other) const;

  /// Finds `name` on this class or any super-class; nullptr if absent.
  const AttributeDef* FindAttribute(std::string_view name) const;

  /// Appends all attributes, inherited first (super-class order), own last.
  void CollectAttributes(std::vector<const AttributeDef*>* out) const;

 private:
  friend class Database;

  std::string name_;
  bool abstract_;
  std::vector<const ClassDef*> supers_;
  std::vector<AttributeDef> attributes_;
};

/// Kind of a relationship class (thesis 4.3): aggregations model whole–part
/// composition (and participate in composite-object semantics); associations
/// model every other semantic link.
enum class RelationshipKind : std::uint8_t {
  kAssociation = 0,
  kAggregation,
};

/// Unbounded cardinality marker.
inline constexpr std::uint32_t kUnboundedCard =
    std::numeric_limits<std::uint32_t>::max();

/// The built-in semantic attributes of a relationship class
/// (thesis 4.4.3, figures 12–18). These are the feature the model adds over
/// plain ODMG references, and the feature whose runtime cost the OO7-derived
/// benchmark isolates.
struct RelationshipSemantics {
  RelationshipKind kind = RelationshipKind::kAssociation;

  /// Exclusivity (figure 12/15): a target object may participate as target
  /// of at most one link within the relationship's exclusivity group.
  bool exclusive = false;

  /// Exclusivity group name. Relationship classes sharing a group are
  /// mutually exclusive on their targets (the "crossed incoming arcs"
  /// notation). Defaults to the relationship class' own name.
  std::string exclusivity_group;

  /// Sharability (figure 13/16): when false, a target may be the target of
  /// at most one link *of this relationship class* (an unshared component).
  bool shareable = true;

  /// Lifetime dependency: deleting the source (whole) deletes its targets
  /// (parts) transitively. Typical for aggregations.
  bool lifetime_dependent = false;

  /// Constancy: once created, links of this class can neither be deleted
  /// explicitly nor have their attributes changed. (Cascade deletion caused
  /// by a participant's death still removes them.)
  bool constant = false;

  /// Attribute inheritance (figures 17–18, ADAM-style roles): attributes
  /// stored on a link become readable as derived attributes of the target
  /// object, giving objects context-dependent roles.
  bool inherit_attributes = false;

  /// Directionality (requirement 2). Undirected relationships are traversed
  /// both ways by `Database::Traverse`.
  bool directed = true;

  /// Maximum number of links of this class per source object.
  std::uint32_t max_out = kUnboundedCard;
  /// Maximum number of links of this class per target object.
  std::uint32_t max_in = kUnboundedCard;
  /// Minimum link counts, validated by `Database::ValidateCardinality`.
  std::uint32_t min_out = 0;
  std::uint32_t min_in = 0;
};

/// A relationship class (thesis 4.3, figure 10): a first-class, typed,
/// directed edge type between a source class and a target class, carrying
/// its own attributes and semantics.
///
/// Relationship classes may themselves inherit (figure 11); a link of a
/// sub-relationship is traversed by queries naming the super-relationship.
class RelationshipDef {
 public:
  /// Constructed by `Database::DefineRelationship` only.
  RelationshipDef(std::string name, const ClassDef* source,
                  const ClassDef* target, RelationshipSemantics semantics)
      : name_(std::move(name)),
        source_(source),
        target_(target),
        semantics_(std::move(semantics)) {}

  RelationshipDef(const RelationshipDef&) = delete;
  RelationshipDef& operator=(const RelationshipDef&) = delete;

  const std::string& name() const { return name_; }

  /// Class of permitted source objects.
  const ClassDef* source_class() const { return source_; }

  /// Class of permitted target objects.
  const ClassDef* target_class() const { return target_; }

  const RelationshipSemantics& semantics() const { return semantics_; }

  /// Attributes carried by each link of this class.
  const std::vector<AttributeDef>& attributes() const { return attributes_; }

  /// Direct super-relationship classes.
  const std::vector<const RelationshipDef*>& supers() const {
    return supers_;
  }

  /// True when this relationship class is `other` or inherits from it.
  bool IsSubrelationshipOf(const RelationshipDef* other) const;

  /// Finds a link attribute on this class or a super; nullptr if absent.
  const AttributeDef* FindAttribute(std::string_view name) const;

  /// Appends all link attributes, inherited first.
  void CollectAttributes(std::vector<const AttributeDef*>* out) const;

 private:
  friend class Database;

  std::string name_;
  const ClassDef* source_;
  const ClassDef* target_;
  RelationshipSemantics semantics_;
  std::vector<AttributeDef> attributes_;
  std::vector<const RelationshipDef*> supers_;
};

}  // namespace prometheus

#endif  // PROMETHEUS_CORE_SCHEMA_H_
