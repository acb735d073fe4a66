#include "taxonomy/taxonomy_db.h"

#include <algorithm>
#include <unordered_set>

namespace prometheus::taxonomy {

namespace {

AttributeDef Attr(std::string name, ValueType type,
                  Value def = Value::Null()) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  a.default_value = std::move(def);
  return a;
}

/// The eight family names the ICBN exempts from the -aceae ending.
constexpr const char* kFamilyExceptions[] = {
    "Palmae",      "Gramineae",  "Cruciferae", "Leguminosae",
    "Guttiferae",  "Umbelliferae", "Labiatae",  "Compositae",
};

/// Extracts the original author from an authorship string: for
/// "(Jacq.)Lag." the original author is "Jacq."; otherwise the string
/// itself.
std::string OriginalAuthor(const std::string& author) {
  if (!author.empty() && author.front() == '(') {
    std::size_t close = author.find(')');
    if (close != std::string::npos) return author.substr(1, close - 1);
  }
  return author;
}

}  // namespace

const char* NameStatusName(NameStatus status) {
  switch (status) {
    case NameStatus::kPublished:
      return "published";
    case NameStatus::kInvalid:
      return "invalid";
    case NameStatus::kConserved:
      return "conserved";
    case NameStatus::kRejected:
      return "rejected";
  }
  return "?";
}

const char* TypeKindName(TypeKind kind) {
  switch (kind) {
    case TypeKind::kHolotype:
      return "holotype";
    case TypeKind::kLectotype:
      return "lectotype";
    case TypeKind::kNeotype:
      return "neotype";
    case TypeKind::kIsotype:
      return "isotype";
    case TypeKind::kSyntype:
      return "syntype";
  }
  return "?";
}

bool IsPrimaryType(TypeKind kind) {
  return kind == TypeKind::kHolotype || kind == TypeKind::kLectotype ||
         kind == TypeKind::kNeotype;
}

TaxonomyDatabase::TaxonomyDatabase() : db_(std::make_unique<Database>()) {
  Status st = DefineSchema();
  (void)st;  // fresh database: schema definition cannot fail
  classifications_ = std::make_unique<ClassificationManager>(db_.get());
  rules_ = std::make_unique<RuleEngine>(db_.get());
  query_ = std::make_unique<pool::QueryEngine>(db_.get());
}

TaxonomyDatabase::~TaxonomyDatabase() = default;

Status TaxonomyDatabase::DefineSchema() {
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineClass(kSpecimenClass, {},
                       {Attr("collector", ValueType::kString),
                        Attr("herbarium", ValueType::kString),
                        Attr("field_number", ValueType::kString),
                        Attr("collection_year", ValueType::kInt,
                             Value::Int(0))})
          .status());
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineClass(kNameClass, {},
                       {Attr("name_element", ValueType::kString),
                        Attr("author", ValueType::kString),
                        Attr("year", ValueType::kInt, Value::Int(0)),
                        Attr("publication", ValueType::kString),
                        Attr("rank", ValueType::kString),
                        Attr("rank_order", ValueType::kInt),
                        Attr("status", ValueType::kString,
                             Value::String("published"))})
          .status());
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineClass(kTaxonClass, {},
                       {Attr("working_name", ValueType::kString),
                        Attr("rank", ValueType::kString),
                        Attr("rank_order", ValueType::kInt)})
          .status());

  // Typification: names are typified by specimens (species level) or by
  // other names (supra-specific level); each link records its kind.
  RelationshipSemantics type_sem;
  type_sem.kind = RelationshipKind::kAssociation;
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineRelationship(kTypifiedBySpecimenRel, kNameClass,
                              kSpecimenClass, type_sem,
                              {Attr("type_kind", ValueType::kString)})
          .status());
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineRelationship(kTypifiedByNameRel, kNameClass, kNameClass,
                              type_sem,
                              {Attr("type_kind", ValueType::kString)})
          .status());

  // Placement: purely nomenclatural combination record — published, hence
  // constant, one per name.
  RelationshipSemantics placement_sem;
  placement_sem.constant = true;
  placement_sem.max_out = 1;
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineRelationship(kPlacementRel, kNameClass, kNameClass,
                              placement_sem)
          .status());

  // Classification structure: taxa contain taxa and circumscribe
  // specimens, always inside a classification context; both carry the
  // traceability motivation.
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineRelationship(kContainsRel, kTaxonClass, kTaxonClass, {},
                              {Attr("motivation", ValueType::kString)})
          .status());
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineRelationship(kCircumscribesRel, kTaxonClass, kSpecimenClass,
                              {},
                              {Attr("motivation", ValueType::kString)})
          .status());

  // Determinations: a name applied to a herbarium sheet by a taxonomist,
  // recorded with its authorship but carrying no classification value.
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineRelationship(kDeterminedAsRel, kSpecimenClass, kNameClass,
                              {},
                              {Attr("determiner", ValueType::kString),
                               Attr("determination_year", ValueType::kInt)})
          .status());

  // Name attachment: at most one ascribed and one calculated name per CT.
  RelationshipSemantics one_name;
  one_name.max_out = 1;
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineRelationship(kAscribedNameRel, kTaxonClass, kNameClass,
                              one_name)
          .status());
  PROMETHEUS_RETURN_IF_ERROR(
      db_->DefineRelationship(kCalculatedNameRel, kTaxonClass, kNameClass,
                              one_name)
          .status());
  return Status::Ok();
}

Status TaxonomyDatabase::InstallIcbnRules() {
  const int genus_order = RankOrder(Rank::kGenus);
  const int species_order = RankOrder(Rank::kSpecies);
  const int sectio_order = RankOrder(Rank::kSectio);
  const int series_order = RankOrder(Rank::kSeries);

  // Figure 35: family names end in -aceae (with the 8 sanctioned
  // exceptions).
  std::string family_cond =
      "ends_with(self.name_element, 'aceae')";
  for (const char* exception : kFamilyExceptions) {
    family_cond += " or self.name_element = '" + std::string(exception) +
                   "'";
  }
  {
    RuleSpec spec;
    spec.name = "icbn_family_name";
    spec.events = {{EventKind::kAfterCreateObject, kNameClass},
                   {EventKind::kAfterSetAttribute, kNameClass}};
    spec.applicability = "self.rank = 'Familia'";
    spec.condition = family_cond;
    spec.message = "family names must end in -aceae";
    PROMETHEUS_RETURN_IF_ERROR(rules_->AddRule(spec).status());
  }
  // Figure 36: genus names start with a capital letter.
  {
    RuleSpec spec;
    spec.name = "icbn_genus_name";
    spec.events = {{EventKind::kAfterCreateObject, kNameClass},
                   {EventKind::kAfterSetAttribute, kNameClass}};
    spec.applicability = "self.rank = 'Genus'";
    spec.condition =
        "self.name_element != '' and "
        "substr(self.name_element, 0, 1) != "
        "lower(substr(self.name_element, 0, 1))";
    spec.message = "genus names start with a capital letter";
    PROMETHEUS_RETURN_IF_ERROR(rules_->AddRule(spec).status());
  }
  // Species epithets start with a lowercase letter (2.1.2).
  {
    RuleSpec spec;
    spec.name = "icbn_species_epithet";
    spec.events = {{EventKind::kAfterCreateObject, kNameClass},
                   {EventKind::kAfterSetAttribute, kNameClass}};
    spec.applicability = "self.rank = 'Species'";
    spec.condition =
        "self.name_element != '' and "
        "substr(self.name_element, 0, 1) = "
        "lower(substr(self.name_element, 0, 1))";
    spec.message = "species epithets start with a lowercase letter";
    PROMETHEUS_RETURN_IF_ERROR(rules_->AddRule(spec).status());
  }
  // Figure 37: every published name should be typified. Deferred + warn:
  // typification legitimately happens after publication.
  {
    RuleSpec spec;
    spec.name = "icbn_type_existence";
    spec.events = {{EventKind::kAfterCreateObject, kNameClass}};
    spec.condition = "count(children(self, 'typified_by_specimen')) + "
                     "count(children(self, 'typified_by_name')) > 0";
    spec.timing = RuleTiming::kDeferred;
    spec.action = RuleAction::kWarn;
    spec.message = "published names should have a taxonomic type";
    PROMETHEUS_RETURN_IF_ERROR(rules_->AddRule(spec).status());
  }
  // Figure 38: a Species taxon sits below a taxon ranked in
  // [Genus, Species).
  {
    RuleSpec spec;
    spec.name = "icbn_species_rank";
    spec.events = {{EventKind::kAfterCreateLink, kContainsRel}};
    spec.applicability = "target.rank = 'Species'";
    spec.condition = "source.rank_order >= " + std::to_string(genus_order) +
                     " and source.rank_order < " +
                     std::to_string(species_order);
    spec.message =
        "species must be placed below a rank between Genus and Species";
    PROMETHEUS_RETURN_IF_ERROR(rules_->AddRule(spec).status());
  }
  // Figure 39: a Series taxon sits below a taxon ranked in
  // [Sectio, Series).
  {
    RuleSpec spec;
    spec.name = "icbn_series_rank";
    spec.events = {{EventKind::kAfterCreateLink, kContainsRel}};
    spec.applicability = "target.rank = 'Series'";
    spec.condition = "source.rank_order >= " + std::to_string(sectio_order) +
                     " and source.rank_order < " +
                     std::to_string(series_order);
    spec.message =
        "series must be placed below a rank between Sectio and Series";
    PROMETHEUS_RETURN_IF_ERROR(rules_->AddRule(spec).status());
  }
  // Later homonyms: publishing a name whose (element, rank) pair is
  // already taken is legal but suspect (the later homonym is typically
  // illegitimate) — warn, do not block, since historical homonyms must
  // still be recordable.
  {
    RuleSpec spec;
    spec.name = "icbn_later_homonym";
    spec.events = {{EventKind::kAfterCreateObject, kNameClass}};
    spec.condition =
        "count((select n from NomenclaturalTaxon n "
        "where n.name_element = self.name_element and "
        "n.rank = self.rank)) <= 1";
    spec.action = RuleAction::kWarn;
    spec.message = "later homonym: this (name, rank) pair is already "
                   "published";
    PROMETHEUS_RETURN_IF_ERROR(rules_->AddRule(spec).status());
  }
  // Sub-rank placements: a "sub" taxon sits directly below its base rank
  // or a rank between them (subspecies below species, subgenus below
  // genus, ...). Encoded as: parent in [base, sub).
  for (Rank sub : {Rank::kSubspecies, Rank::kSubgenus, Rank::kSubfamilia}) {
    Rank base = static_cast<Rank>(RankOrder(sub) - 1);
    RuleSpec spec;
    spec.name = std::string("icbn_") + RankName(sub) + "_rank";
    spec.events = {{EventKind::kAfterCreateLink, kContainsRel}};
    spec.applicability =
        std::string("target.rank = '") + RankName(sub) + "'";
    spec.condition = "source.rank_order >= " +
                     std::to_string(RankOrder(base)) +
                     " and source.rank_order < " +
                     std::to_string(RankOrder(sub));
    spec.message = std::string(RankName(sub)) +
                   " must be placed directly below " + RankName(base);
    PROMETHEUS_RETURN_IF_ERROR(rules_->AddRule(spec).status());
  }
  // Figure 40: placement always descends the rank hierarchy.
  {
    RuleSpec spec;
    spec.name = "icbn_placement_order";
    spec.events = {{EventKind::kAfterCreateLink, kContainsRel}};
    spec.condition = "source.rank_order < target.rank_order";
    spec.message = "a taxon can only contain taxa of strictly lower rank";
    PROMETHEUS_RETURN_IF_ERROR(rules_->AddRule(spec).status());
  }
  return Status::Ok();
}

// --------------------------------------------------------------- specimens

Result<Oid> TaxonomyDatabase::AddSpecimen(const std::string& collector,
                                          const std::string& herbarium,
                                          const std::string& field_number,
                                          std::int64_t collection_year) {
  return db_->CreateObject(
      kSpecimenClass,
      {{"collector", Value::String(collector)},
       {"herbarium", Value::String(herbarium)},
       {"field_number", Value::String(field_number)},
       {"collection_year", Value::Int(collection_year)}});
}

// ------------------------------------------------------------ nomenclature

Result<Oid> TaxonomyDatabase::PublishName(const std::string& element,
                                          Rank rank,
                                          const std::string& author,
                                          std::int64_t year,
                                          const std::string& publication) {
  return db_->CreateObject(
      kNameClass,
      {{"name_element", Value::String(element)},
       {"author", Value::String(author)},
       {"year", Value::Int(year)},
       {"publication", Value::String(publication)},
       {"rank", Value::String(RankName(rank))},
       {"rank_order", Value::Int(RankOrder(rank))}});
}

Status TaxonomyDatabase::Typify(Oid name, Oid type, TypeKind kind) {
  if (!db_->IsInstanceOf(name, kNameClass)) {
    return Status::InvalidArgument("@" + std::to_string(name) +
                                   " is not a nomenclatural taxon");
  }
  const char* rel;
  if (db_->IsInstanceOf(type, kSpecimenClass)) {
    rel = kTypifiedBySpecimenRel;
  } else if (db_->IsInstanceOf(type, kNameClass)) {
    rel = kTypifiedByNameRel;
  } else {
    return Status::InvalidArgument(
        "a taxonomic type must be a specimen or a name");
  }
  if (IsPrimaryType(kind)) {
    // At most one holotype / lectotype / neotype per name.
    TypeKind k = kind;
    if (!TypesOf(name, &k).empty()) {
      return Status::ConstraintViolation(
          std::string("name already has a ") + TypeKindName(kind));
    }
  }
  return db_->CreateLink(rel, name, type, kNullOid,
                         {{"type_kind",
                           Value::String(TypeKindName(kind))}})
      .status();
}

Status TaxonomyDatabase::RecordPlacement(Oid name, Oid genus_name) {
  return db_->CreateLink(kPlacementRel, name, genus_name).status();
}

Oid TaxonomyDatabase::PlacementOf(Oid name) const {
  std::vector<Oid> targets =
      ReadViewOf(*db_).Neighbors(name, kPlacementRel, Direction::kOut);
  return targets.empty() ? kNullOid : targets.front();
}

std::vector<Oid> TaxonomyDatabase::TypesOf(Oid name,
                                           const TypeKind* kind) const {
  const DbSnapshot& rv = ReadViewOf(*db_);
  std::vector<Oid> out;
  for (const char* rel : {kTypifiedBySpecimenRel, kTypifiedByNameRel}) {
    for (Oid lid : rv.IncidentLinks(name, Direction::kOut,
                                    rv.FindRelationship(rel))) {
      const Link* link = rv.GetLink(lid);
      if (kind != nullptr) {
        auto k = link->attrs.find("type_kind");
        if (k == link->attrs.end() ||
            !k->second.Equals(Value::String(TypeKindName(*kind)))) {
          continue;
        }
      }
      out.push_back(link->target);
    }
  }
  return out;
}

std::vector<Oid> TaxonomyDatabase::PrimaryTypeSpecimensOf(Oid name) const {
  std::vector<Oid> out;
  for (TypeKind kind :
       {TypeKind::kHolotype, TypeKind::kLectotype, TypeKind::kNeotype}) {
    for (Oid type : TypesOf(name, &kind)) {
      if (ReadViewOf(*db_).IsInstanceOf(type, kSpecimenClass)) {
        out.push_back(type);
      }
    }
  }
  return out;
}

std::vector<Oid> TaxonomyDatabase::NamesTypifiedBy(Oid type) const {
  std::vector<Oid> out;
  for (const char* rel : {kTypifiedBySpecimenRel, kTypifiedByNameRel}) {
    for (Oid src : ReadViewOf(*db_).Neighbors(type, rel, Direction::kIn)) {
      out.push_back(src);
    }
  }
  return out;
}

Result<std::string> TaxonomyDatabase::FullName(Oid name) const {
  const DbSnapshot& rv = ReadViewOf(*db_);
  if (!rv.IsInstanceOf(name, kNameClass)) {
    return Status::NotFound("@" + std::to_string(name) + " is not a name");
  }
  PROMETHEUS_ASSIGN_OR_RETURN(Value element,
                              rv.GetAttribute(name, "name_element"));
  PROMETHEUS_ASSIGN_OR_RETURN(Value author, rv.GetAttribute(name, "author"));
  PROMETHEUS_ASSIGN_OR_RETURN(Rank rank, RankOf(name));
  std::string text;
  if (IsMultinomial(rank)) {
    Oid genus = PlacementOf(name);
    if (genus != kNullOid) {
      PROMETHEUS_ASSIGN_OR_RETURN(Value genus_element,
                                  rv.GetAttribute(genus, "name_element"));
      if (genus_element.type() == ValueType::kString) {
        text += genus_element.AsString() + " ";
      }
    }
  }
  if (element.type() == ValueType::kString) text += element.AsString();
  if (author.type() == ValueType::kString && !author.AsString().empty()) {
    text += " " + author.AsString();
  }
  return text;
}

Status TaxonomyDatabase::SetNameStatus(Oid name, NameStatus status) {
  if (!db_->IsInstanceOf(name, kNameClass)) {
    return Status::NotFound("@" + std::to_string(name) + " is not a name");
  }
  return db_->SetAttribute(name, "status",
                           Value::String(NameStatusName(status)));
}

Result<NameStatus> TaxonomyDatabase::NameStatusOf(Oid name) const {
  PROMETHEUS_ASSIGN_OR_RETURN(Value status,
                              ReadViewOf(*db_).GetAttribute(name, "status"));
  if (status.type() != ValueType::kString) {
    return Status::NotFound("no status recorded");
  }
  const std::string& s = status.AsString();
  if (s == "published") return NameStatus::kPublished;
  if (s == "invalid") return NameStatus::kInvalid;
  if (s == "conserved") return NameStatus::kConserved;
  if (s == "rejected") return NameStatus::kRejected;
  return Status::InvalidArgument("unknown status '" + s + "'");
}

Result<Oid> TaxonomyDatabase::AddDetermination(Oid specimen, Oid name,
                                               const std::string& determiner,
                                               std::int64_t year) {
  return db_->CreateLink(
      kDeterminedAsRel, specimen, name, kNullOid,
      {{"determiner", Value::String(determiner)},
       {"determination_year", Value::Int(year)}});
}

std::vector<Oid> TaxonomyDatabase::DeterminationsOf(Oid specimen) const {
  const DbSnapshot& rv = ReadViewOf(*db_);
  return rv.IncidentLinks(specimen, Direction::kOut,
                          rv.FindRelationship(kDeterminedAsRel));
}

std::vector<std::vector<Oid>> TaxonomyDatabase::FindHomonyms() const {
  const DbSnapshot& rv = ReadViewOf(*db_);
  std::unordered_map<std::string, std::vector<Oid>> groups;
  for (Oid name : rv.Extent(kNameClass)) {
    auto element = rv.GetAttribute(name, "name_element");
    auto rank = rv.GetAttribute(name, "rank");
    if (!element.ok() || !rank.ok() ||
        element.value().type() != ValueType::kString ||
        rank.value().type() != ValueType::kString) {
      continue;
    }
    std::string key = rank.value().AsString() + "\x1f" +
                      element.value().AsString();
    groups[key].push_back(name);
  }
  std::vector<std::vector<Oid>> out;
  for (auto& [key, names] : groups) {
    (void)key;
    if (names.size() > 1) {
      std::sort(names.begin(), names.end());
      out.push_back(std::move(names));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --------------------------------------------------------- classifications

Result<Oid> TaxonomyDatabase::NewClassification(
    const std::string& name, const std::string& author, std::int64_t year,
    const std::string& publication) {
  return classifications_->Create(name, author, year, publication);
}

Result<Oid> TaxonomyDatabase::NewTaxon(Oid classification, Rank rank,
                                       const std::string& working_name) {
  if (!classifications_->IsClassification(classification)) {
    return Status::NotFound("@" + std::to_string(classification) +
                            " is not a classification");
  }
  return db_->CreateObject(
      kTaxonClass, {{"working_name", Value::String(working_name)},
                    {"rank", Value::String(RankName(rank))},
                    {"rank_order", Value::Int(RankOrder(rank))}});
}

Status TaxonomyDatabase::PlaceTaxon(Oid classification, Oid parent, Oid child,
                                    const std::string& motivation) {
  return classifications_
      ->AddEdge(classification, kContainsRel, parent, child, motivation)
      .status();
}

Status TaxonomyDatabase::Circumscribe(Oid classification, Oid taxon,
                                      Oid specimen,
                                      const std::string& motivation) {
  return classifications_
      ->AddEdge(classification, kCircumscribesRel, taxon, specimen,
                motivation)
      .status();
}

Status TaxonomyDatabase::AscribeName(Oid taxon, Oid name) {
  return db_->CreateLink(kAscribedNameRel, taxon, name).status();
}

Oid TaxonomyDatabase::AscribedNameOf(Oid taxon) const {
  std::vector<Oid> names =
      ReadViewOf(*db_).Neighbors(taxon, kAscribedNameRel, Direction::kOut);
  return names.empty() ? kNullOid : names.front();
}

Oid TaxonomyDatabase::CalculatedNameOf(Oid taxon) const {
  std::vector<Oid> names =
      ReadViewOf(*db_).Neighbors(taxon, kCalculatedNameRel, Direction::kOut);
  return names.empty() ? kNullOid : names.front();
}

Result<Rank> TaxonomyDatabase::RankOf(Oid taxon_or_name) const {
  PROMETHEUS_ASSIGN_OR_RETURN(
      Value rank, ReadViewOf(*db_).GetAttribute(taxon_or_name, "rank"));
  if (rank.type() != ValueType::kString) {
    return Status::NotFound("no rank recorded");
  }
  return RankFromName(rank.AsString());
}

Status TaxonomyDatabase::ValidateClassification(Oid classification) const {
  if (!classifications_->IsClassification(classification)) {
    return Status::NotFound("@" + std::to_string(classification) +
                            " is not a classification");
  }
  if (!classifications_->IsHierarchy(classification)) {
    return Status::ConstraintViolation("classification @" +
                                       std::to_string(classification) +
                                       " contains a cycle");
  }
  for (Oid lid : classifications_->Edges(classification)) {
    const Link* link = db_->GetLink(lid);
    if (link == nullptr) continue;
    if (link->def->name() == kContainsRel) {
      auto parent_rank = RankOf(link->source);
      auto child_rank = RankOf(link->target);
      if (!parent_rank.ok() || !child_rank.ok()) {
        return Status::ConstraintViolation(
            "taxon without a rank participates in the classification");
      }
      if (!IsBelow(child_rank.value(), parent_rank.value())) {
        return Status::ConstraintViolation(
            std::string("rank inversion: ") +
            RankName(parent_rank.value()) + " contains " +
            RankName(child_rank.value()));
      }
    } else if (link->def->name() == kCircumscribesRel) {
      if (!db_->IsInstanceOf(link->target, kSpecimenClass)) {
        return Status::ConstraintViolation(
            "circumscription edge targets a non-specimen");
      }
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------------- recursion

Result<std::vector<Oid>> TaxonomyDatabase::SpecimensUnder(Oid classification,
                                                          Oid taxon) const {
  if (!classifications_->IsClassification(classification)) {
    return Status::NotFound("@" + std::to_string(classification) +
                            " is not a classification");
  }
  if (db_->GetObject(taxon) == nullptr) {
    return Status::NotFound("no taxon @" + std::to_string(taxon));
  }
  std::vector<Oid> out;
  for (Oid node : classifications_->Descendants(classification, taxon)) {
    if (db_->IsInstanceOf(node, kSpecimenClass)) out.push_back(node);
  }
  return out;
}

Result<std::vector<Oid>> TaxonomyDatabase::TypeSpecimensUnder(
    Oid classification, Oid taxon) const {
  PROMETHEUS_ASSIGN_OR_RETURN(std::vector<Oid> specimens,
                              SpecimensUnder(classification, taxon));
  std::vector<Oid> out;
  for (Oid specimen : specimens) {
    bool is_type = false;
    for (Oid lid : db_->IncidentLinks(
             specimen, Direction::kIn,
             db_->FindRelationship(kTypifiedBySpecimenRel))) {
      const Link* link = db_->GetLink(lid);
      auto k = link->attrs.find("type_kind");
      if (k == link->attrs.end() ||
          k->second.type() != ValueType::kString) {
        continue;
      }
      const std::string& kind = k->second.AsString();
      if (kind == "holotype" || kind == "lectotype" || kind == "neotype") {
        is_type = true;
        break;
      }
    }
    if (is_type) out.push_back(specimen);
  }
  return out;
}

// -------------------------------------------------------- name derivation

Result<Oid> TaxonomyDatabase::GenusAncestorName(Oid classification,
                                                Oid taxon) const {
  Oid current = taxon;
  std::unordered_set<Oid> seen{current};
  for (;;) {
    std::vector<Oid> parents =
        classifications_->Parents(classification, current);
    if (parents.empty()) {
      return Status::FailedPrecondition(
          "no Genus-ranked ancestor in this classification");
    }
    current = parents.front();
    if (!seen.insert(current).second) {
      return Status::FailedPrecondition("classification contains a cycle");
    }
    auto rank = RankOf(current);
    if (rank.ok() && rank.value() == Rank::kGenus) {
      Oid name = CalculatedNameOf(current);
      if (name == kNullOid) name = AscribedNameOf(current);
      if (name == kNullOid) {
        return Status::FailedPrecondition(
            "the enclosing genus has no derived name yet (derive top-down)");
      }
      return name;
    }
  }
}

Result<Oid> TaxonomyDatabase::NewCombination(Oid base_name, Oid genus_name,
                                             const std::string& deriving_author,
                                             std::int64_t derivation_year,
                                             Rank rank) {
  PROMETHEUS_ASSIGN_OR_RETURN(Value element,
                              db_->GetAttribute(base_name, "name_element"));
  PROMETHEUS_ASSIGN_OR_RETURN(Value orig_author,
                              db_->GetAttribute(base_name, "author"));
  std::string author = "(" + OriginalAuthor(orig_author.AsString()) + ")" +
                       deriving_author;
  PROMETHEUS_ASSIGN_OR_RETURN(
      Oid combo, PublishName(element.AsString(), rank, author,
                             derivation_year));
  PROMETHEUS_RETURN_IF_ERROR(RecordPlacement(combo, genus_name));
  // The new combination keeps the base name's type (thesis figure 3: the
  // type of Apium repens becomes the type of Heliosciadium repens).
  std::vector<Oid> types = PrimaryTypeSpecimensOf(base_name);
  if (!types.empty()) {
    PROMETHEUS_RETURN_IF_ERROR(
        Typify(combo, types.front(), TypeKind::kHolotype));
  }
  return combo;
}

Status TaxonomyDatabase::SetCalculatedName(Oid taxon, Oid name) {
  for (Oid lid :
       db_->IncidentLinks(taxon, Direction::kOut,
                          db_->FindRelationship(kCalculatedNameRel))) {
    PROMETHEUS_RETURN_IF_ERROR(db_->DeleteLink(lid));
  }
  return db_->CreateLink(kCalculatedNameRel, taxon, name).status();
}

Result<DerivationResult> TaxonomyDatabase::DeriveName(
    Oid classification, Oid taxon, const std::string& deriving_author,
    std::int64_t derivation_year) {
  if (!db_->IsInstanceOf(taxon, kTaxonClass)) {
    return Status::InvalidArgument("@" + std::to_string(taxon) +
                                   " is not a circumscription taxon");
  }
  PROMETHEUS_ASSIGN_OR_RETURN(Rank rank, RankOf(taxon));
  PROMETHEUS_ASSIGN_OR_RETURN(std::vector<Oid> specimens,
                              SpecimensUnder(classification, taxon));
  if (specimens.empty()) {
    return Status::FailedPrecondition(
        "taxon has no circumscribed specimens; name derivation is "
        "specimen-based (thesis 2.1.2)");
  }

  // Candidate names: climb the type hierarchy bottom-up from every primary
  // type specimen (unified through instance synonymy) to names published
  // at the taxon's rank.
  std::unordered_set<Oid> candidate_set;
  std::vector<Oid> candidates;
  auto year_of = [&](Oid name) {
    auto v = db_->GetAttribute(name, "year");
    return v.ok() && v.value().type() == ValueType::kInt
               ? v.value().AsInt()
               : std::int64_t{0};
  };
  for (Oid specimen : specimens) {
    for (Oid duplicate : db_->SynonymSet(specimen)) {
      // Names directly typified by this specimen through a primary type.
      std::vector<Oid> frontier;
      for (Oid lid : db_->IncidentLinks(
               duplicate, Direction::kIn,
               db_->FindRelationship(kTypifiedBySpecimenRel))) {
        const Link* link = db_->GetLink(lid);
        auto k = link->attrs.find("type_kind");
        if (k == link->attrs.end() ||
            k->second.type() != ValueType::kString) {
          continue;
        }
        const std::string& kind = k->second.AsString();
        if (kind != "holotype" && kind != "lectotype" && kind != "neotype") {
          continue;  // isotypes are not used for naming (2.1.2)
        }
        frontier.push_back(link->source);
      }
      // Climb: names typified by names.
      std::unordered_set<Oid> visited;
      while (!frontier.empty()) {
        Oid name = frontier.back();
        frontier.pop_back();
        if (!visited.insert(name).second) continue;
        auto name_rank = RankOf(name);
        // Valid candidates: published or conserved names; invalid and
        // rejected names never compete (figure 6's status hierarchy).
        auto status = NameStatusOf(name);
        const bool valid = status.ok() &&
                           (status.value() == NameStatus::kPublished ||
                            status.value() == NameStatus::kConserved);
        if (valid && name_rank.ok() && name_rank.value() == rank) {
          if (candidate_set.insert(name).second) candidates.push_back(name);
        }
        for (Oid up : db_->Neighbors(name, kTypifiedByNameRel,
                                     Direction::kIn)) {
          frontier.push_back(up);
        }
      }
    }
  }

  DerivationResult result;
  if (candidates.empty()) {
    // No published name fits: elect a type and publish a new name
    // (thesis 2.1.2).
    PROMETHEUS_ASSIGN_OR_RETURN(Value working,
                                db_->GetAttribute(taxon, "working_name"));
    if (working.type() != ValueType::kString || working.AsString().empty()) {
      return Status::FailedPrecondition(
          "cannot publish a new name: the taxon has no working name");
    }
    PROMETHEUS_ASSIGN_OR_RETURN(
        Oid fresh, PublishName(working.AsString(), rank, deriving_author,
                               derivation_year));
    if (IsMultinomial(rank)) {
      PROMETHEUS_ASSIGN_OR_RETURN(Oid genus,
                                  GenusAncestorName(classification, taxon));
      PROMETHEUS_RETURN_IF_ERROR(RecordPlacement(fresh, genus));
    }
    Oid elected = *std::min_element(specimens.begin(), specimens.end());
    PROMETHEUS_RETURN_IF_ERROR(Typify(fresh, elected, TypeKind::kHolotype));
    result.name = fresh;
    result.newly_published = true;
  } else {
    // Conserved names override priority (ICBN conservation); otherwise the
    // oldest validly published candidate wins.
    auto conserved = [&](Oid name) {
      auto status = NameStatusOf(name);
      return status.ok() && status.value() == NameStatus::kConserved;
    };
    Oid best = candidates.front();
    for (Oid c : candidates) {
      const bool c_cons = conserved(c);
      const bool b_cons = conserved(best);
      if (c_cons != b_cons) {
        if (c_cons) best = c;
        continue;
      }
      std::int64_t cy = year_of(c);
      std::int64_t by = year_of(best);
      if (cy < by || (cy == by && c < best)) best = c;
    }
    result.name = best;
    if (IsMultinomial(rank)) {
      PROMETHEUS_ASSIGN_OR_RETURN(Oid genus,
                                  GenusAncestorName(classification, taxon));
      if (PlacementOf(best) != genus) {
        // The combination <genus, epithet> must exist; reuse a published
        // one or publish a new combination.
        PROMETHEUS_ASSIGN_OR_RETURN(
            Value element, db_->GetAttribute(best, "name_element"));
        Oid existing = kNullOid;
        for (Oid name : db_->Extent(kNameClass)) {
          if (name == best) continue;
          auto el = db_->GetAttribute(name, "name_element");
          auto rk = RankOf(name);
          if (el.ok() && el.value().Equals(element) && rk.ok() &&
              rk.value() == rank && PlacementOf(name) == genus) {
            if (existing == kNullOid || year_of(name) < year_of(existing)) {
              existing = name;
            }
          }
        }
        if (existing != kNullOid) {
          result.name = existing;
        } else {
          PROMETHEUS_ASSIGN_OR_RETURN(
              result.name, NewCombination(best, genus, deriving_author,
                                          derivation_year, rank));
          result.newly_published = true;
        }
      }
    }
  }
  PROMETHEUS_RETURN_IF_ERROR(SetCalculatedName(taxon, result.name));
  PROMETHEUS_ASSIGN_OR_RETURN(result.full_name, FullName(result.name));
  return result;
}

Status TaxonomyDatabase::DeriveAllNames(Oid classification,
                                        const std::string& deriving_author,
                                        std::int64_t derivation_year) {
  // Top-down: genus combinations must exist before their binomials
  // (thesis 2.1.2: assignment is top-down).
  std::vector<Oid> taxa;
  for (Oid member : classifications_->Members(classification)) {
    if (db_->IsInstanceOf(member, kTaxonClass)) taxa.push_back(member);
  }
  std::stable_sort(taxa.begin(), taxa.end(), [&](Oid a, Oid b) {
    auto ra = db_->GetAttribute(a, "rank_order");
    auto rb = db_->GetAttribute(b, "rank_order");
    std::int64_t oa = ra.ok() && ra.value().type() == ValueType::kInt
                          ? ra.value().AsInt()
                          : 0;
    std::int64_t ob = rb.ok() && rb.value().type() == ValueType::kInt
                          ? rb.value().AsInt()
                          : 0;
    if (oa != ob) return oa < ob;
    return a < b;
  });
  for (Oid taxon : taxa) {
    PROMETHEUS_RETURN_IF_ERROR(
        DeriveName(classification, taxon, deriving_author, derivation_year)
            .status());
  }
  return Status::Ok();
}

// --------------------------------------------------------------- synonymy

OverlapReport TaxonomyDatabase::CompareTaxa(Oid classification_a, Oid taxon_a,
                                            Oid classification_b,
                                            Oid taxon_b) const {
  auto canonical_specimens = [this](Oid ctx, Oid taxon) {
    std::unordered_set<Oid> out;
    auto specimens = SpecimensUnder(ctx, taxon);
    if (specimens.ok()) {
      for (Oid s : specimens.value()) out.insert(db_->CanonicalOf(s));
    }
    return out;
  };
  std::unordered_set<Oid> a = canonical_specimens(classification_a, taxon_a);
  std::unordered_set<Oid> b = canonical_specimens(classification_b, taxon_b);
  OverlapReport report;
  for (Oid x : a) {
    if (b.count(x)) {
      report.shared.push_back(x);
    } else {
      report.only_a.push_back(x);
    }
  }
  for (Oid x : b) {
    if (!a.count(x)) report.only_b.push_back(x);
  }
  std::sort(report.shared.begin(), report.shared.end());
  std::sort(report.only_a.begin(), report.only_a.end());
  std::sort(report.only_b.begin(), report.only_b.end());
  if (report.shared.empty()) {
    report.kind = SynonymyKind::kNone;
  } else if (report.only_a.empty() && report.only_b.empty()) {
    report.kind = SynonymyKind::kFull;
  } else {
    report.kind = SynonymyKind::kProParte;
  }
  return report;
}

std::vector<TaxonomyDatabase::RevisionOperation>
TaxonomyDatabase::InferRevisionOperations(Oid original, Oid revision) const {
  auto internal_taxa = [this](Oid ctx) {
    std::vector<Oid> out;
    for (Oid member : classifications_->Members(ctx)) {
      if (db_->IsInstanceOf(member, kTaxonClass)) out.push_back(member);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto canonical_specimens = [this](Oid ctx, Oid taxon) {
    std::unordered_set<Oid> out;
    auto specimens = SpecimensUnder(ctx, taxon);
    if (specimens.ok()) {
      for (Oid s : specimens.value()) out.insert(db_->CanonicalOf(s));
    }
    return out;
  };
  auto rank_order_of = [this](Oid taxon) -> std::int64_t {
    auto v = db_->GetAttribute(taxon, "rank_order");
    return v.ok() && v.value().type() == ValueType::kInt ? v.value().AsInt()
                                                         : -1;
  };

  std::vector<Oid> taxa_b = internal_taxa(revision);
  std::vector<std::unordered_set<Oid>> leaves_b;
  leaves_b.reserve(taxa_b.size());
  for (Oid tb : taxa_b) leaves_b.push_back(canonical_specimens(revision, tb));

  // How many original taxa feed each revised taxon (for merge detection).
  std::vector<Oid> taxa_a = internal_taxa(original);
  std::unordered_map<Oid, int> sources_of_b;
  std::vector<std::vector<Oid>> counterparts_of_a(taxa_a.size());
  for (std::size_t i = 0; i < taxa_a.size(); ++i) {
    std::unordered_set<Oid> la = canonical_specimens(original, taxa_a[i]);
    for (std::size_t j = 0; j < taxa_b.size(); ++j) {
      bool overlaps = false;
      for (Oid x : la) {
        if (leaves_b[j].count(x)) {
          overlaps = true;
          break;
        }
      }
      if (overlaps) {
        counterparts_of_a[i].push_back(taxa_b[j]);
        sources_of_b[taxa_b[j]] += 1;
      }
    }
  }

  std::vector<RevisionOperation> out;
  for (std::size_t i = 0; i < taxa_a.size(); ++i) {
    RevisionOperation op;
    op.taxon_a = taxa_a[i];
    op.taxa_b = counterparts_of_a[i];
    if (op.taxa_b.empty()) {
      op.kind = RevisionOpKind::kDissolution;
      out.push_back(std::move(op));
      continue;
    }
    if (op.taxa_b.size() > 1) {
      op.kind = RevisionOpKind::kPartition;
      out.push_back(std::move(op));
      continue;
    }
    Oid b = op.taxa_b.front();
    if (sources_of_b[b] > 1) {
      op.kind = RevisionOpKind::kMerge;
      out.push_back(std::move(op));
      continue;
    }
    std::unordered_set<Oid> la = canonical_specimens(original, taxa_a[i]);
    const std::unordered_set<Oid>& lb =
        leaves_b[static_cast<std::size_t>(
            std::find(taxa_b.begin(), taxa_b.end(), b) - taxa_b.begin())];
    if (la != lb) {
      op.kind = RevisionOpKind::kMove;
    } else {
      std::int64_t ra = rank_order_of(taxa_a[i]);
      std::int64_t rb = rank_order_of(b);
      if (ra == rb) {
        op.kind = RevisionOpKind::kRecognition;
      } else if (rb < ra) {
        op.kind = RevisionOpKind::kPromotion;  // smaller order = higher rank
      } else {
        op.kind = RevisionOpKind::kDemotion;
      }
    }
    out.push_back(std::move(op));
  }
  return out;
}

TypeSynonymy TaxonomyDatabase::TypeSynonymyOf(Oid classification_a,
                                              Oid taxon_a,
                                              Oid classification_b,
                                              Oid taxon_b) const {
  OverlapReport overlap =
      CompareTaxa(classification_a, taxon_a, classification_b, taxon_b);
  if (overlap.kind == SynonymyKind::kNone) {
    return TypeSynonymy::kNotSynonyms;
  }
  auto type_set = [this](Oid taxon) {
    std::unordered_set<Oid> out;
    Oid name = CalculatedNameOf(taxon);
    if (name == kNullOid) name = AscribedNameOf(taxon);
    if (name != kNullOid) {
      for (Oid s : PrimaryTypeSpecimensOf(name)) {
        out.insert(db_->CanonicalOf(s));
      }
    }
    return out;
  };
  std::unordered_set<Oid> a = type_set(taxon_a);
  std::unordered_set<Oid> b = type_set(taxon_b);
  for (Oid x : a) {
    if (b.count(x)) return TypeSynonymy::kHomotypic;
  }
  return TypeSynonymy::kHeterotypic;
}

}  // namespace prometheus::taxonomy
