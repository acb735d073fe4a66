#ifndef PROMETHEUS_TAXONOMY_TAXONOMY_DB_H_
#define PROMETHEUS_TAXONOMY_TAXONOMY_DB_H_

#include <memory>
#include <string>
#include <vector>

#include "classification/classification.h"
#include "common/result.h"
#include "core/database.h"
#include "query/query_engine.h"
#include "rules/rule_engine.h"
#include "taxonomy/rank.h"

namespace prometheus::taxonomy {

/// The kinds of taxonomic types recognised by the ICBN (thesis 2.1.2).
/// Holotype/lectotype/neotype are the *primary* types used for deriving
/// names (in that priority order); isotypes and syntypes never name groups
/// unless elected as lectotypes.
enum class TypeKind : std::uint8_t {
  kHolotype,
  kLectotype,
  kNeotype,
  kIsotype,
  kSyntype,
};

/// Canonical label ("holotype", ...).
const char* TypeKindName(TypeKind kind);

/// True for the kinds usable in name derivation.
bool IsPrimaryType(TypeKind kind);

/// Relation between two compared groups' nomenclatural types
/// (thesis 2.1.3): synonymous groups sharing a taxonomic type are
/// homotypic, others heterotypic.
enum class TypeSynonymy : std::uint8_t {
  kNotSynonyms,
  kHomotypic,
  kHeterotypic,
};

/// Outcome of deriving a name for a circumscription taxon.
struct DerivationResult {
  /// The nomenclatural taxon assigned as the calculated name.
  Oid name = kNullOid;
  /// True when derivation had to publish a new name or a new combination
  /// (e.g. moving an epithet to a different genus, figure 3's
  /// `Heliosciadium repens (Jacq.)Raguenaud`).
  bool newly_published = false;
  /// Rendered full name, e.g. "Heliosciadium repens (Jacq.)Raguenaud.".
  std::string full_name;
};

/// Nomenclatural status of a published name (thesis figure 6:
/// NomenclaturalStatus with ConservedName / RejectedOutright):
///  - kPublished: validly published, competes by priority;
///  - kInvalid: not validly published, never a derivation candidate;
///  - kConserved: sanctioned by the ICBN to *override* priority;
///  - kRejected: outlawed outright, never a candidate.
enum class NameStatus : std::uint8_t {
  kPublished,
  kInvalid,
  kConserved,
  kRejected,
};

/// Canonical label ("published", ...).
const char* NameStatusName(NameStatus status);

/// Class and relationship names of the taxonomic schema, exposed for POOL
/// queries against a `TaxonomyDatabase`.
inline constexpr char kSpecimenClass[] = "Specimen";
inline constexpr char kNameClass[] = "NomenclaturalTaxon";
inline constexpr char kTaxonClass[] = "CircumscriptionTaxon";
inline constexpr char kTypifiedBySpecimenRel[] = "typified_by_specimen";
inline constexpr char kTypifiedByNameRel[] = "typified_by_name";
inline constexpr char kPlacementRel[] = "placement";
inline constexpr char kContainsRel[] = "contains";
inline constexpr char kCircumscribesRel[] = "circumscribes";
inline constexpr char kAscribedNameRel[] = "ascribed_name";
inline constexpr char kCalculatedNameRel[] = "calculated_name";
inline constexpr char kDeterminedAsRel[] = "determined_as";

/// The Prometheus taxonomic application (thesis chapter 2, figure 6),
/// built entirely on the public Prometheus API: nomenclature and
/// classification are separate hierarchies whose only connection points are
/// specimens, multiple overlapping classifications coexist as contexts, and
/// names are *derived* from circumscriptions via type specimens and the
/// ICBN rather than asserted.
class TaxonomyDatabase {
 public:
  /// Builds the schema (classes, relationship classes) in a fresh database.
  /// ICBN rules are installed separately by `InstallIcbnRules` so callers
  /// can load historical data that predates the code.
  TaxonomyDatabase();
  ~TaxonomyDatabase();

  TaxonomyDatabase(const TaxonomyDatabase&) = delete;
  TaxonomyDatabase& operator=(const TaxonomyDatabase&) = delete;

  /// The underlying layers, exposed for queries, what-if transactions and
  /// benchmark instrumentation.
  Database& db() { return *db_; }
  const Database& db() const { return *db_; }
  ClassificationManager& classifications() { return *classifications_; }
  const ClassificationManager& classifications() const {
    return *classifications_;
  }
  RuleEngine& rules() { return *rules_; }
  pool::QueryEngine& query() { return *query_; }
  const pool::QueryEngine& query() const { return *query_; }

  /// Installs the ICBN constraint set of thesis figures 35–40 (family and
  /// genus name form, species epithet form, type existence (warn),
  /// species/series placement, general rank-order placement).
  Status InstallIcbnRules();

  // ------------------------------------------------------------ specimens

  /// Records a herbarium specimen.
  Result<Oid> AddSpecimen(const std::string& collector,
                          const std::string& herbarium,
                          const std::string& field_number,
                          std::int64_t collection_year = 0);

  // --------------------------------------------------------- nomenclature

  /// Publishes a nomenclatural taxon (NT): a name element at a rank with
  /// its authorship and publication. NTs are immutable records of
  /// publication ("valid forever").
  Result<Oid> PublishName(const std::string& element, Rank rank,
                          const std::string& author, std::int64_t year,
                          const std::string& publication = "");

  /// Declares `type` (a specimen, or an NT for supra-specific names) a
  /// taxonomic type of `name`. At most one holotype, one lectotype and one
  /// neotype per name; any number of isotypes/syntypes.
  Status Typify(Oid name, Oid type, TypeKind kind);

  /// Records that `name`'s epithet is combined under `genus_name`
  /// (the placement hierarchy, used only for nomenclatural completeness —
  /// never a classification statement).
  Status RecordPlacement(Oid name, Oid genus_name);

  /// The genus NT `name` is combined under, or kNullOid.
  Oid PlacementOf(Oid name) const;

  /// Type objects of `name`; `kind` of kIsotype etc. filters, nullptr = all.
  std::vector<Oid> TypesOf(Oid name, const TypeKind* kind = nullptr) const;

  /// Primary type specimens of `name` (holo-, lecto-, neotype targets that
  /// are specimens), in ICBN priority order.
  std::vector<Oid> PrimaryTypeSpecimensOf(Oid name) const;

  /// Names directly typified by `type` (specimen or NT).
  std::vector<Oid> NamesTypifiedBy(Oid type) const;

  /// Renders the full name: binomials are combined through the placement
  /// hierarchy ("Apium graveolens L."), uninomials stand alone.
  Result<std::string> FullName(Oid name) const;

  /// Sets / reads the nomenclatural status of a name. Conserved names win
  /// derivation over older candidates; invalid and rejected names are
  /// skipped entirely.
  Status SetNameStatus(Oid name, NameStatus status);
  Result<NameStatus> NameStatusOf(Oid name) const;

  /// Records a determination (thesis 2.1.1): a taxonomist applied `name`
  /// to `specimen` on a herbarium sheet — useful evidence, but carrying no
  /// classification value. Returns the determination link.
  Result<Oid> AddDetermination(Oid specimen, Oid name,
                               const std::string& determiner,
                               std::int64_t year);

  /// Determination links of a specimen (read attributes via
  /// `Database::GetLinkAttribute`).
  std::vector<Oid> DeterminationsOf(Oid specimen) const;

  /// Groups of distinct names sharing the same (element, rank) pair —
  /// homonyms, which the nomenclatural side must keep apart (an NT is the
  /// unique combination of all its parts, thesis 2.3).
  std::vector<std::vector<Oid>> FindHomonyms() const;

  // ------------------------------------------------------ classifications

  /// Creates a classification (revision) entity.
  Result<Oid> NewClassification(const std::string& name,
                                const std::string& author,
                                std::int64_t year = 0,
                                const std::string& publication = "");

  /// Creates a circumscription taxon (CT) at `rank` for use inside
  /// `classification`. `working_name` is the nomenclature-free handle used
  /// during a revision (thesis 2.3).
  Result<Oid> NewTaxon(Oid classification, Rank rank,
                       const std::string& working_name);

  /// Places `child` under `parent` within the classification; `motivation`
  /// records the taxonomist's reasoning (traceability).
  Status PlaceTaxon(Oid classification, Oid parent, Oid child,
                    const std::string& motivation = "");

  /// Adds `specimen` to the circumscription of `taxon`.
  Status Circumscribe(Oid classification, Oid taxon, Oid specimen,
                      const std::string& motivation = "");

  /// Attaches a historically published name to `taxon` (ascribed name —
  /// what the original publication called it, right or wrong).
  Status AscribeName(Oid taxon, Oid name);

  /// The taxon's ascribed / calculated name, or kNullOid.
  Oid AscribedNameOf(Oid taxon) const;
  Oid CalculatedNameOf(Oid taxon) const;

  /// The rank of a CT or NT.
  Result<Rank> RankOf(Oid taxon_or_name) const;

  /// Structural validation of a classification: acyclic, every `contains`
  /// edge descends the rank hierarchy, and circumscription edges only
  /// attach specimens to taxa. Returns the first violation found.
  Status ValidateClassification(Oid classification) const;

  // ------------------------------------------- recursion (requirement 9)

  /// All specimens circumscribed under `taxon` at any depth within
  /// `classification`.
  Result<std::vector<Oid>> SpecimensUnder(Oid classification,
                                          Oid taxon) const;

  /// The subset of `SpecimensUnder` that are primary type specimens of
  /// some published name.
  Result<std::vector<Oid>> TypeSpecimensUnder(Oid classification,
                                              Oid taxon) const;

  // ----------------------------------------------------- name derivation

  /// Derives the name of one CT per the ICBN (thesis 2.1.2 / figure 3):
  /// collect specimens recursively, extract primary type specimens, climb
  /// the type hierarchy to names at the CT's rank, choose the oldest
  /// validly published one; publish a new name (or new combination, for
  /// multinomials moved to a different genus) when none fits. Records the
  /// result as the CT's calculated name. Ancestors of multinomial taxa
  /// must have been derived first (use `DeriveAllNames` for whole
  /// classifications).
  Result<DerivationResult> DeriveName(Oid classification, Oid taxon,
                                      const std::string& deriving_author,
                                      std::int64_t derivation_year);

  /// Derives every taxon of the classification top-down (rank order).
  Status DeriveAllNames(Oid classification,
                        const std::string& deriving_author,
                        std::int64_t derivation_year);

  // -------------------------------------------------------------- synonymy

  /// Specimen-based comparison of two taxa across classifications
  /// (synonym discovery, thesis 2.3): overlap of canonical specimen sets.
  OverlapReport CompareTaxa(Oid classification_a, Oid taxon_a,
                            Oid classification_b, Oid taxon_b) const;

  /// Homotypic vs heterotypic synonymy: synonyms sharing a primary type
  /// specimen (under instance synonymy) are homotypic.
  TypeSynonymy TypeSynonymyOf(Oid classification_a, Oid taxon_a,
                              Oid classification_b, Oid taxon_b) const;

  /// The HICLAS-style operation vocabulary (thesis 2.2) — but *inferred*
  /// from objective specimen overlap rather than asserted by taxonomists,
  /// which is exactly the thesis' criticism of HICLAS: recorded taxon
  /// "life cycles" capture opinions; circumscriptions capture facts.
  enum class RevisionOpKind : std::uint8_t {
    /// Same circumscription, same rank: the revision recognises the taxon.
    kRecognition,
    /// Same circumscription at a different rank, upward / downward.
    kPromotion,
    kDemotion,
    /// One original taxon's specimens were split over several revised taxa.
    kPartition,
    /// Several original taxa were combined into one revised taxon.
    kMerge,
    /// Partial overlap with exactly one revised taxon (specimens moved).
    kMove,
    /// No revised taxon shares any of the original's specimens.
    kDissolution,
  };

  /// One inferred operation relating taxa of the original classification
  /// to taxa of the revision.
  struct RevisionOperation {
    RevisionOpKind kind;
    Oid taxon_a = kNullOid;             ///< taxon in the original
    std::vector<Oid> taxa_b;            ///< counterpart(s) in the revision
  };

  /// Infers, for every internal taxon of `original`, how `revision`
  /// treated it. A taxon counts as a counterpart when the canonical
  /// specimen sets overlap.
  std::vector<RevisionOperation> InferRevisionOperations(Oid original,
                                                         Oid revision) const;

 private:
  Status DefineSchema();
  Result<Oid> GenusAncestorName(Oid classification, Oid taxon) const;
  Result<Oid> NewCombination(Oid base_name, Oid genus_name,
                             const std::string& deriving_author,
                             std::int64_t derivation_year, Rank rank);
  Status SetCalculatedName(Oid taxon, Oid name);

  std::unique_ptr<Database> db_;
  std::unique_ptr<ClassificationManager> classifications_;
  std::unique_ptr<RuleEngine> rules_;
  std::unique_ptr<pool::QueryEngine> query_;
};

}  // namespace prometheus::taxonomy

#endif  // PROMETHEUS_TAXONOMY_TAXONOMY_DB_H_
