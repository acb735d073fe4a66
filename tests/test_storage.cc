#include <gtest/gtest.h>

#include <sstream>

#include "classification/classification.h"
#include "storage/snapshot.h"

namespace prometheus::storage {
namespace {

AttributeDef Attr(std::string name, ValueType type,
                  Value def = Value::Null()) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  a.default_value = std::move(def);
  return a;
}

TEST(ValueCodecTest, RoundTripsEveryType) {
  std::vector<Value> cases = {
      Value::Null(),
      Value::Bool(true),
      Value::Bool(false),
      Value::Int(-42),
      Value::Double(3.25),
      Value::String(""),
      Value::String("with spaces and \n newline and 5:prefix"),
      Value::Ref(123456789),
      Value::MakeList({Value::Int(1), Value::String("x"),
                       Value::MakeList({Value::Null(), Value::Ref(7)})}),
  };
  for (const Value& v : cases) {
    std::string encoded = EncodeValue(v);
    std::size_t pos = 0;
    auto decoded = DecodeValue(encoded, &pos);
    ASSERT_TRUE(decoded.ok()) << encoded;
    EXPECT_TRUE(decoded.value().Equals(v)) << encoded;
    EXPECT_EQ(pos, encoded.size());
  }
}

TEST(ValueCodecTest, RejectsCorruptInput) {
  std::size_t pos = 0;
  EXPECT_FALSE(DecodeValue("", &pos).ok());
  pos = 0;
  EXPECT_FALSE(DecodeValue("s9999:hi", &pos).ok());
  pos = 0;
  EXPECT_FALSE(DecodeValue("q", &pos).ok());
  pos = 0;
  EXPECT_FALSE(DecodeValue("sZZ:x", &pos).ok());
}

/// Builds a database exercising every persisted feature: inheritance,
/// relationship semantics, link attributes, contexts, synonyms.
void BuildSample(Database* db, ClassificationManager* mgr, Oid* out_ctx) {
  ASSERT_TRUE(db->DefineClass("Taxon", {},
                              {Attr("name", ValueType::kString),
                               Attr("year", ValueType::kInt, Value::Int(0))})
                  .ok());
  ASSERT_TRUE(db->DefineClass("Genus", {"Taxon"}).ok());
  ASSERT_TRUE(db->DefineClass("Specimen", {},
                              {Attr("tags", ValueType::kList)})
                  .ok());
  RelationshipSemantics agg;
  agg.kind = RelationshipKind::kAggregation;
  agg.exclusive = true;
  agg.lifetime_dependent = true;
  agg.max_in = 1;
  ASSERT_TRUE(db->DefineRelationship("circumscribes", "Taxon", "Specimen",
                                     agg,
                                     {Attr("motivation", ValueType::kString)})
                  .ok());
  ASSERT_TRUE(db->DefineRelationship("linked", "Taxon", "Taxon").ok());
  ASSERT_TRUE(db->DefineRelationship("placed_in", "Genus", "Genus", {}, {},
                                     {"linked"})
                  .ok());

  Oid g = db->CreateObject("Genus", {{"name", Value::String("Apium")},
                                     {"year", Value::Int(1753)}})
              .value();
  Oid s1 = db->CreateObject(
                 "Specimen",
                 {{"tags", Value::MakeList({Value::String("holotype")})}})
               .value();
  Oid s2 = db->CreateObject("Specimen").value();
  Oid ctx = mgr->Create("C1", "Linnaeus", 1753, "Sp. Pl.").value();
  ASSERT_TRUE(
      mgr->AddEdge(ctx, "circumscribes", g, s1, "typical leaf").ok());
  ASSERT_TRUE(db->CreateLink("circumscribes", g, s2).ok());
  ASSERT_TRUE(db->DeclareSynonym(s1, s2).ok());
  *out_ctx = ctx;
}

TEST(SnapshotTest, RoundTripPreservesEverything) {
  Database db;
  ClassificationManager mgr(&db);
  Oid ctx = kNullOid;
  BuildSample(&db, &mgr, &ctx);

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(db, buffer).ok());

  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, buffer).ok());

  // Schema survived.
  ASSERT_NE(loaded.FindClass("Genus"), nullptr);
  EXPECT_TRUE(loaded.FindClass("Genus")->IsSubclassOf(
      loaded.FindClass("Taxon")));
  const RelationshipDef* circ = loaded.FindRelationship("circumscribes");
  ASSERT_NE(circ, nullptr);
  EXPECT_TRUE(circ->semantics().exclusive);
  EXPECT_TRUE(circ->semantics().lifetime_dependent);
  EXPECT_EQ(circ->semantics().max_in, 1u);
  EXPECT_TRUE(loaded.FindRelationship("placed_in")
                  ->IsSubrelationshipOf(loaded.FindRelationship("linked")));

  // Same object/link population, same oids.
  EXPECT_EQ(loaded.object_count(), db.object_count());
  EXPECT_EQ(loaded.link_count(), db.link_count());
  for (Oid oid : db.Extent("Taxon")) {
    ASSERT_NE(loaded.GetObject(oid), nullptr);
    EXPECT_TRUE(loaded.GetAttribute(oid, "name").value().Equals(
        db.GetAttribute(oid, "name").value()));
  }
  // List attribute round-tripped.
  Oid s1 = db.Extent("Specimen")[0];
  EXPECT_TRUE(loaded.GetAttribute(s1, "tags").value().Equals(
      db.GetAttribute(s1, "tags").value()));
  // Contexts and link attributes.
  EXPECT_EQ(loaded.LinksInContext(ctx).size(), 1u);
  Oid lid = loaded.LinksInContext(ctx)[0];
  EXPECT_TRUE(loaded.GetLinkAttribute(lid, "motivation")
                  .value()
                  .Equals(Value::String("typical leaf")));
  // Synonyms.
  std::vector<Oid> specimens = db.Extent("Specimen");
  EXPECT_TRUE(loaded.AreSynonyms(specimens[0], specimens[1]));
  // Oid allocation resumes above the snapshot.
  Oid fresh = loaded.CreateObject("Taxon").value();
  EXPECT_EQ(loaded.GetObject(fresh)->oid, fresh);
  EXPECT_GT(fresh, s1);
}

TEST(SnapshotTest, SemanticsStillEnforcedAfterLoad) {
  Database db;
  ClassificationManager mgr(&db);
  Oid ctx = kNullOid;
  BuildSample(&db, &mgr, &ctx);
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(db, buffer).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, buffer).ok());
  // The exclusive circumscription still rejects a second owner.
  Oid g2 = loaded.CreateObject("Genus").value();
  Oid s1 = loaded.Extent("Specimen")[0];
  EXPECT_EQ(loaded.CreateLink("circumscribes", g2, s1).status().code(),
            Status::Code::kConstraintViolation);
}

TEST(SnapshotTest, FileRoundTrip) {
  Database db;
  ClassificationManager mgr(&db);
  Oid ctx = kNullOid;
  BuildSample(&db, &mgr, &ctx);
  const std::string path = ::testing::TempDir() + "/prometheus_snapshot.pdb";
  ASSERT_TRUE(SaveSnapshot(db, path).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, path).ok());
  EXPECT_EQ(loaded.object_count(), db.object_count());
  EXPECT_EQ(loaded.link_count(), db.link_count());
}

TEST(SnapshotTest, LoadRequiresEmptyDatabase) {
  Database db;
  ASSERT_TRUE(db.DefineClass("X").ok());
  std::stringstream buffer;
  buffer << "PROMETHEUS-SNAPSHOT-1\nEND\n";
  EXPECT_EQ(LoadSnapshot(&db, buffer).code(),
            Status::Code::kFailedPrecondition);
}

TEST(SnapshotTest, RejectsCorruptStreams) {
  {
    Database db;
    std::stringstream buffer;
    buffer << "NOT-A-SNAPSHOT\n";
    EXPECT_EQ(LoadSnapshot(&db, buffer).code(), Status::Code::kIoError);
  }
  {
    Database db;
    std::stringstream buffer;
    buffer << "PROMETHEUS-SNAPSHOT-1\nBOGUS record\n";
    EXPECT_EQ(LoadSnapshot(&db, buffer).code(), Status::Code::kIoError);
  }
  {
    // Missing END (truncated file).
    Database db;
    std::stringstream buffer;
    buffer << "PROMETHEUS-SNAPSHOT-1\n";
    EXPECT_EQ(LoadSnapshot(&db, buffer).code(), Status::Code::kIoError);
  }
  {
    Database db;
    EXPECT_EQ(LoadSnapshot(&db, "/nonexistent/path/x.pdb").code(),
              Status::Code::kIoError);
  }
}

TEST(SnapshotTest, MethodsAndTemplatesSurvive) {
  Database db;
  ASSERT_TRUE(db.DefineClass("Taxon").ok());
  MethodDef method;
  method.name = "full_name";
  method.return_type = "string";
  method.parameters = {{"bool", "with_author"}};
  ASSERT_TRUE(db.DefineMethod("Taxon", method).ok());
  RelationshipSemantics sem;
  sem.exclusive = true;
  sem.exclusivity_group = "grp";
  AttributeDef why;
  why.name = "why";
  why.type = ValueType::kString;
  ASSERT_TRUE(db.DefineRelationshipTemplate("tpl", sem, {why}).ok());

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(db, buffer).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, buffer).ok());

  const MethodDef* m =
      loaded.live_store().FindMethod(loaded.FindClass("Taxon"), "full_name");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->return_type, "string");
  ASSERT_EQ(m->parameters.size(), 1u);
  EXPECT_EQ(m->parameters[0].first, "bool");
  const RelationshipTemplate* tpl = loaded.FindTemplate("tpl");
  ASSERT_NE(tpl, nullptr);
  EXPECT_TRUE(tpl->semantics.exclusive);
  EXPECT_EQ(tpl->semantics.exclusivity_group, "grp");
  ASSERT_EQ(tpl->attributes.size(), 1u);
  EXPECT_EQ(tpl->attributes[0].name, "why");
}

TEST(SnapshotTest, EmptyDatabaseRoundTrips) {
  Database db;
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(db, buffer).ok());
  Database loaded;
  ASSERT_TRUE(LoadSnapshot(&loaded, buffer).ok());
  EXPECT_EQ(loaded.object_count(), 0u);
  EXPECT_TRUE(loaded.classes().empty());
}

}  // namespace
}  // namespace prometheus::storage
