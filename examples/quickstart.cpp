// Quickstart: the Prometheus extended object-oriented database in one
// file — schema with first-class relationships, semantic constraints,
// POOL queries, a rule, and a transaction.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart

#include <cstdio>

#include "core/database.h"
#include "query/query_engine.h"
#include "rules/rule_engine.h"

using namespace prometheus;

namespace {

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) {
    std::printf("FAILED %s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  Database db;

  // 1. Schema: classes plus a *relationship class* — the Prometheus
  //    extension. Relationships are typed, carry attributes and semantics.
  Check(db.DefineClass("Person", {},
                       {Attr("name", ValueType::kString),
                        Attr("age", ValueType::kInt)})
            .status(),
        "define Person");
  Check(db.DefineClass("Company", {}, {Attr("name", ValueType::kString)})
            .status(),
        "define Company");
  RelationshipSemantics sem;
  sem.exclusive = true;  // a person works for at most one company
  Check(db.DefineRelationship("works_for", "Person", "Company", sem,
                              {Attr("since", ValueType::kInt)})
            .status(),
        "define works_for");

  // 2. Instances and links.
  Oid ada = db.CreateObject("Person", {{"name", Value::String("Ada")},
                                       {"age", Value::Int(36)}})
                .value();
  Oid grace = db.CreateObject("Person", {{"name", Value::String("Grace")},
                                         {"age", Value::Int(45)}})
                  .value();
  Oid napier =
      db.CreateObject("Company", {{"name", Value::String("Napier")}})
          .value();
  Check(db.CreateLink("works_for", ada, napier, kNullOid,
                      {{"since", Value::Int(1998)}})
            .status(),
        "link ada");

  // Exclusivity is enforced: Ada cannot work for a second company.
  Oid rbge = db.CreateObject("Company", {{"name", Value::String("RBGE")}})
                 .value();
  Status dup = db.CreateLink("works_for", rbge, ada).status();  // wrong way
  std::printf("wrong-typed link rejected: %s\n", dup.ToString().c_str());

  // 3. A rule: ECA constraint installed against the event layer.
  RuleEngine rules(&db);
  Check(rules
            .AddInvariant("adult", "Person", "self.age >= 18",
                          "people must be adults")
            .status(),
        "install rule");
  Status minor =
      db.CreateObject("Person", {{"age", Value::Int(12)}}).status();
  std::printf("rule veto: %s\n", minor.ToString().c_str());

  // 4. POOL queries: relationships are first-class and queryable.
  pool::QueryEngine query;
  auto rs = query.Execute(
      "select p.name, l.since from works_for l, Person p "
      "where l.source = p order by p.name",
      db.live_store());
  Check(rs.status(), "query");
  for (const auto& row : rs.value().rows) {
    std::printf("employee %s since %s\n", row[0].ToString().c_str(),
                row[1].ToString().c_str());
  }

  // 5. Transactions: everything (objects, links, attributes) rolls back.
  Check(db.Begin(), "begin");
  Check(db.CreateLink("works_for", grace, rbge).status(), "link grace");
  std::printf("links inside txn: %zu\n", db.link_count());
  Check(db.Abort(), "abort");
  std::printf("links after abort: %zu\n", db.link_count());

  std::printf("quickstart OK: %zu objects, %zu links\n", db.object_count(),
              db.link_count());
  return 0;
}
