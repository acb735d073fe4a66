// The thesis' *other* motivating domain (chapter 1): a library catalogue
// where books belong to several overlapping classification schemes at once
// (subject, author nationality, publisher). Nothing here is
// taxonomy-specific — the classification mechanism is orthogonal to the
// classified data (requirements 11 and 12), which is exactly what this
// example demonstrates: the same `Database` + `ClassificationManager` +
// POOL stack, applied to books.

#include <cstdio>

#include "classification/classification.h"
#include "query/query_engine.h"

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
  ClassificationManager catalogues(&db);
  pool::QueryEngine query;

  Check(db.DefineClass("Book", {},
                       {Attr("title", ValueType::kString),
                        Attr("author", ValueType::kString),
                        Attr("year", ValueType::kInt)})
            .status(),
        "define Book");
  Check(db.DefineClass("Category", {}, {Attr("label", ValueType::kString)})
            .status(),
        "define Category");
  Check(db.DefineRelationship("shelved_under", "Category", "Book", {},
                              {Attr("motivation", ValueType::kString)})
            .status(),
        "define shelved_under");
  Check(db.DefineRelationship("subcategory_of", "Category", "Category")
            .status(),
        "define subcategory_of");

  auto book = [&](const char* title, const char* author, int year) {
    return db.CreateObject("Book", {{"title", Value::String(title)},
                                    {"author", Value::String(author)},
                                    {"year", Value::Int(year)}})
        .value();
  };
  auto category = [&](const char* label) {
    return db.CreateObject("Category", {{"label", Value::String(label)}})
        .value();
  };

  Oid mort = book("Mort", "Pratchett", 1987);
  Oid hogfather = book("Hogfather", "Pratchett", 1996);
  Oid neuromancer = book("Neuromancer", "Gibson", 1984);
  Oid dracula = book("Dracula", "Stoker", 1897);

  // Scheme 1: by subject, hierarchical.
  Oid by_subject = catalogues.Create("by subject", "librarian A").value();
  Oid fiction = category("Fiction");
  Oid fantasy = category("Fantasy");
  Oid scifi = category("Science fiction");
  Check(catalogues.AddEdge(by_subject, "subcategory_of", fiction, fantasy)
            .status(),
        "subject tree");
  Check(catalogues.AddEdge(by_subject, "subcategory_of", fiction, scifi)
            .status(),
        "subject tree");
  for (Oid b : {mort, hogfather}) {
    Check(catalogues.AddEdge(by_subject, "shelved_under", fantasy, b)
              .status(),
          "shelve");
  }
  Check(
      catalogues.AddEdge(by_subject, "shelved_under", scifi, neuromancer)
          .status(),
      "shelve");
  Check(catalogues.AddEdge(by_subject, "shelved_under", fiction, dracula,
                           "gothic horror shelved at the top level")
            .status(),
        "shelve");

  // Scheme 2: by era, flat — the same books, independently classified.
  Oid by_era = catalogues.Create("by era", "librarian B").value();
  Oid victorian = category("Victorian");
  Oid modern = category("Modern");
  Check(catalogues.AddEdge(by_era, "shelved_under", victorian, dracula)
            .status(),
        "era");
  for (Oid b : {mort, hogfather, neuromancer}) {
    Check(catalogues.AddEdge(by_era, "shelved_under", modern, b).status(),
          "era");
  }

  std::printf("two overlapping catalogues over %zu books\n",
              db.Extent("Book").size());

  // Recursive containment: everything under Fiction in the subject scheme.
  pool::Environment env{{"fiction", Value::Ref(fiction)},
                        {"subject", Value::Ref(by_subject)}};
  auto under_fiction = query.Eval(
      "count(traverse(fiction, 'shelved_under', 1, 0, 'out', subject)) + "
      "count(traverse(fiction, 'subcategory_of', 1, 0, 'out', subject))",
      db.live_store(), env);
  std::printf("nodes under Fiction (books via shelves + subcategories): "
              "%s\n",
              under_fiction.value().ToString().c_str());

  // Group by across the uniform link extent: books per category per scheme.
  auto per_category = query.Execute(
      "select l.context.name, l.source.label, count(l) "
      "from shelved_under l "
      "group by l.context.name, l.source.label "
      "order by l.source.label",
      db.live_store());
  if (per_category.ok()) {
    std::printf("\nbooks per category:\n");
    for (const auto& row : per_category.value().rows) {
      std::printf("  %-14s %-18s %s\n", row[0].ToString().c_str(),
                  row[1].ToString().c_str(), row[2].ToString().c_str());
    }
  }

  // Cross-scheme comparison: which era category best matches 'Fantasy'?
  auto alignment = catalogues.Align(by_subject, by_era);
  std::printf("\nalignment of subject scheme against era scheme:\n");
  for (const auto& entry : alignment) {
    auto la = db.GetAttribute(entry.taxon_a, "label");
    std::printf("  %-18s -> ", la.ok() ? la.value().ToString().c_str() : "?");
    if (entry.taxon_b == kNullOid) {
      std::printf("(no overlap)\n");
      continue;
    }
    auto lb = db.GetAttribute(entry.taxon_b, "label");
    std::printf("%-12s similarity %.2f\n",
                lb.ok() ? lb.value().ToString().c_str() : "?",
                entry.similarity);
  }

  std::printf("library_catalogue OK\n");
  return 0;
}
