// prometheus_shell — an interactive POOL console over a Prometheus
// database, standing in for the thesis prototype's interactive front end
// (the HTTP layer of 6.1.7 played this role remotely).
//
// The shell is a client of the src/server/ service layer: every query and
// mutation travels through a `server::Client`, so the console surfaces the
// same overload/degradation vocabulary a remote front end would see —
// rejected, timed-out and read-only-mode outcomes each get a distinct,
// actionable message instead of a generic error.
//
//   ./build/examples/prometheus_shell [snapshot.pdb]
//   ./build/examples/prometheus_shell --store <dir>    (durable mode)
//   ./build/examples/prometheus_shell --listen <port>  (+ HTTP telemetry)
//   ./build/examples/prometheus_shell --listen <port> --serve   (headless)
//   ./build/examples/prometheus_shell --store <dir> --follow <host:port>
//                                                      (read replica)
//
// With --listen the shell also mounts the remote telemetry plane
// (src/net/): GET /metrics /stats /health /slowlog /debug/requests and
// POST /query /profile on the given port, serving concurrently with the
// console. --serve skips the console loop entirely and serves until
// SIGINT/SIGTERM — the mode the CI smoke job and a scrape target use.
//
// A durable leader with --listen additionally serves /repl/* (manifest,
// snapshot and journal bytes), so another shell started with
// `--store <mirror-dir> --follow <host:port>` replicates from it: the
// follower bootstraps from the leader's newest snapshot, tails its
// journal, and serves read-only queries (mutations answer kUnavailable).
// `.lag` shows replication progress; `.promote` ends replication and
// turns the mirror into a standalone writable leader in place — with
// --listen the promoted shell starts serving /repl/* itself, so
// surviving replicas can be re-pointed at it.
//
// Commands:
//   .help                    this text
//   .classes                 list classes
//   .relationships           list relationship classes
//   .extent <name>           count + first members of an extent
//   .rule <pcl statement>    install a PCL constraint
//   .warnings                show rule warnings
//   .save <file> / .load <file>
//   .demo                    load a small demonstration taxonomy
//   .health                  overload/degradation summary (server-side)
//   .recent                  flight recorder: last completed requests
//   .contention [window]     wait-state breakdown: where request time goes
//                            (queue, guard, execute, journal, ...); with
//                            `window`, deltas since the last windowed call
//   .cache [stats|clear|off|on]
//                            query-cache administration (plan + result
//                            tiers); works on followers and degraded
//                            servers alike
//   .checkpoint              snapshot + journal rotation; re-arms a
//                            degraded store (durable mode)
//   .deadline <ms>           deadline applied to subsequent queries
//                            (0 = none)
//   .lag                     replication progress (follower mode)
//   .promote                 follower -> standalone writable leader
//   .quit
// Anything else is run as a POOL query, e.g.:
//   select t.name from Taxon t where t.rank = 'Genus'
// Prefix a query with `profile` to also print its per-stage span tree.

#include <csignal>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "index/index_manager.h"
#include "net/http_server.h"
#include "query/query_engine.h"
#include "query/render.h"
#include "replication/follower.h"
#include "replication/source.h"
#include "rules/pcl.h"
#include "rules/rule_engine.h"
#include "server/client.h"
#include "server/server.h"
#include "server/telemetry.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"

using namespace prometheus;

namespace {

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef a;
  a.name = std::move(name);
  a.type = type;
  return a;
}

/// Runs one of the server's fixed telemetry queries (server/telemetry.h)
/// on this thread and prints its rows — no queue, so it answers while the
/// server is saturated or degraded.
void PrintCatalog(server::Server& server, const std::string& text) {
  Result<pool::ResultSet> rows = server.QueryCatalog(text);
  if (!rows.ok()) {
    std::printf("%s\n", rows.status().ToString().c_str());
    return;
  }
  std::printf("%s", pool::RenderText(rows.value()).c_str());
}

/// The transport outcomes a remote client would have to handle, each with
/// a shell-appropriate course of action. Returns true when `resp` carried
/// an executed result the caller should go on to print.
bool ExplainTransport(server::Server& server, const server::Response& resp) {
  using server::ResponseCode;
  switch (resp.code) {
    case ResponseCode::kOk:
      return true;
    case ResponseCode::kRejected:
      std::printf("overloaded: %s\n         -> the request never ran; "
                  "retry in a moment (.health shows queue pressure)\n",
                  resp.status.message().c_str());
      return false;
    case ResponseCode::kTimedOut:
      if (resp.executed) {
        std::printf("timed out mid-execution: %s\n         -> the query ran "
                    "past its deadline and was aborted; raise it with "
                    ".deadline <ms>\n",
                    resp.status.message().c_str());
      } else {
        std::printf("timed out in queue: %s\n         -> it never ran; the "
                    "server is saturated (.health) — retry or raise the "
                    "deadline\n",
                    resp.status.message().c_str());
      }
      return false;
    case ResponseCode::kUnavailable:
      std::printf("read-only mode: %s\n         -> queries still serve; "
                  "run .checkpoint to re-arm the store. Current health:\n",
                  resp.status.message().c_str());
      PrintCatalog(server, server::telemetry::kHealth);
      return false;
    case ResponseCode::kShutdown:
      std::printf("server is shutting down\n");
      return false;
  }
  return false;
}

volatile std::sig_atomic_t g_stop = 0;
void HandleStopSignal(int) { g_stop = 1; }

Status LoadDemo(Database& db) {
  if (db.FindClass("Taxon") == nullptr) {
    PROMETHEUS_RETURN_IF_ERROR(
        db.DefineClass("Taxon", {},
                       {Attr("name", ValueType::kString),
                        Attr("rank", ValueType::kString),
                        Attr("year", ValueType::kInt)})
            .status());
    PROMETHEUS_RETURN_IF_ERROR(
        db.DefineRelationship("placed_in", "Taxon", "Taxon", {},
                              {Attr("motivation", ValueType::kString)})
            .status());
  }
  auto mk = [&](const char* name, const char* rank, int year) {
    return db.CreateObject("Taxon", {{"name", Value::String(name)},
                                     {"rank", Value::String(rank)},
                                     {"year", Value::Int(year)}})
        .value_or(kNullOid);
  };
  Oid apiaceae = mk("Apiaceae", "Familia", 1789);
  Oid apium = mk("Apium", "Genus", 1753);
  Oid helio = mk("Heliosciadium", "Genus", 1824);
  Oid graveolens = mk("graveolens", "Species", 1753);
  Oid repens = mk("repens", "Species", 1821);
  (void)db.CreateLink("placed_in", apiaceae, apium);
  (void)db.CreateLink("placed_in", apiaceae, helio);
  (void)db.CreateLink("placed_in", apium, graveolens);
  (void)db.CreateLink("placed_in", helio, repens);
  std::printf("demo taxonomy loaded: %zu taxa, %zu placements\n",
              db.object_count(), db.link_count());
  return Status::Ok();
}

}  // namespace

int main(int argc, char** argv) {
  // Three backing modes: a durable store directory (journalled, supports
  // .checkpoint / degraded-mode recovery), a read replica of a remote
  // leader (--follow; the store directory is the local mirror), or a
  // plain in-memory database optionally seeded from a snapshot file.
  std::unique_ptr<storage::DurableStore> store;
  std::unique_ptr<replication::Follower> follower;
  std::unique_ptr<replication::ReplicationSource> repl_source;
  Database plain_db;
  Database* db = &plain_db;
  int listen_port = -1;     // -1 = no telemetry plane
  bool headless = false;    // --serve: no console, run until a signal
  std::string store_dir, snapshot_path, follow_addr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store" && i + 1 < argc) {
      store_dir = argv[++i];
    } else if (arg == "--listen" && i + 1 < argc) {
      listen_port = std::atoi(argv[++i]);
    } else if (arg == "--follow" && i + 1 < argc) {
      follow_addr = argv[++i];
    } else if (arg == "--serve") {
      headless = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::printf("unknown option %s\n", arg.c_str());
      return 1;
    } else {
      snapshot_path = arg;
    }
  }
  if (headless && listen_port < 0) {
    std::printf("--serve requires --listen <port>\n");
    return 1;
  }
  if (!follow_addr.empty()) {
    // Replica mode: the Follower owns the database, the read-only server
    // and (with --listen) the HTTP plane; the console is a client of it.
    if (store_dir.empty()) {
      std::printf("--follow requires --store <dir> (the local mirror)\n");
      return 1;
    }
    replication::Follower::Options fo;
    fo.dir = store_dir;
    const std::size_t colon = follow_addr.rfind(':');
    if (colon == std::string::npos) {
      fo.leader_port = std::atoi(follow_addr.c_str());
    } else {
      if (colon > 0) fo.leader_host = follow_addr.substr(0, colon);
      fo.leader_port = std::atoi(follow_addr.c_str() + colon + 1);
    }
    if (fo.leader_port <= 0) {
      std::printf("--follow wants <host:port>, got %s\n", follow_addr.c_str());
      return 1;
    }
    fo.serve_http = listen_port >= 0;
    fo.http_port = listen_port < 0 ? 0 : listen_port;
    auto started = replication::Follower::Start(std::move(fo));
    if (!started.ok()) {
      std::printf("cannot start follower in %s: %s\n", store_dir.c_str(),
                  started.status().ToString().c_str());
      return 1;
    }
    follower = std::move(started).value();
    db = &follower->db();
    std::printf("following %s into mirror %s (read-only; .lag shows "
                "progress, .promote takes over)\n",
                follow_addr.c_str(), store_dir.c_str());
    if (!headless && !follower->WaitCaughtUp(3000)) {
      std::printf("still catching up — queries may see a stale prefix "
                  "(.lag to watch)\n");
    }
    if (follower->front_end() != nullptr) {
      std::printf("replica telemetry on http://127.0.0.1:%d\n",
                  follower->http_port());
    }
  } else if (!store_dir.empty()) {
    auto opened = storage::DurableStore::Open(store_dir);
    if (!opened.ok()) {
      std::printf("cannot open store %s: %s\n", store_dir.c_str(),
                  opened.status().ToString().c_str());
      return 1;
    }
    store = std::move(opened).value();
    db = &store->db();
    std::printf("opened store %s: %zu objects, generation %llu\n",
                store_dir.c_str(), db->object_count(),
                static_cast<unsigned long long>(store->generation()));
  } else if (!snapshot_path.empty()) {
    Status st = storage::LoadSnapshot(db, snapshot_path);
    if (!st.ok()) {
      std::printf("cannot load %s: %s\n", snapshot_path.c_str(),
                  st.ToString().c_str());
      return 1;
    }
    std::printf("loaded %s: %zu objects, %zu links\n", snapshot_path.c_str(),
                db->object_count(), db->link_count());
  }
  // The serving stack. Pointers because .promote rebuilds it in place:
  // the follower's read-only server is swapped for a writable one over
  // the promoted store, and the console keeps running.
  std::unique_ptr<IndexManager> indexes;
  std::unique_ptr<RuleEngine> rules;
  std::unique_ptr<server::Server> owned_server;
  server::Server* server = nullptr;
  std::unique_ptr<server::Client> client;
  std::unique_ptr<pool::QueryEngine> engine;
  std::unique_ptr<net::HttpFrontEnd> front_end;

  auto build_stack = [&]() -> bool {
    if (follower != nullptr) {
      // A replica's database is mutated by the fetch thread; the rule
      // engine and index manager would subscribe to its event bus and be
      // read from this thread unsynchronised, so they stay off until
      // .promote. The follower owns the server (read-only role) and,
      // with --listen, the HTTP plane.
      server = &follower->server();
    } else {
      indexes = std::make_unique<IndexManager>(db);
      rules = std::make_unique<RuleEngine>(db);
      server::Server::Options options;
      options.indexes = indexes.get();
      options.store = store.get();
      owned_server = std::make_unique<server::Server>(db, options);
      server = owned_server.get();
    }
    client = std::make_unique<server::Client>(server);
    // An engine for .explain only (planning reads the schema, so it runs
    // under the server's lock like everything else).
    engine = std::make_unique<pool::QueryEngine>(db, indexes.get());

    // The remote telemetry plane, sharing this server with the console.
    // A durable leader also mounts /repl/* so replicas can follow it.
    if (listen_port >= 0 && follower == nullptr) {
      net::HttpFrontEnd::Options net_options;
      net_options.port = listen_port;
      if (store != nullptr) {
        repl_source =
            std::make_unique<replication::ReplicationSource>(store.get());
        net_options.aux_handler = repl_source->AuxHandler();
      }
      front_end = std::make_unique<net::HttpFrontEnd>(server, net_options);
      Status st = front_end->Start();
      if (!st.ok()) {
        std::printf("cannot listen on port %d: %s\n", listen_port,
                    st.ToString().c_str());
        return false;
      }
      std::printf("telemetry plane on http://127.0.0.1:%d — GET /metrics "
                  "/stats /health /slowlog /debug/requests, POST /query "
                  "/profile%s\n",
                  front_end->port(),
                  repl_source != nullptr ? "; /repl/* serves followers" : "");
    }
    return true;
  };
  if (!build_stack()) return 1;

  // While the server runs, database access flows through it; `with_db`
  // runs a closure under the exclusive lock for the meta commands.
  // `with_db_read` is for read-only closures: on a replica they run under
  // the database's shared epoch guard (safe alongside the fetch thread's
  // write guard) instead of the server's mutation path, which a read-only
  // role would refuse.
  auto with_db = [&](std::function<Status(Database&)> fn) {
    Status st = client->Mutate(std::move(fn));
    if (!st.ok()) std::printf("%s\n", st.ToString().c_str());
  };
  auto with_db_read = [&](std::function<Status(Database&)> fn) {
    if (follower != nullptr) {
      Database::ReadGuard guard(*db);
      Status st = fn(*db);
      if (!st.ok()) std::printf("%s\n", st.ToString().c_str());
      return;
    }
    with_db(std::move(fn));
  };

  if (headless) {
    // Scrape-target mode: serve HTTP until SIGINT/SIGTERM.
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("shutting down\n");
    if (follower != nullptr) {
      follower->Stop();
    } else {
      front_end->Stop();
      server->Shutdown();
    }
    return 0;
  }

  std::chrono::milliseconds deadline_ms{0};  // 0 = no deadline

  std::printf("Prometheus shell — type .help for commands, .quit to exit\n");
  std::string line;
  while (std::printf("pool> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    // Trim.
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty()) continue;
    if (line[0] == '.') {
      std::istringstream in(line);
      std::string cmd;
      in >> cmd;
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        std::printf(
            ".classes .relationships .extent <name> .explain <query> "
            ".rule <pcl> .warnings .save <f> .load <f> .demo .health "
            ".recent .contention [window] .cache [stats|clear|off|on] "
            ".sys .checkpoint .deadline <ms> .lag .promote .quit\n"
            "anything else runs as POOL (try: select s from sys.storage s)\n");
      } else if (cmd == ".classes") {
        with_db_read([](Database& db) {
          for (const ClassDef* cls : db.classes()) {
            std::printf("%s%s (%zu attributes)\n", cls->name().c_str(),
                        cls->is_abstract() ? " [abstract]" : "",
                        cls->attributes().size());
          }
          return Status::Ok();
        });
      } else if (cmd == ".relationships") {
        with_db_read([](Database& db) {
          for (const RelationshipDef* rel : db.relationships()) {
            std::printf("%s: %s -> %s\n", rel->name().c_str(),
                        rel->source_class()->name().c_str(),
                        rel->target_class()->name().c_str());
          }
          return Status::Ok();
        });
      } else if (cmd == ".extent") {
        std::string name;
        in >> name;
        with_db_read([&name](Database& db) {
          std::vector<Oid> extent = db.FindClass(name) != nullptr
                                        ? db.Extent(name)
                                        : db.LinkExtent(name);
          std::printf("%zu members", extent.size());
          for (std::size_t i = 0; i < extent.size() && i < 10; ++i) {
            std::printf(" @%llu", static_cast<unsigned long long>(extent[i]));
          }
          std::printf("\n");
          return Status::Ok();
        });
      } else if (cmd == ".explain") {
        std::string q = line.substr(9);
        with_db_read([&](Database&) {
          auto plan = engine->Explain(q);
          std::printf("%s", plan.ok() ? plan.value().c_str()
                                      : (plan.status().ToString() + "\n")
                                            .c_str());
          return Status::Ok();
        });
      } else if (cmd == ".rule") {
        if (rules == nullptr) {
          std::printf("rules are unavailable on a read replica "
                      "(.promote first)\n");
          continue;
        }
        std::string pcl = line.substr(5);
        with_db([&](Database&) {
          auto installed = InstallPcl(rules.get(), pcl);
          std::printf("%s\n", installed.ok()
                                  ? "rule installed"
                                  : installed.status().ToString().c_str());
          return Status::Ok();
        });
      } else if (cmd == ".warnings") {
        if (rules == nullptr) {
          std::printf("rules are unavailable on a read replica "
                      "(.promote first)\n");
          continue;
        }
        for (const RuleViolation& v : rules->warnings()) {
          std::printf("%s: %s\n", v.rule_name.c_str(), v.message.c_str());
        }
        std::printf("(%zu warnings)\n", rules->warnings().size());
      } else if (cmd == ".save") {
        std::string path;
        in >> path;
        with_db_read([&path](Database& db) {
          Status st = storage::SaveSnapshot(db, path);
          std::printf("%s\n", st.ToString().c_str());
          return Status::Ok();
        });
      } else if (cmd == ".load") {
        std::string path;
        in >> path;
        with_db([&path](Database& db) {
          Status st = storage::LoadSnapshot(&db, path);
          std::printf("%s\n", st.ToString().c_str());
          return Status::Ok();
        });
      } else if (cmd == ".demo") {
        with_db([](Database& db) { return LoadDemo(db); });
      } else if (cmd == ".health") {
        PrintCatalog(*server, server::telemetry::kHealth);
      } else if (cmd == ".recent") {
        PrintCatalog(*server, server::telemetry::kRequests);
      } else if (cmd == ".contention") {
        std::string sub;
        in >> sub;
        for (const server::telemetry::Section& section :
             server::telemetry::ContentionSections(sub == "window")) {
          std::printf("%s:\n", section.name);
          PrintCatalog(*server, section.query);
        }
      } else if (cmd == ".sys") {
        // Every class is queryable as an ordinary POOL range
        // (`select m from sys.metrics m where ...`).
        PrintCatalog(*server, server::telemetry::kCatalog);
      } else if (cmd == ".cache") {
        std::string sub;
        in >> sub;
        server::CacheOp op = server::CacheOp::kStats;
        if (sub == "clear") {
          op = server::CacheOp::kClear;
        } else if (sub == "off") {
          op = server::CacheOp::kDisable;
        } else if (sub == "on") {
          op = server::CacheOp::kEnable;
        } else if (!sub.empty() && sub != "stats") {
          std::printf("usage: .cache [stats|clear|off|on]\n");
          continue;
        }
        // Travels as a request like any other — works against the local
        // server and on a read replica (it is not a mutation).
        server::Response resp =
            client->Call(server::Request::CacheControl(op));
        if (!ExplainTransport(*server, resp)) continue;
        if (resp.result == nullptr) {
          std::printf("error: %s\n", resp.status.ToString().c_str());
          continue;
        }
        std::printf("%s", pool::RenderText(*resp.result).c_str());
      } else if (cmd == ".checkpoint") {
        if (store == nullptr) {
          std::printf("no durable store attached — start the shell with "
                      "--store <dir>\n");
        } else {
          Status st = client->Checkpoint();
          if (st.ok()) {
            std::printf("checkpoint written (generation %llu)%s\n",
                        static_cast<unsigned long long>(store->generation()),
                        server->degraded() ? "" : "; store is armed");
          } else {
            std::printf("checkpoint failed: %s\n", st.ToString().c_str());
          }
        }
      } else if (cmd == ".lag") {
        if (follower == nullptr) {
          std::printf("not a replica — start the shell with "
                      "--follow <host:port>\n");
        } else {
          PrintCatalog(*server, server::telemetry::kReplication);
        }
      } else if (cmd == ".promote") {
        if (follower == nullptr) {
          std::printf("not a replica — start the shell with "
                      "--follow <host:port>\n");
        } else {
          // Tear down clients of the follower's server before it stops,
          // then reopen the mirror as a writable store and rebuild the
          // stack (indexes, rules, server, telemetry + /repl/*) over it.
          client.reset();
          engine.reset();
          server = nullptr;
          auto promoted = follower->Promote();
          if (!promoted.ok()) {
            std::printf("promote failed: %s — the replica is stopped, "
                        "exiting\n",
                        promoted.status().ToString().c_str());
            return 1;
          }
          follower.reset();
          store = std::move(promoted).value();
          db = &store->db();
          if (!build_stack()) return 1;
          std::printf("promoted: standalone writable leader over %s "
                      "(generation %llu, %zu objects)\n",
                      store_dir.c_str(),
                      static_cast<unsigned long long>(store->generation()),
                      db->object_count());
        }
      } else if (cmd == ".deadline") {
        long long ms = 0;
        in >> ms;
        deadline_ms = std::chrono::milliseconds(ms < 0 ? 0 : ms);
        if (deadline_ms.count() == 0) {
          std::printf("queries run without a deadline\n");
        } else {
          std::printf("queries now carry a %lld ms deadline\n",
                      static_cast<long long>(deadline_ms.count()));
        }
      } else {
        std::printf("unknown command %s\n", cmd.c_str());
      }
      continue;
    }
    // POOL queries travel through the server like any remote client's
    // would — deadline attached, transport outcome explained.
    server::Request req = server::Request::Query(line);
    if (deadline_ms.count() > 0) req.WithTimeout(deadline_ms);
    server::Response resp = client->Call(std::move(req));
    if (!ExplainTransport(*server, resp)) continue;
    if (!resp.status.ok()) {
      std::printf("error: %s\n", resp.status.ToString().c_str());
      continue;
    }
    std::printf("%s", pool::RenderText(*resp.result).c_str());
    if (!resp.text.empty()) std::printf("%s", resp.text.c_str());
  }
  std::printf("\n");
  if (front_end != nullptr) front_end->Stop();
  return 0;
}
