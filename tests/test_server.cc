// The service layer (src/server/): envelope round-trips, backpressure,
// shutdown semantics, and the concurrency stress the subsystem exists for —
// many reader threads and a writer over one database, with the epoch guard
// keeping every read a consistent snapshot.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/admission.h"
#include "server/client.h"
#include "server/executor.h"
#include "server/server.h"
#include "storage/fault.h"
#include "storage/recovery.h"
#include "taxonomy/synthetic.h"
#include "taxonomy/taxonomy_db.h"

namespace {

namespace fs = std::filesystem;

using prometheus::AttributeDef;
using prometheus::Database;
using prometheus::Oid;
using prometheus::Status;
using prometheus::Value;
using prometheus::ValueType;
using prometheus::server::AdmissionController;
using prometheus::server::AdmissionOptions;
using prometheus::server::Client;
using prometheus::server::DeadlineClock;
using prometheus::server::kNoDeadline;
using prometheus::server::Priority;
using prometheus::server::Request;
using prometheus::server::RetryPolicy;
using prometheus::server::Response;
using prometheus::server::ResponseCode;
using prometheus::server::Server;
using prometheus::server::ThreadPoolExecutor;
using prometheus::storage::DurableStore;
using prometheus::storage::FaultInjectionEnv;
using prometheus::storage::FaultPolicy;
using prometheus::taxonomy::Flora;
using prometheus::taxonomy::FloraConfig;
using prometheus::taxonomy::GenerateFlora;
using prometheus::taxonomy::TaxonomyDatabase;

AttributeDef Attr(std::string name, ValueType type) {
  AttributeDef def;
  def.name = std::move(name);
  def.type = type;
  return def;
}

/// A one-shot gate two threads rendezvous on.
class Latch {
 public:
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Fresh database with a tiny schema for the envelope tests.
std::unique_ptr<Database> MakePartsDb() {
  auto db = std::make_unique<Database>();
  EXPECT_TRUE(db->DefineClass("Part", {},
                              {Attr("name", ValueType::kString),
                               Attr("a", ValueType::kInt),
                               Attr("b", ValueType::kInt)})
                  .ok());
  return db;
}

// ------------------------------------------------------------- executor

using Disposition = ThreadPoolExecutor::Disposition;
using Admission = ThreadPoolExecutor::Admission;

TEST(ThreadPoolExecutorTest, RunsEveryAcceptedJobExactlyOnce) {
  ThreadPoolExecutor executor({/*threads=*/3, /*queue_capacity=*/128});
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(executor.Submit([&](Disposition d) {
      if (d == Disposition::kRun) ran.fetch_add(1);
    }),
              Admission::kAccepted);
  }
  executor.Shutdown(/*drain=*/true);
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(executor.executed(), 100u);
  EXPECT_EQ(executor.rejected(), 0u);
}

TEST(ThreadPoolExecutorTest, RejectsWhenQueueFull) {
  ThreadPoolExecutor executor({/*threads=*/1, /*queue_capacity=*/1});
  Latch release;
  Latch started;
  ASSERT_EQ(executor.Submit([&](Disposition) {
    started.Release();
    release.Wait();
  }),
            Admission::kAccepted);
  started.Wait();  // worker is busy; queue is empty
  ASSERT_EQ(executor.Submit([](Disposition) {}),
            Admission::kAccepted);  // fills the queue
  // Queue full now: same-priority submissions bounce without blocking.
  EXPECT_EQ(executor.Submit([](Disposition) {}), Admission::kQueueFull);
  EXPECT_GE(executor.rejected(), 1u);
  release.Release();
  executor.Shutdown(/*drain=*/true);
}

TEST(ThreadPoolExecutorTest, DiscardingShutdownStillInvokesQueuedJobs) {
  ThreadPoolExecutor executor({/*threads=*/1, /*queue_capacity=*/64});
  Latch release;
  Latch started;
  ASSERT_EQ(executor.Submit([&](Disposition) {
    started.Release();
    release.Wait();
  }),
            Admission::kAccepted);
  started.Wait();
  std::atomic<int> run_count{0};
  std::atomic<int> discarded{0};
  // Half the queued jobs carry an already-expired deadline: a discarding
  // shutdown does not distinguish — expired and live alike resolve with
  // kShutdown (deadline shedding is a dequeue-time concern; discard never
  // dequeues for execution).
  ThreadPoolExecutor::JobInfo expired_info;
  expired_info.deadline =
      prometheus::server::DeadlineClock::now() - std::chrono::milliseconds(1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(executor.Submit(
                  [&](Disposition d) {
                    (d == Disposition::kRun ? run_count : discarded)
                        .fetch_add(1);
                    EXPECT_EQ(d, Disposition::kShutdown);
                  },
                  i % 2 == 0 ? expired_info : ThreadPoolExecutor::JobInfo{}),
              Admission::kAccepted);
  }
  // Unblock the in-flight job once the queued ones have been discarded
  // (they are invoked with kShutdown before the workers are joined).
  std::thread releaser([&] {
    while (discarded.load() < 10) std::this_thread::yield();
    release.Release();
  });
  executor.Shutdown(/*drain=*/false);
  releaser.join();
  EXPECT_EQ(discarded.load(), 10);
  EXPECT_EQ(run_count.load(), 0);
}

TEST(ThreadPoolExecutorTest, HigherPriorityEvictsQueuedLowerPriority) {
  ThreadPoolExecutor::Options options;
  options.threads = 1;
  options.queue_capacity = 1;
  // Disable the watermarks: this test isolates the full-queue eviction.
  options.admission.shed_low_above = 1.0;
  options.admission.shed_normal_above = 1.0;
  ThreadPoolExecutor executor(options);
  Latch release;
  Latch started;
  ASSERT_EQ(executor.Submit([&](Disposition) {
    started.Release();
    release.Wait();
  }),
            Admission::kAccepted);
  started.Wait();
  std::atomic<int> low_shed{0};
  ThreadPoolExecutor::JobInfo low;
  low.priority = prometheus::server::Priority::kLow;
  ASSERT_EQ(executor.Submit(
                [&](Disposition d) {
                  if (d == Disposition::kShed) low_shed.fetch_add(1);
                },
                low),
            Admission::kAccepted);
  // Queue is full. Another low submission bounces; a high one evicts the
  // queued low job and takes its place.
  ASSERT_EQ(executor.Submit([](Disposition) {}, low), Admission::kQueueFull);
  std::atomic<int> high_ran{0};
  ThreadPoolExecutor::JobInfo high;
  high.priority = prometheus::server::Priority::kHigh;
  ASSERT_EQ(executor.Submit(
                [&](Disposition d) {
                  if (d == Disposition::kRun) high_ran.fetch_add(1);
                },
                high),
            Admission::kAccepted);
  EXPECT_EQ(low_shed.load(), 1);
  EXPECT_EQ(executor.shed(), 1u);
  release.Release();
  executor.Shutdown(/*drain=*/true);
  EXPECT_EQ(high_ran.load(), 1);
}

TEST(ThreadPoolExecutorTest, ExpiredJobsShedAtDequeueEvenWhenDraining) {
  ThreadPoolExecutor executor({/*threads=*/1, /*queue_capacity=*/64});
  Latch release;
  Latch started;
  ASSERT_EQ(executor.Submit([&](Disposition) {
    started.Release();
    release.Wait();
  }),
            Admission::kAccepted);
  started.Wait();
  std::atomic<int> expired{0};
  std::atomic<int> ran{0};
  ThreadPoolExecutor::JobInfo hopeless;
  // Already in the past when queued — but queued it is (admission's wait
  // prediction is not seeded here), so the shed happens at dequeue.
  hopeless.deadline =
      prometheus::server::DeadlineClock::now() - std::chrono::milliseconds(1);
  ThreadPoolExecutor::JobInfo live;  // no deadline
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(executor.Submit(
                  [&](Disposition d) {
                    (d == Disposition::kExpired ? expired : ran).fetch_add(1);
                  },
                  i % 2 == 0 ? hopeless : live),
              Admission::kAccepted);
  }
  release.Release();
  executor.Shutdown(/*drain=*/true);  // drain honours deadlines
  EXPECT_EQ(expired.load(), 2);
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(executor.expired(), 2u);
}

// ------------------------------------------------------------- envelope

TEST(ServerTest, PingReportsEpoch) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  auto epoch = client.Ping();
  ASSERT_TRUE(epoch.ok());
  // A mutation bumps the epoch the next ping observes.
  ASSERT_TRUE(client.CreateObject("Part").ok());
  auto epoch2 = client.Ping();
  ASSERT_TRUE(epoch2.ok());
  EXPECT_GT(epoch2.value(), epoch.value());
}

TEST(ServerTest, QueryAndMutationRoundTrip) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);

  auto oid = client.CreateObject(
      "Part", {{"name", Value::String("gear")}, {"a", Value::Int(1)}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(client.SetAttribute(oid.value(), "a", Value::Int(7)).ok());

  auto rows = client.Query("select p.name, p.a from Part p");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().rows.size(), 1u);
  EXPECT_EQ(rows.value().rows[0][0].AsString(), "gear");
  EXPECT_EQ(rows.value().rows[0][1].AsInt(), 7);

  ASSERT_TRUE(client.DeleteObject(oid.value()).ok());
  auto empty = client.Query("select p from Part p");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().rows.empty());
}

TEST(ServerTest, ErrorsTravelBackAsStatuses) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);

  auto parse = client.Query("select from nowhere");
  EXPECT_EQ(parse.status().code(), Status::Code::kParseError);

  EXPECT_EQ(client.SetAttribute(999999, "a", Value::Int(1)).code(),
            Status::Code::kNotFound);
  EXPECT_EQ(client.CreateObject("NoSuchClass").status().code(),
            Status::Code::kNotFound);
}

TEST(ServerTest, CustomMutationMayUseTransactions) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);

  Status st = client.Mutate([](Database& db) {
    PROMETHEUS_RETURN_IF_ERROR(db.Begin());
    auto a = db.CreateObject("Part", {{"a", Value::Int(1)}});
    if (!a.ok()) return a.status();
    return db.Commit();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(db->object_count(), 1u);
}

TEST(ServerTest, DanglingTransactionIsRolledBack) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);

  Status st = client.Mutate([](Database& db) {
    PROMETHEUS_RETURN_IF_ERROR(db.Begin());
    return db.CreateObject("Part").status();  // forgets to commit
  });
  EXPECT_EQ(st.code(), Status::Code::kFailedPrecondition);
  EXPECT_FALSE(db->in_transaction());
  EXPECT_EQ(db->object_count(), 0u);  // rolled back
}

// ---------------------------------------------- backpressure & shutdown

TEST(ServerTest, BackpressureRejectsWhenQueueFull) {
  auto db = MakePartsDb();
  Server::Options options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  Server server(db.get(), options);
  auto session = server.Connect();

  Latch release;
  Latch started;
  std::future<Response> blocker =
      session->Submit(Request::Custom([&](Database&) {
        started.Release();
        release.Wait();
        return Status::Ok();
      }));
  started.Wait();

  std::future<Response> queued = session->Submit(Request::Query(
      "select p from Part p"));  // occupies the single queue slot

  // Everything beyond the queue bounces immediately with kRejected.
  std::vector<std::future<Response>> bounced;
  for (int i = 0; i < 5; ++i) {
    bounced.push_back(session->Submit(Request::Ping()));
  }
  int rejected = 0;
  for (auto& f : bounced) {
    Response r = f.get();
    if (r.code == ResponseCode::kRejected) ++rejected;
    EXPECT_EQ(r.status.code(), Status::Code::kFailedPrecondition);
  }
  EXPECT_EQ(rejected, 5);

  release.Release();
  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);
  EXPECT_EQ(queued.get().code, ResponseCode::kOk);
  EXPECT_GE(server.stats().rejected, 5u);
}

TEST(ServerTest, DrainingShutdownCompletesQueuedRequests) {
  auto db = MakePartsDb();
  Server::Options options;
  options.worker_threads = 1;
  options.queue_capacity = 64;
  Server server(db.get(), options);
  auto session = server.Connect();

  Latch release;
  Latch started;
  std::future<Response> blocker =
      session->Submit(Request::Custom([&](Database&) {
        started.Release();
        release.Wait();
        return Status::Ok();
      }));
  started.Wait();

  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 10; ++i) {
    queued.push_back(session->Submit(Request::CreateObject("Part")));
  }
  release.Release();
  server.Shutdown(/*drain=*/true);

  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);
  for (auto& f : queued) {
    Response r = f.get();
    EXPECT_EQ(r.code, ResponseCode::kOk);
    EXPECT_TRUE(r.status.ok());
  }
  EXPECT_EQ(db->object_count(), 10u);

  // After shutdown every submission resolves as kShutdown.
  Response late = session->Submit(Request::Ping()).get();
  EXPECT_EQ(late.code, ResponseCode::kShutdown);
}

TEST(ServerTest, DiscardingShutdownResolvesQueuedAsShutdown) {
  auto db = MakePartsDb();
  Server::Options options;
  options.worker_threads = 1;
  options.queue_capacity = 64;
  Server server(db.get(), options);
  auto session = server.Connect();

  Latch release;
  Latch started;
  std::future<Response> blocker =
      session->Submit(Request::Custom([&](Database&) {
        started.Release();
        release.Wait();
        return Status::Ok();
      }));
  started.Wait();

  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 10; ++i) {
    queued.push_back(session->Submit(Request::CreateObject("Part")));
  }
  // The queued requests resolve (kShutdown) during the discard phase,
  // before workers are joined; only then is the in-flight one released.
  std::thread releaser([&] {
    for (auto& f : queued) f.wait();
    release.Release();
  });
  server.Shutdown(/*drain=*/false);
  releaser.join();

  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);  // in-flight completed
  for (auto& f : queued) {
    EXPECT_EQ(f.get().code, ResponseCode::kShutdown);
  }
  EXPECT_EQ(db->object_count(), 0u);  // none of the discarded ones ran
}

TEST(ServerTest, ClosedSessionRefusesSubmissions) {
  auto db = MakePartsDb();
  Server server(db.get());
  auto session = server.Connect();
  EXPECT_EQ(server.sessions().active(), 1u);
  server.sessions().Close(session->id());
  EXPECT_EQ(server.sessions().active(), 0u);
  EXPECT_TRUE(session->closed());
  Response r = session->Submit(Request::Ping()).get();
  EXPECT_EQ(r.code, ResponseCode::kShutdown);
  server.sessions().Close(session->id());  // double close is fine
}

TEST(ServerTest, SessionsAreIndependentClients) {
  auto db = MakePartsDb();
  Server server(db.get());
  auto a = server.Connect();
  auto b = server.Connect();
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(server.sessions().active(), 2u);
  EXPECT_EQ(server.sessions().opened_total(), 2u);
  server.sessions().Close(a->id());
  EXPECT_EQ(b->Call(Request::Ping()).code, ResponseCode::kOk);
  EXPECT_EQ(server.sessions().active(), 1u);
}

// ------------------------------------- admission, deadlines & degradation

TEST(AdmissionControllerTest, WatermarksShedLowestPriorityFirst) {
  AdmissionController admission(AdmissionOptions{});
  const auto now = DeadlineClock::now();
  using Decision = AdmissionController::Decision;
  // 60% full: low-priority work is shed, normal and high still admitted.
  EXPECT_EQ(admission.Admit(60, 100, 4, Priority::kLow, kNoDeadline, now),
            Decision::kShedOverload);
  EXPECT_EQ(admission.Admit(60, 100, 4, Priority::kNormal, kNoDeadline, now),
            Decision::kAdmit);
  EXPECT_EQ(admission.Admit(60, 100, 4, Priority::kHigh, kNoDeadline, now),
            Decision::kAdmit);
  // 90% full: normal joins the shed list; high still gets through.
  EXPECT_EQ(admission.Admit(90, 100, 4, Priority::kNormal, kNoDeadline, now),
            Decision::kShedOverload);
  EXPECT_EQ(admission.Admit(90, 100, 4, Priority::kHigh, kNoDeadline, now),
            Decision::kAdmit);
  // Below the low watermark everything is admitted.
  EXPECT_EQ(admission.Admit(10, 100, 4, Priority::kLow, kNoDeadline, now),
            Decision::kAdmit);
}

TEST(AdmissionControllerTest, PredictedQueueWaitRefusesDoomedDeadlines) {
  AdmissionOptions options;
  options.initial_estimate_micros = 1000;  // 1ms per job, seeded
  AdmissionController admission(options);
  const auto now = DeadlineClock::now();
  using Decision = AdmissionController::Decision;
  // 20 queued jobs / 2 workers * 1ms = ~10ms estimated wait.
  EXPECT_NEAR(admission.EstimatedQueueWaitMicros(20, 2), 10000.0, 1.0);
  // A 2ms budget cannot survive a 10ms queue: refused upfront.
  EXPECT_EQ(admission.Admit(20, 100, 2, Priority::kNormal,
                            now + std::chrono::milliseconds(2), now),
            Decision::kWouldExpire);
  // A 50ms budget clears it; so does no deadline at all.
  EXPECT_EQ(admission.Admit(20, 100, 2, Priority::kNormal,
                            now + std::chrono::milliseconds(50), now),
            Decision::kAdmit);
  EXPECT_EQ(admission.Admit(20, 100, 2, Priority::kNormal, kNoDeadline, now),
            Decision::kAdmit);
}

TEST(AdmissionControllerTest, EwmaTracksObservedJobLatency) {
  AdmissionController admission(AdmissionOptions{});
  EXPECT_DOUBLE_EQ(admission.estimated_job_micros(), 0.0);
  admission.RecordJobMicros(100);  // first observation seeds the estimate
  EXPECT_DOUBLE_EQ(admission.estimated_job_micros(), 100.0);
  for (int i = 0; i < 200; ++i) admission.RecordJobMicros(500);
  // Converges toward the sustained value, never overshoots it.
  EXPECT_GT(admission.estimated_job_micros(), 400.0);
  EXPECT_LE(admission.estimated_job_micros(), 500.0);
}

TEST(ServerTest, ExpiredDeadlineIsRefusedAtAdmission) {
  auto db = MakePartsDb();
  Server server(db.get());
  auto session = server.Connect();
  Request req = Request::Query("select p from Part p")
                    .WithDeadline(DeadlineClock::now() -
                                  std::chrono::milliseconds(1));
  Response r = session->Submit(std::move(req)).get();
  EXPECT_EQ(r.code, ResponseCode::kTimedOut);
  EXPECT_FALSE(r.executed);
  EXPECT_EQ(r.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_GE(server.stats().timed_out, 1u);
}

TEST(ServerTest, DrainingShutdownShedsExpiredQueuedRequests) {
  auto db = MakePartsDb();
  Server::Options options;
  options.worker_threads = 1;
  options.queue_capacity = 64;
  Server server(db.get(), options);
  auto session = server.Connect();

  Latch release;
  Latch started;
  std::future<Response> blocker =
      session->Submit(Request::Custom([&](Database&) {
        started.Release();
        release.Wait();
        return Status::Ok();
      }));
  started.Wait();

  // Queue live requests alongside ones whose deadline will pass while the
  // worker is blocked; draining runs the former and sheds the latter.
  const auto soon = DeadlineClock::now() + std::chrono::milliseconds(20);
  std::vector<std::future<Response>> doomed;
  std::vector<std::future<Response>> live;
  for (int i = 0; i < 4; ++i) {
    doomed.push_back(session->Submit(
        Request::CreateObject("Part").WithDeadline(soon)));
    live.push_back(session->Submit(Request::CreateObject("Part")));
  }
  while (DeadlineClock::now() <= soon) std::this_thread::yield();
  release.Release();
  server.Shutdown(/*drain=*/true);

  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);
  for (auto& f : doomed) {
    Response r = f.get();
    EXPECT_EQ(r.code, ResponseCode::kTimedOut);
    EXPECT_FALSE(r.executed);  // shed at dequeue: safe to retry elsewhere
  }
  for (auto& f : live) EXPECT_EQ(f.get().code, ResponseCode::kOk);
  EXPECT_EQ(db->object_count(), 4u);  // only the live ones ran
  EXPECT_GE(server.stats().timed_out, 4u);
}

TEST(ServerTest, QueryTimesOutCooperativelyMidExecution) {
  auto db = MakePartsDb();
  // Enough rows that the self-join (millions of enumerated bindings, no
  // index) cannot finish inside the budget.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        db->CreateObject("Part", {{"a", Value::Int(i)}, {"b", Value::Int(i)}})
            .ok());
  }
  Server server(db.get());
  Client client(&server);
  Response r = client.Call(
      Request::Query("select p.a, q.a from Part p, Part q "
                     "where p.a = q.a and p.b = q.b")
          .WithTimeout(std::chrono::milliseconds(5)));
  EXPECT_EQ(r.code, ResponseCode::kTimedOut);
  EXPECT_TRUE(r.executed);  // it ran — retrying is the caller's judgement
  EXPECT_EQ(r.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_FALSE(Client::Retryable(r));
  // The same query without a deadline completes fine (and pays no
  // cancellation checks on the way).
  Response full = client.Call(Request::Query(
      "select p.a from Part p where p.a = 3"));
  EXPECT_TRUE(full.ok());
}

TEST(ServerTest, HealthAnswersWithoutTouchingTheDatabase) {
  auto db = MakePartsDb();
  Server server(db.get());
  Client client(&server);
  ASSERT_TRUE(client.CreateObject("Part").ok());

  // Typed snapshot.
  Server::Health health = client.HealthInfo();
  EXPECT_FALSE(health.degraded);
  EXPECT_TRUE(health.store_status.ok());
  EXPECT_EQ(health.queue_capacity, 256u);
  EXPECT_EQ(health.workers, 4);
  EXPECT_GE(health.stats.accepted, 1u);

  // The kHealth request renders the same as JSON, at high priority.
  auto json = client.Health();
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json.value().find("\"degraded\":false"), std::string::npos);
  EXPECT_NE(json.value().find("\"queue_capacity\":256"), std::string::npos);

  // kHealth executes even while a mutation holds the write guard: it
  // takes no database lock, so a stuck writer cannot starve the probe.
  Latch release;
  Latch started;
  auto session = server.Connect();
  std::future<Response> blocker =
      session->Submit(Request::Custom([&](Database&) {
        started.Release();
        release.Wait();
        return Status::Ok();
      }));
  started.Wait();
  Response probe = client.Call(Request::Health());
  EXPECT_EQ(probe.code, ResponseCode::kOk);
  release.Release();
  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);
}

// The degraded read-only state machine end to end: a journal write failure
// latches the store sticky, the server flips to degraded (queries serve,
// mutations fail fast, never executed), and a successful checkpoint re-arms
// both store and server.
TEST(ServerTest, DegradedReadOnlyModeRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/prometheus_degraded";
  fs::remove_all(dir);
  FaultInjectionEnv env;

  DurableStore::Options store_options;
  store_options.env = &env;
  store_options.bootstrap = [](Database* db) {
    return db->DefineClass("Doc", {}, {Attr("title", ValueType::kString)})
        .status();
  };
  auto store = DurableStore::Open(dir, store_options);
  ASSERT_TRUE(store.ok());

  {
    Server::Options options;
    options.store = store.value().get();
    Server server(&store.value()->db(), options);
    Client client(&server);

    ASSERT_TRUE(
        client.CreateObject("Doc", {{"title", Value::String("pre")}}).ok());
    EXPECT_FALSE(server.degraded());

    // Break durability. SetPolicy is not synchronised against journal
    // appends, so it runs inside a mutation — serialized with them under
    // the exclusive lock.
    FaultPolicy broken;
    broken.fail_after_appends = 0;  // the very next append fails
    ASSERT_TRUE(client
                    .Mutate([&env, broken](Database&) {
                      env.SetPolicy(broken);
                      return Status::Ok();
                    })
                    .ok());

    // The first failing mutation executes, is vetoed by the journal and
    // reports the I/O error; observing it flips the server to degraded.
    Response failing = client.Call(Request::CreateObject(
        "Doc", {{"title", Value::String("broken")}}));
    EXPECT_EQ(failing.code, ResponseCode::kOk);  // it did run
    EXPECT_TRUE(failing.executed);
    EXPECT_FALSE(failing.status.ok());
    EXPECT_TRUE(server.degraded());

    // Subsequent mutations fail fast: kUnavailable, never executed, and
    // not retryable (patience won't fix a broken journal).
    Response refused = client.Call(Request::CreateObject(
        "Doc", {{"title", Value::String("refused")}}));
    EXPECT_EQ(refused.code, ResponseCode::kUnavailable);
    EXPECT_FALSE(refused.executed);
    EXPECT_EQ(refused.status.code(), Status::Code::kUnavailable);
    EXPECT_FALSE(Client::Retryable(refused));

    // Queries keep serving, and health reports the state.
    auto rows = client.Query("select d.title from Doc d");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().rows.size(), 1u);  // "pre"; "broken" rolled back
    EXPECT_TRUE(client.HealthInfo().degraded);
    EXPECT_GE(server.stats().unavailable, 1u);

    // Heal the filesystem and re-arm via the operator path. Mutations are
    // refused while degraded, so no journal append can race this SetPolicy.
    env.SetPolicy(FaultPolicy{});
    ASSERT_TRUE(client.Checkpoint().ok());
    EXPECT_FALSE(server.degraded());
    EXPECT_FALSE(client.HealthInfo().degraded);

    // Writes flow again — and are durable again.
    ASSERT_TRUE(
        client.CreateObject("Doc", {{"title", Value::String("post")}}).ok());
    server.Shutdown();
    EXPECT_TRUE(store.value()->Sync().ok());
  }
  store.value().reset();  // close the journal

  auto reopened = DurableStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->db().object_count(), 2u);  // pre + post
  fs::remove_all(dir);
}

TEST(ClientRetryTest, RetryableCoversExactlyTheSafeOutcomes) {
  Response r;
  r.code = ResponseCode::kRejected;
  EXPECT_TRUE(Client::Retryable(r));  // never ran
  r.code = ResponseCode::kTimedOut;
  r.executed = false;
  EXPECT_TRUE(Client::Retryable(r));  // shed from the queue, never ran
  r.executed = true;
  EXPECT_FALSE(Client::Retryable(r));  // aborted mid-execution
  r.code = ResponseCode::kUnavailable;
  r.executed = false;
  EXPECT_FALSE(Client::Retryable(r));  // needs an operator, not patience
  r.code = ResponseCode::kShutdown;
  EXPECT_FALSE(Client::Retryable(r));
  r.code = ResponseCode::kOk;
  EXPECT_FALSE(Client::Retryable(r));
}

TEST(ClientRetryTest, GivesUpAfterMaxAttemptsAgainstAFullQueue) {
  auto db = MakePartsDb();
  Server::Options options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  Server server(db.get(), options);
  Client client(&server);

  Latch release;
  Latch started;
  auto session = server.Connect();
  std::future<Response> blocker =
      session->Submit(Request::Custom([&](Database&) {
        started.Release();
        release.Wait();
        return Status::Ok();
      }));
  started.Wait();
  std::future<Response> queued =
      session->Submit(Request::Query("select p from Part p"));

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::microseconds(100);
  policy.max_backoff = std::chrono::microseconds(500);
  const std::uint64_t rejected_before = server.stats().rejected;
  Response r = client.CallWithRetry(Request::Ping(), policy);
  EXPECT_EQ(r.code, ResponseCode::kRejected);
  EXPECT_EQ(server.stats().rejected - rejected_before, 3u);  // one per try

  release.Release();
  EXPECT_EQ(blocker.get().code, ResponseCode::kOk);
  EXPECT_EQ(queued.get().code, ResponseCode::kOk);

  // With the queue free again the same call succeeds on the first try.
  Response again = client.CallWithRetry(Request::Ping(), policy);
  EXPECT_EQ(again.code, ResponseCode::kOk);
}

// ------------------------------------------------------ concurrency stress

// N reader threads + 1 writer thread over a seeded synthetic taxonomy.
// The writer updates two attributes of one taxon to the same fresh value
// inside a single mutation request; each reader query must observe the
// pair consistent (no torn reads — the epoch guard makes every query a
// snapshot). Every submission is accounted for: exactly one response each.
TEST(ServerStressTest, ReadersNeverSeeTornWrites) {
  TaxonomyDatabase tdb;
  FloraConfig flora_config;
  flora_config.families = 2;
  flora_config.genera_per_family = 3;
  flora_config.species_per_genus = 5;
  flora_config.specimens_per_species = 2;
  auto flora = GenerateFlora(&tdb, flora_config);
  ASSERT_TRUE(flora.ok());
  const Oid victim = flora.value().species_taxa.front();

  Server::Options options;
  options.worker_threads = 4;
  options.queue_capacity = 4096;
  Server server(&tdb.db(), options);

  constexpr int kReaders = 4;
  constexpr int kReadsPerReader = 150;
  constexpr int kWrites = 100;

  std::atomic<std::uint64_t> responses{0};
  std::atomic<int> torn{0};
  std::atomic<int> transport_failures{0};

  std::vector<std::thread> threads;
  for (int reader = 0; reader < kReaders; ++reader) {
    threads.emplace_back([&] {
      Client client(&server);
      std::uint64_t last_epoch = 0;
      for (int i = 0; i < kReadsPerReader; ++i) {
        Response r = client.Call(Request::Query(
            "select t.working_name, t.rank from CircumscriptionTaxon t "
            "where t.working_name like 'stress-%'"));
        responses.fetch_add(1);
        if (r.code != ResponseCode::kOk || !r.status.ok()) {
          transport_failures.fetch_add(1);
          continue;
        }
        // Snapshot reads observe a non-decreasing epoch.
        EXPECT_GE(r.epoch, last_epoch);
        last_epoch = r.epoch;
        for (const auto& row : r.result->rows) {
          if (!(row[0].Equals(row[1]))) torn.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    Client client(&server);
    for (int i = 0; i < kWrites; ++i) {
      const std::string v = "stress-" + std::to_string(i);
      Response r = client.Call(Request::Custom([victim, v](Database& db) {
        PROMETHEUS_RETURN_IF_ERROR(
            db.SetAttribute(victim, "working_name", Value::String(v)));
        return db.SetAttribute(victim, "rank", Value::String(v));
      }));
      responses.fetch_add(1);
      if (r.code != ResponseCode::kOk || !r.status.ok()) {
        transport_failures.fetch_add(1);
      }
    }
  });
  for (std::thread& t : threads) t.join();
  server.Shutdown();

  const std::uint64_t submitted = kReaders * kReadsPerReader + kWrites;
  EXPECT_EQ(responses.load(), submitted);  // exactly one response each
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(transport_failures.load(), 0);

  Server::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, submitted);
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(kReaders) *
                               kReadsPerReader);
  EXPECT_EQ(stats.mutations, static_cast<std::uint64_t>(kWrites));
  EXPECT_EQ(stats.rejected, 0u);
  // The final write is visible after quiescence.
  auto final_name = tdb.db().GetAttribute(victim, "working_name");
  ASSERT_TRUE(final_name.ok());
  EXPECT_EQ(final_name.value().AsString(),
            "stress-" + std::to_string(kWrites - 1));
}

// Concurrent sessions mutating through a DurableStore-backed database:
// the journal observes a serial history (writers hold the exclusive lock)
// and the store recovers every accepted mutation after reopen.
TEST(ServerStressTest, DurableStoreSurvivesConcurrentWriters) {
  const std::string dir =
      ::testing::TempDir() + "/prometheus_server_durable";
  fs::remove_all(dir);

  DurableStore::Options store_options;
  store_options.bootstrap = [](Database* db) {
    return db->DefineClass("Doc", {}, {Attr("title", ValueType::kString)})
        .status();
  };
  auto store = DurableStore::Open(dir, store_options);
  ASSERT_TRUE(store.ok());

  constexpr int kWriterThreads = 4;
  constexpr int kDocsPerWriter = 50;
  {
    Server::Options options;
    options.worker_threads = 4;
    options.queue_capacity = 4096;
    Server server(&store.value()->db(), options);
    std::vector<std::thread> writers;
    std::atomic<int> failures{0};
    for (int w = 0; w < kWriterThreads; ++w) {
      writers.emplace_back([&, w] {
        Client client(&server);
        for (int i = 0; i < kDocsPerWriter; ++i) {
          auto oid = client.CreateObject(
              "Doc", {{"title", Value::String("d" + std::to_string(w) + "-" +
                                              std::to_string(i))}});
          if (!oid.ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& t : writers) t.join();
    server.Shutdown();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_TRUE(store.value()->Sync().ok());
  }
  EXPECT_EQ(store.value()->db().object_count(),
            static_cast<std::size_t>(kWriterThreads * kDocsPerWriter));
  store.value().reset();  // close the journal

  auto reopened = DurableStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->db().object_count(),
            static_cast<std::size_t>(kWriterThreads * kDocsPerWriter));
  fs::remove_all(dir);
}

}  // namespace
