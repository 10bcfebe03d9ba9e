// The hardened request loop over the deterministic in-memory transport:
// overload shedding (only 429/503 or complete byte-identical answers, at
// 1/2/8 workers), slow-loris and malformed-frame defenses, disconnect
// cancellation, memory-pressure shedding, graceful drain under load, the
// drain-deadline crash report, and warm start from a committed checkpoint.

#include "service/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/application.h"
#include "apps/glossaries.h"
#include "apps/programs.h"
#include "common/fs.h"
#include "common/memory.h"
#include "engine/chase.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "service/snapshot.h"
#include "service/transport.h"

namespace templex {
namespace {

Value S(const char* s) { return Value::String(s); }
Value D(double d) { return Value::Double(d); }

std::vector<Fact> OwnershipFacts() {
  return {{"Own", {S("Alfa"), S("Bravo"), D(0.6)}},
          {"Own", {S("Bravo"), S("Charlie"), D(0.7)}},
          {"Own", {S("Alfa"), S("Delta"), D(0.2)}},
          {"Own", {S("Delta"), S("Charlie"), D(0.4)}}};
}

std::shared_ptr<const KnowledgeGraphApplication> BuildApp(
    ChaseConfig config = ChaseConfig()) {
  auto app = KnowledgeGraphApplication::Create(CompanyControlProgram(),
                                               CompanyControlGlossary());
  EXPECT_TRUE(app.ok()) << app.status().ToString();
  std::shared_ptr<KnowledgeGraphApplication> shared =
      std::move(app).value();
  shared->AddFacts(OwnershipFacts());
  EXPECT_TRUE(shared->Run(std::move(config)).ok());
  return shared;
}

// One /query goal: the request body and the pattern it parses to.
struct QueryGoal {
  std::string body;
  Fact pattern;
};

// The free goal plus bound ones, which the served chase answers from its
// position index: a controller, a controlled company, and a constant absent
// from the graph.
std::vector<QueryGoal> QueryGoals() {
  const Value any = Value::Null();
  return {{"Control(_, _)", Fact("Control", {any, any})},
          {"Control(\"Alfa\", _)", Fact("Control", {S("Alfa"), any})},
          {"Control(\"Bravo\", _)", Fact("Control", {S("Bravo"), any})},
          {"Control(_, \"Charlie\")", Fact("Control", {any, S("Charlie")})},
          {"Control(\"Zulu\", _)", Fact("Control", {S("Zulu"), any})}};
}

// What templex_cli --query prints for `pattern` (one ToString per answer),
// from a plain scan of the predicate's facts in the app's chase — a
// reference independent of Query and the position index it probes.
std::string ExpectedQueryBody(
    const KnowledgeGraphApplication& app,
    const Fact& pattern = Fact("Control", {Value::Null(), Value::Null()})) {
  const ChaseGraph& graph = app.chase().graph;
  std::string out;
  for (FactId id : graph.FactsOf(pattern.predicate)) {
    const Fact& fact = graph.node(id).fact;
    if (fact.arity() != pattern.arity()) continue;
    bool ok = true;
    for (int i = 0; i < pattern.arity(); ++i) {
      if (!pattern.args[i].is_null() && !(pattern.args[i] == fact.args[i])) {
        ok = false;
      }
    }
    if (!ok) continue;
    out += fact.ToString();
    out += "\n";
  }
  return out;
}

std::string PostRequest(const std::string& target, const std::string& body,
                        const std::string& extra_headers = std::string()) {
  return "POST " + target + " HTTP/1.1\r\n" + extra_headers +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

std::string GetRequest(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\n\r\n";
}

// Status line code of a serialized response.
int StatusOf(const std::string& response) {
  if (response.size() < 12) return -1;
  return std::stoi(response.substr(9, 3));
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

// One full round trip over the in-memory wire.
std::string RoundTrip(InMemoryTransport& transport, const std::string& raw,
                      int64_t timeout_ms = 10000) {
  InMemoryClient client = transport.Connect();
  client.Send(raw);
  client.CloseSend();
  Result<std::string> response =
      client.WaitForClose(Deadline::AfterMillis(timeout_ms));
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? response.value() : std::string();
}

TEST(ServerTest, OpsEndpointsTrackWarmupAndReadiness) {
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  obs::MetricsRegistry metrics;
  ChaseProgress progress;
  progress.rounds.store(3);
  progress.facts.store(42);
  ServerOptions options;
  options.num_workers = 2;
  options.metrics = &metrics;
  options.warmup = &progress;
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  EXPECT_EQ(StatusOf(RoundTrip(transport, GetRequest("/healthz"))), 200);
  // Warming: not ready, and the body reports the chase's position.
  std::string readyz = RoundTrip(transport, GetRequest("/readyz"));
  EXPECT_EQ(StatusOf(readyz), 503);
  EXPECT_NE(BodyOf(readyz).find("warming rounds=3 facts=42"),
            std::string::npos);

  snapshots.Publish(BuildApp());
  readyz = RoundTrip(transport, GetRequest("/readyz"));
  EXPECT_EQ(StatusOf(readyz), 200);
  EXPECT_EQ(BodyOf(readyz), "ready epoch=1\n");

  const std::string prom = RoundTrip(transport, GetRequest("/metrics"));
  EXPECT_EQ(StatusOf(prom), 200);
  EXPECT_NE(BodyOf(prom).find("server_connections"), std::string::npos);

  EXPECT_EQ(StatusOf(RoundTrip(transport, GetRequest("/nope"))), 404);
  EXPECT_EQ(StatusOf(RoundTrip(
                transport, PostRequest("/healthz", ""))),
            405);
  EXPECT_EQ(StatusOf(RoundTrip(transport, GetRequest("/query"))), 405);
  EXPECT_TRUE(server.WaitDrained().ok());
}

TEST(ServerTest, QueryAndExplainServeSnapshotAnswers) {
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  auto app = BuildApp();
  snapshots.Publish(app);
  ServerOptions options;
  options.num_workers = 2;
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  const std::string query =
      RoundTrip(transport, PostRequest("/query", "Control(_, _)"));
  EXPECT_EQ(StatusOf(query), 200);
  EXPECT_EQ(BodyOf(query), ExpectedQueryBody(*app));

  const std::string explain = RoundTrip(
      transport, PostRequest("/explain", "Control(Alfa, Charlie)"));
  EXPECT_EQ(StatusOf(explain), 200);
  // The explanation is verbalized text; at minimum it names the entities.
  EXPECT_NE(BodyOf(explain).find("Alfa"), std::string::npos);
  EXPECT_NE(BodyOf(explain).find("Charlie"), std::string::npos);
  // Byte-identity with the library call the CLI makes.
  EXPECT_EQ(BodyOf(explain),
            app->Explain(Fact("Control", {S("Alfa"), S("Charlie")})).value() +
                "\n");

  // Contract errors: bad pattern 400, unknown predicate 400, underivable
  // fact 404, reload without a hook 501.
  EXPECT_EQ(StatusOf(RoundTrip(transport, PostRequest("/query", "???"))),
            400);
  EXPECT_EQ(StatusOf(RoundTrip(transport,
                               PostRequest("/query", "NoSuch(_, _)"))),
            400);
  EXPECT_EQ(StatusOf(RoundTrip(
                transport, PostRequest("/explain", "Control(Alfa, Zulu)"))),
            404);
  EXPECT_EQ(StatusOf(RoundTrip(transport, PostRequest("/reload", ""))),
            501);
  EXPECT_TRUE(server.WaitDrained().ok());
}

TEST(ServerTest, MalformedAndOversizedFramesAreRejected) {
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  snapshots.Publish(BuildApp());
  ServerOptions options;
  options.num_workers = 2;
  options.http_limits.max_header_bytes = 256;
  options.http_limits.max_body_bytes = 512;
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  EXPECT_EQ(StatusOf(RoundTrip(transport, "garbage\r\n\r\n")), 400);
  EXPECT_EQ(StatusOf(RoundTrip(transport,
                               "POST /query HTTP/1.1\r\n"
                               "Content-Length: 100000\r\n\r\n")),
            413);
  std::string huge_headers = "GET /healthz HTTP/1.1\r\n";
  for (int i = 0; i < 32; ++i) {
    huge_headers += "X-Pad-" + std::to_string(i) + ": " +
                    std::string(64, 'p') + "\r\n";
  }
  huge_headers += "\r\n";
  EXPECT_EQ(StatusOf(RoundTrip(transport, huge_headers)), 431);
  // Truncated request: EOF mid-frame answers 400.
  EXPECT_EQ(StatusOf(RoundTrip(transport, "POST /query HTTP/1.1\r\nCon")),
            400);
  EXPECT_TRUE(server.WaitDrained().ok());
}

TEST(ServerTest, SlowLorisIsKilledByTheReadDeadline) {
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  snapshots.Publish(BuildApp());
  obs::MetricsRegistry metrics;
  ServerOptions options;
  options.num_workers = 2;
  options.read_deadline_ms = 50;  // real clock; the test never finishes a
                                  // request, so expiry is deterministic
  options.metrics = &metrics;
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  InMemoryClient client = transport.Connect();
  client.Send("POST /query HTTP/1.1\r\nContent-Le");  // ...and stall
  Result<std::string> response =
      client.WaitForClose(Deadline::AfterMillis(10000));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(StatusOf(response.value()), 408);
  EXPECT_EQ(metrics.counter("server.http.read_timeouts")->value(), 1);
  EXPECT_TRUE(server.WaitDrained().ok());
}

TEST(ServerTest, MemoryPressureShedsUntilBytesRecede) {
  MemoryBudget::Options budget_options;
  budget_options.soft_limit_bytes = 1 << 20;
  budget_options.hard_limit_bytes = 8 << 20;
  MemoryBudget budget(budget_options);
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  snapshots.Publish(BuildApp());
  ServerOptions options;
  options.num_workers = 2;
  options.budget = &budget;
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  budget.Charge(2 << 20);  // past soft: shed
  const std::string shed =
      RoundTrip(transport, PostRequest("/query", "Control(_, _)"));
  EXPECT_EQ(StatusOf(shed), 503);
  EXPECT_NE(shed.find("Retry-After:"), std::string::npos);
  budget.Release(2 << 20);  // bytes receded: admit again (sticky
                            // pressure() would shed forever)
  EXPECT_EQ(StatusOf(RoundTrip(transport,
                               PostRequest("/query", "Control(_, _)"))),
            200);
  EXPECT_TRUE(server.WaitDrained().ok());
}

// A rebuild hook the tests can hold open: blocks until Release() (or
// cancellation, which wins), then returns a fresh app.
class GatedRebuild {
 public:
  Result<std::shared_ptr<const KnowledgeGraphApplication>> operator()(
      const Deadline& deadline, const CancellationToken& cancel) {
    entered_.fetch_add(1, std::memory_order_acq_rel);
    while (!released_.load(std::memory_order_acquire)) {
      if (cancel.cancelled()) {
        return Status(StatusCode::kCancelled, "rebuild cancelled");
      }
      if (deadline.expired()) {
        return Status(StatusCode::kDeadlineExceeded, "rebuild deadline");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return BuildApp();
  }

  void WaitEntered(int count = 1) {
    while (entered_.load(std::memory_order_acquire) < count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  void Release() { released_.store(true, std::memory_order_release); }

 private:
  std::atomic<int> entered_{0};
  std::atomic<bool> released_{false};
};

TEST(ServerTest, OverloadBurstShedsExplicitlyAndCompletionsStayExact) {
  // The acceptance-criteria chaos test: a burst past the caps yields ONLY
  // shed responses (429/503, each with Retry-After) and completed
  // responses byte-identical to the reference scan — free and bound goals,
  // no hangs, no torn responses — at 1, 2, and 8 workers. Phase one is
  // fully deterministic: a gated reload pins active_ at max_inflight=1, so
  // every burst connection must shed from the accept thread. Phase two
  // releases the gate and bursts again: outcomes may mix (racy by design),
  // but every response must be exact-or-shed and at least one must
  // complete. Phase three sends each goal alone.
  auto app = BuildApp();
  const std::vector<QueryGoal> goals = QueryGoals();
  for (int workers : {1, 2, 8}) {
    InMemoryTransport transport;
    SnapshotRegistry snapshots;
    snapshots.Publish(app);
    obs::MetricsRegistry metrics;
    auto rebuild = std::make_shared<GatedRebuild>();
    ServerOptions options;
    options.num_workers = workers;
    options.max_inflight = 1;  // the gated reload IS the wall
    options.metrics = &metrics;
    options.rebuild = [rebuild](const Deadline& deadline,
                                const CancellationToken& cancel) {
      return (*rebuild)(deadline, cancel);
    };
    TemplexServer server(&transport, &snapshots, options);
    server.Start();

    // Occupy the only slot deterministically: the reload blocks at its
    // gate, so active_ stays >= max_inflight for the whole phase.
    InMemoryClient reload_client = transport.Connect();
    reload_client.Send(PostRequest("/reload", ""));
    reload_client.CloseSend();
    rebuild->WaitEntered();

    std::vector<InMemoryClient> burst;
    for (int i = 0; i < 8; ++i) {
      burst.push_back(transport.Connect());
      burst.back().Send(PostRequest("/query", "Control(_, _)"));
      burst.back().CloseSend();
    }
    for (InMemoryClient& client : burst) {
      Result<std::string> response =
          client.WaitForClose(Deadline::AfterMillis(10000));
      ASSERT_TRUE(response.ok())
          << "hung shed response at " << workers << " workers";
      EXPECT_EQ(StatusOf(response.value()), 503)
          << "burst admitted past the wall at " << workers << " workers";
      EXPECT_NE(response.value().find("Retry-After:"), std::string::npos);
    }
    EXPECT_EQ(metrics.counter("server.admission.shed.overflow")->value(),
              8);

    rebuild->Release();
    Result<std::string> reload_response =
        reload_client.WaitForClose(Deadline::AfterMillis(10000));
    ASSERT_TRUE(reload_response.ok());
    EXPECT_EQ(StatusOf(reload_response.value()), 200);
    // The client observes the close a beat before the server retires the
    // connection; wait for the slot to actually free.
    auto wait_slot_free = [&server] {
      for (int spin = 0; spin < 10000 && server.active_connections() > 0;
           ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    wait_slot_free();
    ASSERT_EQ(server.active_connections(), 0);

    // Phase two: contended burst with the wall still at 1, cycling through
    // free and bound goals. Outcomes race, but the contract holds per
    // response, and the first accept (with no one in flight) must complete.
    std::vector<InMemoryClient> contended;
    for (int i = 0; i < 8; ++i) {
      contended.push_back(transport.Connect());
      contended.back().Send(
          PostRequest("/query", goals[i % goals.size()].body));
      contended.back().CloseSend();
    }
    int completed = 0;
    for (size_t i = 0; i < contended.size(); ++i) {
      const QueryGoal& goal = goals[i % goals.size()];
      Result<std::string> response =
          contended[i].WaitForClose(Deadline::AfterMillis(10000));
      ASSERT_TRUE(response.ok())
          << "hung response at " << workers << " workers";
      const int status = StatusOf(response.value());
      if (status == 200) {
        ++completed;
        EXPECT_EQ(BodyOf(response.value()),
                  ExpectedQueryBody(*app, goal.pattern))
            << "torn/divergent answer to " << goal.body << " at " << workers
            << " workers";
      } else {
        ASSERT_TRUE(status == 429 || status == 503)
            << "unexpected status " << status;
        EXPECT_NE(response.value().find("Retry-After:"), std::string::npos);
      }
    }
    EXPECT_GE(completed, 1) << "nothing completed at " << workers
                            << " workers";

    // Phase three: every goal once more, one at a time, so each bound goal
    // completes at every worker count.
    for (const QueryGoal& goal : goals) {
      wait_slot_free();
      const std::string response =
          RoundTrip(transport, PostRequest("/query", goal.body));
      ASSERT_EQ(StatusOf(response), 200)
          << goal.body << " at " << workers << " workers";
      EXPECT_EQ(BodyOf(response), ExpectedQueryBody(*app, goal.pattern))
          << goal.body << " at " << workers << " workers";
    }
    EXPECT_TRUE(server.WaitDrained().ok());
  }
}

TEST(ServerTest, TenantCapAnswers429) {
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  snapshots.Publish(BuildApp());
  auto rebuild = std::make_shared<GatedRebuild>();
  ServerOptions options;
  options.num_workers = 2;
  options.admission.per_tenant_max = 1;
  options.rebuild = [rebuild](const Deadline& deadline,
                              const CancellationToken& cancel) {
    return (*rebuild)(deadline, cancel);
  };
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  // The reload holds tenant "noisy"'s only slot at its gate; the second
  // "noisy" request must shed 429 while "quiet" still gets through.
  InMemoryClient reload_client = transport.Connect();
  reload_client.Send(PostRequest("/reload", "", "X-Tenant: noisy\r\n"));
  reload_client.CloseSend();
  rebuild->WaitEntered();

  const std::string shed = RoundTrip(
      transport, PostRequest("/query", "Control(_, _)",
                             "X-Tenant: noisy\r\n"));
  EXPECT_EQ(StatusOf(shed), 429);
  EXPECT_NE(shed.find("Retry-After:"), std::string::npos);
  EXPECT_EQ(StatusOf(RoundTrip(
                transport, PostRequest("/query", "Control(_, _)",
                                       "X-Tenant: quiet\r\n"))),
            200);
  rebuild->Release();
  Result<std::string> reload_response =
      reload_client.WaitForClose(Deadline::AfterMillis(10000));
  ASSERT_TRUE(reload_response.ok());
  EXPECT_EQ(StatusOf(reload_response.value()), 200);
  EXPECT_TRUE(server.WaitDrained().ok());
}

TEST(ServerTest, ClientDisconnectCancelsTheInflightRequest) {
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  snapshots.Publish(BuildApp());
  obs::MetricsRegistry metrics;
  auto rebuild = std::make_shared<GatedRebuild>();
  ServerOptions options;
  options.num_workers = 2;
  options.metrics = &metrics;
  options.rebuild = [rebuild](const Deadline& deadline,
                              const CancellationToken& cancel) {
    return (*rebuild)(deadline, cancel);
  };
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  InMemoryClient client = transport.Connect();
  client.Send(PostRequest("/reload", ""));
  client.CloseSend();
  rebuild->WaitEntered();
  // The peer walks away mid-request: the token must trip, the rebuild
  // must unwind with kCancelled, and the connection must drain without
  // the gate ever being released.
  client.Disconnect();
  for (int spin = 0; spin < 10000 && server.active_connections() > 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.active_connections(), 0);
  EXPECT_EQ(metrics.counter("server.requests.cancelled")->value(), 1);
  EXPECT_TRUE(server.WaitDrained().ok());
}

TEST(ServerTest, DrainUnderLoadFinishesInflightWork) {
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  auto app = BuildApp();
  snapshots.Publish(app);
  auto rebuild = std::make_shared<GatedRebuild>();
  ServerOptions options;
  options.num_workers = 2;
  options.drain_deadline_ms = 10000;
  options.rebuild = [rebuild](const Deadline& deadline,
                              const CancellationToken& cancel) {
    return (*rebuild)(deadline, cancel);
  };
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  // Guaranteed in-flight work at drain time: the reload is parked at its
  // gate, plus a handful of queries racing the shutdown.
  InMemoryClient reload_client = transport.Connect();
  reload_client.Send(PostRequest("/reload", ""));
  reload_client.CloseSend();
  rebuild->WaitEntered();
  std::vector<InMemoryClient> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(transport.Connect());
    clients.back().Send(PostRequest("/query", "Control(_, _)"));
    clients.back().CloseSend();
  }

  server.RequestDrain();
  rebuild->Release();
  EXPECT_TRUE(server.WaitDrained().ok());

  // The in-flight reload finished, not cancelled: drain lets admitted
  // work run to completion.
  Result<std::string> reload_response =
      reload_client.WaitForClose(Deadline::AfterMillis(1000));
  ASSERT_TRUE(reload_response.ok());
  EXPECT_EQ(StatusOf(reload_response.value()), 200);
  // Every query either completed exactly, was shed explicitly, or was
  // reset before acceptance — none torn, none hung.
  const std::string expected = ExpectedQueryBody(*app);
  for (InMemoryClient& client : clients) {
    Result<std::string> response =
        client.WaitForClose(Deadline::AfterMillis(1000));
    ASSERT_TRUE(response.ok()) << "client hung past drain";
    if (response.value().empty()) continue;  // reset before acceptance
    const int status = StatusOf(response.value());
    if (status == 200) {
      EXPECT_EQ(BodyOf(response.value()), expected);
    } else {
      EXPECT_TRUE(status == 429 || status == 503) << status;
    }
  }
}

TEST(ServerTest, DrainDeadlineCancelsStragglersAndNamesThem) {
  MemFs fs;
  obs::EventLogOptions log_options;
  log_options.fs = &fs;
  log_options.crash_report_path = "/crash/server_report.jsonl";
  obs::EventLog event_log(log_options);
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  snapshots.Publish(BuildApp());
  auto rebuild = std::make_shared<GatedRebuild>();
  ServerOptions options;
  options.num_workers = 2;
  options.drain_deadline_ms = 50;
  options.event_log = &event_log;
  options.rebuild = [rebuild](const Deadline& deadline,
                              const CancellationToken& cancel) {
    return (*rebuild)(deadline, cancel);
  };
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  InMemoryClient client = transport.Connect();
  client.Send(PostRequest("/reload", "", "X-Tenant: ops\r\n"));
  client.CloseSend();
  rebuild->WaitEntered();

  // The gate never opens: only the drain deadline's cancellation ends the
  // request. The verdict is honest (kDeadlineExceeded) and the crash
  // report names the straggler.
  const Status verdict = server.WaitDrained();
  EXPECT_EQ(verdict.code(), StatusCode::kDeadlineExceeded);
  Result<std::string> report = fs.ReadFile("/crash/server_report.jsonl");
  ASSERT_TRUE(report.ok()) << "no crash report committed";
  EXPECT_NE(report.value().find("drain.deadline"), std::string::npos);
  EXPECT_NE(report.value().find("POST /reload tenant=ops"),
            std::string::npos);
}

TEST(ServerTest, WarmStartFromCheckpointServesIdenticalAnswers) {
  // First life: a checkpointed chase runs to fixpoint (its final commit is
  // the warm-start artifact). Second life: resume from the same MemFs dir
  // and serve — answers to free and bound goals must be byte-identical to
  // the first life's.
  MemFs fs;
  ChaseConfig first_config;
  first_config.checkpoint.fs = &fs;
  first_config.checkpoint.dir = "/ckpt";
  auto first_app = BuildApp(first_config);
  const std::vector<QueryGoal> goals = QueryGoals();

  // Every goal's 200 body from one life, checked against the reference
  // scan over that life's chase.
  auto serve_all = [&](std::shared_ptr<const KnowledgeGraphApplication> app) {
    InMemoryTransport transport;
    SnapshotRegistry snapshots;
    snapshots.Publish(app);
    ServerOptions options;
    options.num_workers = 2;
    TemplexServer server(&transport, &snapshots, options);
    server.Start();
    std::vector<std::string> bodies;
    for (const QueryGoal& goal : goals) {
      const std::string response =
          RoundTrip(transport, PostRequest("/query", goal.body));
      EXPECT_EQ(StatusOf(response), 200) << goal.body;
      EXPECT_EQ(BodyOf(response), ExpectedQueryBody(*app, goal.pattern))
          << goal.body;
      bodies.push_back(BodyOf(response));
    }
    EXPECT_TRUE(server.WaitDrained().ok());
    return bodies;
  };
  const std::vector<std::string> first_answers = serve_all(first_app);

  ChaseConfig resume_config;
  resume_config.checkpoint.fs = &fs;
  resume_config.checkpoint.dir = "/ckpt";
  resume_config.checkpoint.resume = true;
  EXPECT_EQ(serve_all(BuildApp(resume_config)), first_answers);
  EXPECT_FALSE(first_answers[0].empty());
  EXPECT_FALSE(first_answers[1].empty());  // Control("Alfa", _)
}

TEST(ServerTest, ReloadPublishesTheNextEpoch) {
  InMemoryTransport transport;
  SnapshotRegistry snapshots;
  snapshots.Publish(BuildApp());
  auto rebuild = std::make_shared<GatedRebuild>();
  rebuild->Release();  // no gating: reload completes immediately
  ServerOptions options;
  options.num_workers = 2;
  options.rebuild = [rebuild](const Deadline& deadline,
                              const CancellationToken& cancel) {
    return (*rebuild)(deadline, cancel);
  };
  TemplexServer server(&transport, &snapshots, options);
  server.Start();

  const std::string response =
      RoundTrip(transport, PostRequest("/reload", ""));
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "epoch 2\n");
  EXPECT_EQ(snapshots.epoch(), 2);
  // The next epoch serves free and bound goals from its own chase.
  std::shared_ptr<const KnowledgeGraphApplication> current =
      snapshots.Current();
  for (const QueryGoal& goal : QueryGoals()) {
    const std::string answer =
        RoundTrip(transport, PostRequest("/query", goal.body));
    EXPECT_EQ(StatusOf(answer), 200) << goal.body;
    EXPECT_EQ(BodyOf(answer), ExpectedQueryBody(*current, goal.pattern))
        << goal.body;
  }
  EXPECT_TRUE(server.WaitDrained().ok());
}

}  // namespace
}  // namespace templex
