// The serving workload: the real TemplexServer over a bench-local
// transport. The transport hands prepared request bytes to the server on
// Accept and timestamps the first Read, the Write and the Close, which
// gives queue wait and handling time from outside the server with no
// sockets and no receiver threads.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "apps/application.h"
#include "apps/glossaries.h"
#include "bench.h"
#include "common/rng.h"
#include "datalog/parser.h"
#include "engine/query.h"
#include "io/glossary_csv.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "service/admission.h"
#include "service/http.h"
#include "service/server.h"
#include "service/snapshot.h"
#include "service/transport.h"

namespace templex {
namespace bench {
namespace {

using AppPtr = std::shared_ptr<const KnowledgeGraphApplication>;

enum class Kind { kQuery, kExplain };

// One distinct request of a load plan: the bytes sent and the digest of
// the 200 body expected back. Plans point into a table of these, so a plan
// costs a pointer per request and adds little to the run's peak RSS.
struct Request {
  Kind kind = Kind::kQuery;
  std::string body;   // goal pattern or fact literal
  std::string bytes;  // the full HTTP request
  uint64_t expected = 0;
};

// One request's life: sent by the load generator, served by the server
// through a BenchConnection, verified on completion.
struct Exchange {
  explicit Exchange(const Request* r) : request(r) {}
  const Request* request;
  Clock::time_point due;
  Clock::time_point sent;
  // Written by the serving worker, read by the generator after Close()
  // hands the exchange back through the transport's completion queue.
  Clock::time_point first_read;
  Clock::time_point closed;
  bool read_started = false;
  size_t read_pos = 0;
  std::string response;
};
using ExchangePtr = std::shared_ptr<Exchange>;

class BenchTransport;

class BenchConnection : public ServerConnection {
 public:
  BenchConnection(ExchangePtr exchange, BenchTransport* transport)
      : exchange_(std::move(exchange)), transport_(transport) {}

  Result<size_t> Read(char* buf, size_t max, const Deadline&) override {
    Exchange& ex = *exchange_;
    if (!ex.read_started) {
      ex.read_started = true;
      ex.first_read = Clock::now();
    }
    const std::string& bytes = ex.request->bytes;
    const size_t n = std::min(max, bytes.size() - ex.read_pos);
    std::memcpy(buf, bytes.data() + ex.read_pos, n);
    ex.read_pos += n;
    return n;
  }

  Status Write(std::string_view data) override {
    exchange_->response.append(data);
    return Status::OK();
  }

  void Close() override;

  void OnPeerDisconnect(std::function<void()>) override {}

 private:
  ExchangePtr exchange_;
  BenchTransport* transport_;
  bool closed_ = false;
};

class BenchTransport : public ServerTransport {
 public:
  Result<std::unique_ptr<ServerConnection>> Accept() override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return shutdown_ || !pending_.empty(); });
    if (shutdown_) return Status(StatusCode::kCancelled, "transport shut down");
    ExchangePtr exchange = std::move(pending_.front());
    pending_.pop_front();
    return std::unique_ptr<ServerConnection>(
        new BenchConnection(std::move(exchange), this));
  }

  void Shutdown() override {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    cv_.notify_all();
  }

  std::string Address() const override { return "bench"; }

  void Send(ExchangePtr exchange) {
    exchange->sent = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(std::move(exchange));
    cv_.notify_one();
  }

  void Complete(ExchangePtr exchange) {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.push_back(std::move(exchange));
    done_cv_.notify_one();
  }

  // Completed exchanges; waits until one arrives or `until` passes.
  std::vector<ExchangePtr> TakeCompleted(Clock::time_point until) {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait_until(lock, until, [this] { return !done_.empty(); });
    std::vector<ExchangePtr> out(std::make_move_iterator(done_.begin()),
                                 std::make_move_iterator(done_.end()));
    done_.clear();
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ExchangePtr> pending_;
  bool shutdown_ = false;

  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::deque<ExchangePtr> done_;
};

void BenchConnection::Close() {
  if (closed_) return;
  closed_ = true;
  exchange_->closed = Clock::now();
  transport_->Complete(exchange_);
}

Request MakeRequest(Kind kind, const std::string& tenant, std::string body) {
  Request r;
  r.kind = kind;
  r.body = std::move(body);
  r.bytes = std::string("POST ") +
            (kind == Kind::kQuery ? "/query" : "/explain") +
            " HTTP/1.1\r\nHost: bench\r\nX-Tenant: " + tenant +
            "\r\nContent-Length: " + std::to_string(r.body.size()) +
            "\r\n\r\n" + r.body;
  return r;
}

// The server's /query body: one answer per line.
std::string QueryBody(const std::vector<Fact>& answers) {
  std::string out;
  for (const Fact& fact : answers) {
    out += fact.ToString();
    out += "\n";
  }
  return out;
}

// Goal pattern as the server parses it: `_` arguments are wildcards.
Result<Fact> ParsePattern(const std::string& text) {
  Result<Fact> fact = ParseFactLiteral(text);
  if (!fact.ok()) return fact;
  Fact pattern = std::move(fact).value();
  for (Value& arg : pattern.args) {
    if (arg.is_string() && arg.string_value() == "_") arg = Value::Null();
  }
  return pattern;
}

// Quarter-second windows: about 240 requests each at the open-loop rate.
constexpr double kWindowSeconds = 0.25;

// Outcome statistics of a measured load phase, which may be made of
// several segments.
struct PhaseStats {
  // Series are timed from `origin`: a segment measured from `at` sets it
  // to `at` minus the time the earlier segments measured.
  Clock::time_point origin;
  Series latency_ms{kWindowSeconds};  // from the due time
  Samples query_ms;
  Samples explain_ms;
  Samples queue_wait_ms;  // sent -> first Read
  Samples handle_ms;      // first Read -> Close
  Series late_ms{kWindowSeconds};  // generator self-lateness
  double wall_s = 0.0;    // measured time so far

  explicit PhaseStats(Clock::time_point start) : origin(start) {}
};

// Verifies one completed exchange; records it in `stats` when given.
void Record(const Exchange& ex, PhaseStats* stats, Report* report) {
  int status = 0;
  std::string_view body;
  const std::string& r = ex.response;
  if (r.size() > 12 && r.compare(0, 9, "HTTP/1.1 ") == 0) {
    status = std::atoi(r.c_str() + 9);
    const size_t split = r.find("\r\n\r\n");
    if (split != std::string::npos) {
      body = std::string_view(r).substr(split + 4);
    }
  }
  const Request& request = *ex.request;
  bool ok = status == 200;
  if (ok && Digest(body) != request.expected) {
    ok = false;
    report->Wrong((request.kind == Kind::kQuery ? "/query " : "/explain ") +
                  request.body);
  }
  report->Outcome(ok);
  if (stats == nullptr) return;
  const double at_s = MillisBetween(stats->origin, ex.due) / 1000.0;
  stats->queue_wait_ms.Add(MillisBetween(ex.sent, ex.first_read));
  stats->handle_ms.Add(MillisBetween(ex.first_read, ex.closed));
  const double latency = MillisBetween(ex.due, ex.closed);
  stats->latency_ms.Add(at_s, latency);
  (request.kind == Kind::kQuery ? stats->query_ms : stats->explain_ms)
      .Add(latency);
}

// Sleeps until `until` on the completion queue, then yields the last
// stretch so sends leave on time; returns completions seen meanwhile. The
// stretch is long because on a virtual machine a sleeping thread's timed
// wake-up can come milliseconds late when its virtual CPU was idle.
std::vector<ExchangePtr> WaitUntil(BenchTransport* transport,
                                   Clock::time_point until) {
  constexpr auto kSpin = std::chrono::milliseconds(5);
  std::vector<ExchangePtr> done = transport->TakeCompleted(until - kSpin);
  if (done.empty()) {
    while (Clock::now() < until) std::this_thread::yield();
  }
  return done;
}

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

// One open-loop segment: plan[i] is due `offsets_s[i]` after the start; at
// most `cap` requests are outstanding, and waiting for a slot counts
// toward latency because latency runs from the due time. Requests due in
// the first `lead_s` warm the server at the segment's own rate; they are
// verified but not timed. Returns when every request has completed.
void RunOpenLoop(BenchTransport* transport, const std::vector<Request*>& plan,
                 const std::vector<double>& offsets_s, double lead_s, int cap,
                 PhaseStats* phase, Report* report) {
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const Clock::time_point measured = After(start, lead_s);
  PhaseStats& stats = *phase;
  stats.origin = measured - std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(stats.wall_s));
  Clock::time_point slot_freed = start;
  size_t next = 0;
  int outstanding = 0;
  auto absorb = [&](std::vector<ExchangePtr> done) {
    for (ExchangePtr& ex : done) {
      if (outstanding == cap) slot_freed = Clock::now();
      --outstanding;
      Record(*ex, ex->due < measured ? nullptr : &stats, report);
    }
  };
  while (next < plan.size() || outstanding > 0) {
    if (next < plan.size() && outstanding < cap) {
      const Clock::time_point due = After(start, offsets_s[next]);
      if (Clock::now() < due) {
        absorb(WaitUntil(transport, due));
        continue;
      }
      auto ex = std::make_shared<Exchange>(plan[next]);
      ex->due = due;
      transport->Send(ex);
      if (due >= measured) {
        stats.late_ms.Add(
            MillisBetween(stats.origin, due) / 1000.0,
            MillisBetween(std::max(due, slot_freed), ex->sent));
      }
      ++outstanding;
      ++next;
      continue;
    }
    absorb(transport->TakeCompleted(Clock::now() + std::chrono::seconds(1)));
  }
  stats.wall_s = MillisBetween(stats.origin, Clock::now()) / 1000.0;
}

// Closed loop: keeps `cap` requests outstanding for `seconds`, cycling
// through `plan`, and verifies every response. Returns the saturation
// throughput: the median over windows of completions per second.
double RunClosedLoop(BenchTransport* transport,
                     const std::vector<Request*>& plan, int cap,
                     double seconds, Report* report) {
  const Clock::time_point origin = Clock::now();
  const Clock::time_point stop = After(origin, seconds);
  Series completed(kWindowSeconds);
  size_t next = 0;
  int outstanding = 0;
  while (true) {
    const bool sending = Clock::now() < stop;
    if (sending && outstanding < cap) {
      auto ex = std::make_shared<Exchange>(plan[next++ % plan.size()]);
      ex->due = Clock::now();
      transport->Send(ex);
      ++outstanding;
      continue;
    }
    if (!sending && outstanding == 0) break;
    for (ExchangePtr& ex :
         transport->TakeCompleted(Clock::now() + std::chrono::seconds(1))) {
      --outstanding;
      Record(*ex, nullptr, report);
      if (ex->closed < stop) {
        completed.Add(MillisBetween(origin, ex->closed) / 1000.0, 1.0);
      }
    }
  }
  return completed.Rate();
}

// Sends one request to an otherwise idle server and waits for its reply.
ExchangePtr RoundTrip(BenchTransport* transport, const Request* request) {
  auto ex = std::make_shared<Exchange>(request);
  ex->due = Clock::now();
  transport->Send(ex);
  while (transport->TakeCompleted(Clock::now() + std::chrono::seconds(1))
             .empty()) {
  }
  return ex;
}

// The daemon's warm start and reload build (tools/templex_serve.cc): one
// chase thread, the daemon's registry on both the explainer and the chase.
Result<AppPtr> BuildServed(const InputFiles& files,
                           obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                           Layers* layers, int64_t req) {
  ChaseConfig config;
  config.metrics = metrics;
  config.tracer = tracer;
  auto app = BuildApp(files, config, layers, req);
  if (!app.ok()) return app.status();
  return AppPtr(std::move(app).value());
}

const char* DrawTenant(Rng* rng) {
  const double u = rng->NextDouble();
  return u < 0.6 ? "desk-a" : u < 0.9 ? "desk-b" : "desk-c";
}

// Replays one request through the layer functions in the server's order
// (parse, admission, snapshot, handler, serialize) and returns the
// replayed body; `self_ms` gets the sum of the layers' times.
std::string Replay(const Request& sent, int64_t req,
                   const SnapshotRegistry& snapshots,
                   AdmissionController* admission, Layers* layers,
                   double* self_ms) {
  const double before = layers->timed_ms();
  const std::string parent = "service.request";
  obs::Span request_span(layers->tracer(), parent);
  request_span.AddAttribute("req", req);
  request_span.AddAttribute("parent", "");
  HttpRequest request =
      layers->Micros("service.http.parse_us", req, parent, [&] {
        HttpRequestParser parser;
        parser.Consume(sent.bytes);
        return parser.request();
      });
  layers->Micros("service.admission_us", req, parent, [&] {
    AdmissionTicket ticket(admission, *request.FindHeader("x-tenant"));
    return ticket.admitted();
  });
  AppPtr app = layers->Micros("service.snapshot.current_us", req, parent,
                              [&] { return snapshots.Current(); });
  std::string body;
  std::vector<Fact> answers;
  if (sent.kind == Kind::kQuery) {
    Fact pattern = layers->Micros("datalog.parse_fact_us", req, parent, [&] {
      return ParsePattern(request.body).value();
    });
    layers->Micros("engine.validate_goal_us", req, parent, [&] {
      return ValidateGoalPattern(app->explainer().program(), app->facts(),
                                 pattern);
    });
    answers = layers->Micros("apps.query_us", req, parent,
                             [&] { return app->Query(pattern); });
    const double scanned = static_cast<double>(
        app->chase().graph.FactsOf(pattern.predicate).size());
    layers->Add("apps.query.scanned_per_answer",
                scanned / std::max<double>(1.0, answers.size()));
  } else {
    Fact fact = layers->Micros("datalog.parse_fact_us", req, parent, [&] {
      return ParseFactLiteral(request.body).value();
    });
    Result<std::string> text = TimedExplain(*app, fact, layers, req, parent);
    if (text.ok()) body = text.value() + "\n";
  }
  // Query answers become text in the handler; both end up on the wire.
  layers->Micros("service.http.serialize_us", req, parent, [&] {
    if (sent.kind == Kind::kQuery) body = QueryBody(answers);
    HttpResponse response;
    response.headers.emplace_back("Content-Type", "text/plain; charset=utf-8");
    response.body = body;
    std::string wire;
    wire.append(SerializeHttpResponse(response));
    return wire.size();
  });
  *self_ms = layers->timed_ms() - before;
  return body;
}

// The lookup traffic over the published snapshot: 90% `/query
// Control("<s>", _)` with s drawn Zipf(1.1) over the companies that
// control any, 10% `/explain` of one of s's answers; tenants 60/30/10.
std::function<Request(Rng*)> LookupTraffic(
    const KnowledgeGraphApplication& app) {
  std::vector<std::string> subjects;
  std::unordered_map<std::string, std::vector<std::string>> answers;
  for (const Fact& fact :
       app.Query(Fact{"Control", {Value::Null(), Value::Null()}})) {
    std::vector<std::string>& list = answers[fact.args[0].string_value()];
    if (list.empty()) subjects.push_back(fact.args[0].string_value());
    list.push_back(fact.ToString());
  }
  // Popularity ranks: subjects ordered by answer count, then shuffled with
  // the recipe seed. Every --seed deploys an isomorphic network, so each
  // rank falls to a subject with the same number of answers and the
  // traffic costs the same whatever the names.
  std::sort(subjects.begin(), subjects.end(),
            [&answers](const std::string& a, const std::string& b) {
              const size_t na = answers.at(a).size();
              const size_t nb = answers.at(b).size();
              return na != nb ? na < nb : a < b;
            });
  Rng rank_rng(kRecipeSeed);
  rank_rng.Shuffle(subjects);
  const Zipf zipf(static_cast<int>(subjects.size()), 1.1);
  return [subjects, answers, zipf](Rng* rng) {
    const std::string& subject = subjects[zipf.Draw(rng->NextDouble())];
    const char* tenant = DrawTenant(rng);
    if (rng->NextDouble() < 0.9) {
      return MakeRequest(Kind::kQuery, tenant,
                         "Control(\"" + subject + "\", _)");
    }
    const std::vector<std::string>& list = answers.at(subject);
    return MakeRequest(Kind::kExplain, tenant,
                       list[rng->NextUint64(list.size())]);
  };
}

}  // namespace

Status RunServeLookup(const Options& options, Report* report) {
  constexpr int kWorkers = 2;
  // The open loop runs in segments, each followed by a reload: the
  // set-ups setup_s measures, spread over the run.
  constexpr int kSegments = 9;
  const int cap = options.nproc;
  if (kWorkers > options.nproc) {
    return Status(StatusCode::kFailedPrecondition,
                  "num_workers exceeds nproc");
  }
  const int companies = options.tiny ? 80 : 400;
  // A quarter of the capacity: closed_loop_rps, the saturation throughput,
  // had a median of 3823 req/s over seeds 101-110 on the reference host.
  // That is half the capacity left when the host's slow spells halve the
  // speed of memory-bound work (README.md, "Traffic").
  const double rate_rps = options.tiny ? 100 : 950;
  report->Param("companies", companies);
  report->Param("zipf_s", 1.1);
  report->Param("mix", "90% /query Control(s, _), 10% /explain");
  report->Param("num_workers", kWorkers);
  report->Param("outstanding_cap", cap);
  report->Param("rate_rps", rate_rps);
  report->Param("segments", kSegments);
  std::vector<Fact> facts = DenseOwnership(companies, options.seed);
  report->Param("edb_facts", static_cast<double>(facts.size()));
  Result<InputFiles> files =
      WriteInputs(options.work_dir, "serve_lookup", kCompanyControlSource,
                  facts, GlossaryToCsv(CompanyControlGlossary()));
  if (!files.ok()) return files.status();
  facts.clear();

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  Layers layers(options.trace ? &tracer : nullptr);

  // The daemon's warm start: build, then publish the first epoch.
  SnapshotRegistry snapshots(&metrics);
  {
    Result<AppPtr> built =
        BuildServed(files.value(), &metrics, nullptr, &layers, 0);
    if (!built.ok()) return built.status();
    layers.Millis("service.snapshot.publish_ms", 0, "setup", [&] {
      return snapshots.Publish(std::move(built).value());
    });
  }
  AppPtr app = snapshots.Current();

  // The plans: pointers into `requests`, the distinct requests by their
  // bytes (elements of an unordered_map keep their address).
  const std::function<Request(Rng*)> draw = LookupTraffic(*app);
  std::unordered_map<std::string, Request> requests;
  Rng rng(options.seed * 7919 + 17);
  auto make_plan = [&](size_t n) {
    std::vector<Request*> plan;
    for (size_t i = 0; i < n; ++i) {
      Request r = draw(&rng);
      std::string key = r.bytes;
      plan.push_back(&requests.try_emplace(std::move(key), std::move(r))
                          .first->second);
    }
    return plan;
  };
  // Phases: the open loop (85% of the run) in segments, each a lead-in
  // (a quarter second, less on short runs) and a measured stretch; then
  // the closed-loop saturation phase (15%), which only reports
  // closed_loop_rps.
  const double lead_s = std::min(0.25, options.seconds / 100);
  const double segment_s = options.seconds * 0.85 / kSegments - lead_s;
  const double closed_s = options.seconds * 0.15;
  const size_t lead_n = static_cast<size_t>(std::llround(rate_rps * lead_s));
  const size_t segment_n =
      static_cast<size_t>(std::llround(rate_rps * segment_s));
  std::vector<std::vector<Request*>> segment_plans;
  std::vector<std::vector<double>> segment_offsets;
  for (int s = 0; s < kSegments; ++s) {
    segment_plans.push_back(make_plan(lead_n + segment_n));
    std::vector<double>& offsets = segment_offsets.emplace_back();
    for (size_t i = 0; i < lead_n; ++i) {
      offsets.push_back(rng.NextDouble() * lead_s);
    }
    for (size_t i = 0; i < segment_n; ++i) {
      offsets.push_back(lead_s + rng.NextDouble() * segment_s);
    }
    std::sort(offsets.begin(), offsets.end());
  }
  const std::vector<Request*> closed_plan = make_plan(std::max<size_t>(
      1000, static_cast<size_t>(std::llround(rate_rps * closed_s))));
  // Expected outputs: direct Query/Explain on the published snapshot,
  // untimed, once per distinct goal or fact (tenants share answers).
  // Every reload builds the same application, so they hold for every
  // epoch.
  std::unordered_map<std::string, uint64_t> expected;
  for (auto& [bytes, r] : requests) {
    const std::string key = (r.kind == Kind::kQuery ? "q:" : "e:") + r.body;
    auto it = expected.find(key);
    if (it == expected.end()) {
      std::string body;
      if (r.kind == Kind::kQuery) {
        body = QueryBody(app->Query(ParsePattern(r.body).value()));
      } else {
        Result<std::string> text =
            app->Explain(ParseFactLiteral(r.body).value());
        if (!text.ok()) return text.status();
        body = text.value() + "\n";
      }
      it = expected.emplace(key, Digest(body)).first;
    }
    r.expected = it->second;
  }
  if (options.selftest) {
    // Corrupt the expected digest of the first timed request.
    segment_plans[0][lead_n]->expected ^= 1;
  }
  // Later epochs replace this one; holding it would keep it resident.
  app.reset();

  BenchTransport transport;
  ServerOptions server_options;
  server_options.num_workers = kWorkers;
  server_options.metrics = &metrics;
  TemplexServer server(&transport, &snapshots, server_options);
  server.Start();

  // After each segment, with nothing outstanding, the bench does what the
  // daemon's reload does: build, then publish the next epoch, which
  // retires the current one. setup_s times the build (parse, load,
  // Create, chase); service.snapshot.publish_ms times the publication,
  // with the retired epoch's release. (POST /reload would build on a
  // worker thread, in that thread's malloc arena; the arenas kept the
  // retired epochs' pages, and peak RSS grew with every reload to 4x one
  // epoch.) Traced runs also make a traced build, which is discarded,
  // before each reload; obs.trace_overhead_pct compares the two builds.
  PhaseStats open(Clock::now());
  Samples setup_s, traced_setup_s;
  for (int s = 0; s < kSegments; ++s) {
    RunOpenLoop(&transport, segment_plans[s], segment_offsets[s], lead_s, cap,
                &open, report);
    const int64_t req = 1 + s;
    if (options.trace) {
      const Clock::time_point start = Clock::now();
      Result<AppPtr> traced =
          BuildServed(files.value(), &metrics, &tracer, &layers, -req);
      if (!traced.ok()) return traced.status();
      traced_setup_s.Add(MillisBetween(start, Clock::now()) / 1000.0);
    }
    const Clock::time_point start = Clock::now();
    Result<AppPtr> built =
        BuildServed(files.value(), &metrics, nullptr, &layers, req);
    if (!built.ok()) return built.status();
    setup_s.Add(MillisBetween(start, Clock::now()) / 1000.0);
    layers.Millis("service.snapshot.publish_ms", req, "setup", [&] {
      return snapshots.Publish(std::move(built).value());
    });
  }
  const double closed_rps =
      RunClosedLoop(&transport, closed_plan, cap, closed_s, report);

  // Traced runs: send a sample of the timed open-loop requests to the idle
  // server one at a time, and replay each through the layer functions on
  // the same snapshot next to it (before or after, alternately, so neither
  // side always runs on warm caches). Each pair compares like for like: no
  // queueing, no contention between workers.
  PhaseStats idle(Clock::now());
  Samples unaccounted_ms;
  if (options.trace) {
    AdmissionController admission(AdmissionController::Options{});
    std::vector<const Request*> timed;
    for (const std::vector<Request*>& plan : segment_plans) {
      timed.insert(timed.end(), plan.begin() + lead_n, plan.end());
    }
    const AppPtr served = snapshots.Current();
    const size_t stride = std::max<size_t>(1, timed.size() / 300);
    for (size_t i = 0; i < timed.size(); i += stride) {
      const Request& sent = *timed[i];
      auto replay = [&] {
        double self_ms = 0.0;
        const std::string body = Replay(sent, static_cast<int64_t>(i),
                                        snapshots, &admission, &layers,
                                        &self_ms);
        if (Digest(body) != sent.expected && !options.selftest) {
          report->Wrong("replay of " + sent.body);
        }
        return self_ms;
      };
      const bool replay_first = (i / stride) % 2 == 0;
      const double replay_first_ms = replay_first ? replay() : 0.0;
      const ExchangePtr ex = RoundTrip(&transport, &sent);
      Record(*ex, &idle, report);
      const double replay_ms = replay_first ? replay_first_ms : replay();
      unaccounted_ms.Add(MillisBetween(ex->first_read, ex->closed) -
                         replay_ms);
      if (sent.kind == Kind::kExplain) {
        AddProofLayers(served->chase(), ParseFactLiteral(sent.body).value(),
                       &layers, static_cast<int64_t>(i), "service.request");
      }
    }
  }
  const Status drained = server.WaitDrained();
  if (!drained.ok()) return drained;

  report->Latencies(open.latency_ms);
  report->EndToEnd("setup_s", setup_s.CalmMedian(kCalmSetupShare), "s",
                   "median of the fastest third of " +
                       std::to_string(setup_s.size()) + " reloads");
  report->Param("setup_median_s", setup_s.Median());
  report->Param("closed_loop_rps", closed_rps);
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  report->Param("query_p50_ms", open.query_ms.Median());
  report->Param("query_p90_ms", open.query_ms.Percentile(90));
  report->Param("explain_p50_ms", open.explain_ms.Median());
  report->Param("explain_p90_ms", open.explain_ms.Percentile(90));
  const double late_p99 = open.late_ms.Percentile(99.0);
  report->Param("loadgen_self_late_p99_ms", late_p99);

  // Per-layer values.
  report->Layer("loadgen.self_late_p99_ms", late_p99);
  report->Layer("service.queue_wait_ms", open.queue_wait_ms.Median());
  report->Layer("service.queue_wait_p99_ms", open.queue_wait_ms.Percentile(99));
  report->Layer("service.handle_ms", open.handle_ms.Median());
  report->Layer("service.handle_p99_ms", open.handle_ms.Percentile(99));
  report->Layer("service.worker_busy_share",
                open.handle_ms.Sum() / (kWorkers * open.wall_s * 1000.0));
  const obs::MetricsSnapshot registry = metrics.Snapshot();
  if (const obs::CounterSnapshot* shed =
          registry.FindCounter("server.admission.shed")) {
    report->Layer("service.admission.shed", static_cast<double>(shed->value));
  }
  ReportSetupLayers(layers, report);
  report->Layer("service.snapshot.publish_ms",
                layers.Median("service.snapshot.publish_ms"));

  if (options.trace) {
    report->Layer(
        "obs.trace_overhead_pct",
        (traced_setup_s.Median() / setup_s.Median() - 1.0) * 100.0);
    for (const char* name :
         {"service.http.parse_us", "service.admission_us",
          "service.snapshot.current_us", "datalog.parse_fact_us",
          "engine.validate_goal_us", "apps.query_us",
          "apps.query.scanned_per_answer", "service.http.serialize_us"}) {
      report->Layer(name, layers.Median(name));
    }
    ReportExplainLayers(layers, registry, report);
    report->Layer("service.unaccounted_share",
                  std::abs(unaccounted_ms.Median()) /
                      idle.handle_ms.Median());
    Status wrote = WriteTraceArtifacts(options, tracer, *report,
                                       MetricsSnapshotToJson(registry));
    if (!wrote.ok()) return wrote;
  }
  // The gated latency comes from the calmest windows, so the run is valid
  // while the generator kept to the schedule in them (p99 self-lateness of
  // 1 ms at most in the calmest tenth of the windows). Timed runs only:
  // the traced run reports the lateness as a layer value.
  if (open.late_ms.CalmPercentile(99.0, kCalmShare) > 1.0 && !options.tiny &&
      !options.trace) {
    return Status(StatusCode::kFailedPrecondition,
                  "load generator ran late in the calmest windows: "
                  "self_late_p99_ms > 1");
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace templex
