// End-to-end drill for the HTTP front end (ISSUE acceptance): a real
// epoll server + MatchApp over a real (small) engine, driven through
// real sockets with the loadgen's HttpClient and the open-loop Poisson
// generator. Asserts the full rejection contract on the wire, bitwise
// identity between HTTP answers and in-process Match() calls, tenant
// quota isolation, and the hot-swap invariant: a mid-drill
// /admin/snapshot rollout completes with zero failed queries.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "clip/clip.h"
#include "data/dataset.h"
#include "graph/json.h"
#include "gtest/gtest.h"
#include "net/http.h"
#include "net/loadgen.h"
#include "net/match_app.h"
#include "net/server.h"
#include "obs/request_trace.h"
#include "obs/timeseries.h"
#include "obs/tracez.h"
#include "serve/index.h"
#include "serve/snapshot.h"
#include "text/tokenizer.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace crossem {
namespace net {
namespace {

class ServerE2eFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig dc = data::CubLikeConfig(0.4);
    ds_ = new data::CrossModalDataset(data::BuildDataset(dc));
    clip::ClipConfig cc;
    cc.vocab_size = ds_->vocab.size();
    cc.text_context = 32;
    cc.model_dim = 16;
    cc.text_layers = 1;
    cc.text_heads = 2;
    cc.image_layers = 1;
    cc.image_heads = 2;
    cc.patch_dim = ds_->world->config().patch_dim;
    cc.max_patches = 16;
    cc.embed_dim = 12;
    Rng rng(5);
    model_ = new clip::ClipModel(cc, &rng);
    tokenizer_ = new text::Tokenizer(&ds_->vocab, cc.text_context);
    core::CrossEmOptions options;
    options.prompt_mode = core::PromptMode::kHard;
    matcher_ = new core::CrossEm(model_, &ds_->graph, tokenizer_, options);
    embeddings_ = new Tensor(
        matcher_->EncodeImages(ds_->StackImages(ds_->TestImageIndices())));
  }

  static void TearDownTestSuite() {
    delete embeddings_;
    delete matcher_;
    delete tokenizer_;
    delete model_;
    delete ds_;
  }

  static std::unique_ptr<serve::EmbeddingIndex> MakeGoodIndex() {
    std::vector<std::string> ids;
    for (int64_t i = 0; i < embeddings_->size(0); ++i) {
      ids.push_back("img" + std::to_string(i));
    }
    auto index = std::make_unique<serve::FlatIndex>();
    EXPECT_TRUE(index->Add(*embeddings_, ids).ok());
    index->set_model_fingerprint(matcher_->EncoderFingerprint());
    return index;
  }

  static graph::VertexId Vertex(size_t i) {
    return ds_->entities[i % ds_->entities.size()];
  }
  static std::string EntityLabel(size_t i) {
    return ds_->graph.VertexLabel(Vertex(i));
  }

  static serve::EngineOptions FastOptions(int64_t shards) {
    serve::EngineOptions eo;
    eo.shards = shards;
    eo.base.max_wait_micros = 200;
    return eo;
  }

  /// The full stack a test boots: manager (already swapped unless told
  /// otherwise), app, server on an ephemeral loopback port.
  struct Stack {
    std::unique_ptr<serve::SnapshotManager> manager;
    std::unique_ptr<MatchApp> app;
    std::unique_ptr<HttpServer> server;

    ~Stack() {
      if (server != nullptr) server->Stop();
      if (manager != nullptr) manager->Shutdown();
    }
  };

  static std::unique_ptr<Stack> BootStack(MatchAppOptions app_options,
                                          int64_t shards, bool swap_index) {
    return BootStack(std::move(app_options), FastOptions(shards), swap_index);
  }

  static std::unique_ptr<Stack> BootStack(MatchAppOptions app_options,
                                          const serve::EngineOptions& eo,
                                          bool swap_index) {
    auto s = std::make_unique<Stack>();
    s->manager = std::make_unique<serve::SnapshotManager>(matcher_, eo);
    if (swap_index) {
      EXPECT_TRUE(s->manager->SwapIndex(MakeGoodIndex(), "boot").ok());
    }
    s->app = std::make_unique<MatchApp>(&ds_->graph, s->manager.get(),
                                        std::move(app_options));
    HttpServerOptions server_options;
    server_options.port = 0;
    server_options.workers = 4;
    MatchApp* app = s->app.get();
    s->server = std::make_unique<HttpServer>(
        server_options,
        [app](const HttpRequest& request) { return app->Handle(request); });
    EXPECT_TRUE(s->server->Start().ok());
    return s;
  }

  /// Unlimited-admission options (tests that are not about quotas).
  static MatchAppOptions OpenAdmission() {
    MatchAppOptions options;
    options.admission.max_inflight = 256;
    options.admission.tenant_rate = 1e6;
    options.admission.tenant_burst = 1e6;
    return options;
  }

  static Result<HttpResponse> RoundTrip(
      HttpClient& client, const std::string& method,
      const std::string& target, const std::string& body,
      std::vector<std::pair<std::string, std::string>> extra_headers = {}) {
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.version = "HTTP/1.1";
    request.headers = {{"Host", "127.0.0.1"}};
    for (auto& h : extra_headers) request.headers.push_back(std::move(h));
    if (!body.empty()) {
      request.headers.emplace_back("Content-Type", "application/json");
    }
    request.body = body;
    return client.RoundTrip(request, /*timeout_micros=*/10 * 1000 * 1000);
  }

  static data::CrossModalDataset* ds_;
  static clip::ClipModel* model_;
  static text::Tokenizer* tokenizer_;
  static core::CrossEm* matcher_;
  static Tensor* embeddings_;
};

data::CrossModalDataset* ServerE2eFixture::ds_ = nullptr;
clip::ClipModel* ServerE2eFixture::model_ = nullptr;
text::Tokenizer* ServerE2eFixture::tokenizer_ = nullptr;
core::CrossEm* ServerE2eFixture::matcher_ = nullptr;
Tensor* ServerE2eFixture::embeddings_ = nullptr;

TEST_F(ServerE2eFixture, HealthMetricsAndRouting) {
  auto stack = BootStack(OpenAdmission(), 1, /*swap_index=*/true);
  HttpClient client("127.0.0.1", stack->server->port());

  auto health = RoundTrip(client, "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 200);
  EXPECT_NE(health.value().body.find("\"snapshot_version\":1"),
            std::string::npos)
      << health.value().body;

  auto metrics = RoundTrip(client, "GET", "/metrics", "");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics.value().status, 200);
  ASSERT_NE(metrics.value().FindHeader("content-type"), nullptr);
  EXPECT_NE(metrics.value().FindHeader("content-type")->find("text/plain"),
            std::string::npos);
  EXPECT_NE(metrics.value().body.find("crossem_http_requests_total"),
            std::string::npos);

  auto missing = RoundTrip(client, "GET", "/nope", "");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);

  auto wrong_method = RoundTrip(client, "GET", "/v1/match", "");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method.value().status, 405);

  auto info = RoundTrip(client, "GET", "/admin/snapshot", "");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().status, 200);
  EXPECT_NE(info.value().body.find("\"source\":\"boot\""), std::string::npos)
      << info.value().body;
}

TEST_F(ServerE2eFixture, NoSnapshotAnswers503) {
  auto stack = BootStack(OpenAdmission(), 1, /*swap_index=*/false);
  HttpClient client("127.0.0.1", stack->server->port());
  auto health = RoundTrip(client, "GET", "/healthz", "");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health.value().status, 503);
  auto match = RoundTrip(client, "POST", "/v1/match",
                         "{\"entity\":\"" + EntityLabel(0) + "\"}");
  ASSERT_TRUE(match.ok());
  EXPECT_EQ(match.value().status, 503);
  EXPECT_NE(match.value().body.find("no_snapshot"), std::string::npos);
}

TEST_F(ServerE2eFixture, MalformedRequestsGetPreciseErrors) {
  auto stack = BootStack(OpenAdmission(), 1, /*swap_index=*/true);
  HttpClient client("127.0.0.1", stack->server->port());

  auto bad_json = RoundTrip(client, "POST", "/v1/match", "{nope");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json.value().status, 400);
  EXPECT_NE(bad_json.value().body.find("bad_json"), std::string::npos);

  auto no_entity = RoundTrip(client, "POST", "/v1/match", "{\"k\":3}");
  ASSERT_TRUE(no_entity.ok());
  EXPECT_EQ(no_entity.value().status, 400);

  auto bad_k = RoundTrip(client, "POST", "/v1/match",
                         "{\"entity\":\"" + EntityLabel(0) + "\",\"k\":0}");
  ASSERT_TRUE(bad_k.ok());
  EXPECT_EQ(bad_k.value().status, 400);

  auto unknown = RoundTrip(client, "POST", "/v1/match",
                           "{\"entity\":\"no such label anywhere\"}");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown.value().status, 404);
  EXPECT_NE(unknown.value().body.find("unknown_entity"), std::string::npos);

  auto bad_deadline = RoundTrip(
      client, "POST", "/v1/match",
      "{\"entity\":\"" + EntityLabel(0) + "\"}",
      {{"x-deadline-ms", "soon"}});
  ASSERT_TRUE(bad_deadline.ok());
  EXPECT_EQ(bad_deadline.value().status, 400);
  EXPECT_NE(bad_deadline.value().body.find("bad_deadline"),
            std::string::npos);
}

// The wire answer must be byte-for-byte reconstructible to the
// in-process answer: %.9g round-trips binary32 exactly, so every
// similarity and probability parsed back from the JSON must equal the
// engine's floats bit for bit.
TEST_F(ServerE2eFixture, HttpAnswersAreBitwiseIdenticalToInProcess) {
  auto stack = BootStack(OpenAdmission(), 2, /*swap_index=*/true);
  HttpClient client("127.0.0.1", stack->server->port());

  for (size_t i = 0; i < 6; ++i) {
    const std::string label = EntityLabel(i);
    auto http = RoundTrip(client, "POST", "/v1/match",
                          "{\"entity\":\"" + label + "\",\"k\":5}");
    ASSERT_TRUE(http.ok()) << http.status().ToString();
    ASSERT_EQ(http.value().status, 200) << http.value().body;

    auto doc = graph::ParseJson(http.value().body);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    const graph::JsonValue& root = doc.value();
    EXPECT_EQ(root.Find("entity")->string_value(), label);
    EXPECT_EQ(root.Find("coverage")->number_value(), 1.0);
    EXPECT_FALSE(root.Find("degraded")->bool_value());

    serve::MatchRequest request;
    request.vertex = Vertex(i);
    request.k = 5;
    serve::SnapshotLease lease = stack->manager->Acquire();
    ASSERT_TRUE(lease);
    auto direct = lease->Match(request);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    const std::vector<serve::RankedMatch>& expected = direct.value().matches;

    const graph::JsonValue* matches = root.Find("matches");
    ASSERT_NE(matches, nullptr);
    ASSERT_TRUE(matches->is_array());
    ASSERT_EQ(matches->array_items().size(), expected.size());
    for (size_t m = 0; m < expected.size(); ++m) {
      const graph::JsonValue& item = matches->array_items()[m];
      EXPECT_EQ(item.Find("image_id")->string_value(), expected[m].image_id);
      EXPECT_EQ(static_cast<int64_t>(item.Find("image")->number_value()),
                expected[m].image);
      // The bitwise check: parse the double, narrow to float, compare
      // exactly — any formatting loss would flip low bits.
      EXPECT_EQ(static_cast<float>(item.Find("similarity")->number_value()),
                expected[m].similarity)
          << "entity " << label << " match " << m;
      EXPECT_EQ(static_cast<float>(item.Find("probability")->number_value()),
                expected[m].probability)
          << "entity " << label << " match " << m;
    }
  }
}

TEST_F(ServerE2eFixture, TenantQuotaExhaustionIsIsolated) {
  MatchAppOptions options;
  options.admission.max_inflight = 256;
  options.admission.tenant_rate = 0.5;  // one token, refill far away
  options.admission.tenant_burst = 1.0;
  auto stack = BootStack(std::move(options), 1, /*swap_index=*/true);
  HttpClient client("127.0.0.1", stack->server->port());
  const std::string body = "{\"entity\":\"" + EntityLabel(0) + "\",\"k\":2}";

  // Tenant A's burst is one request; the second must bounce with the
  // full 429 contract on the wire.
  auto first = RoundTrip(client, "POST", "/v1/match", body,
                         {{"x-tenant", "tenant-a"}});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value().status, 200) << first.value().body;

  auto second = RoundTrip(client, "POST", "/v1/match", body,
                          {{"x-tenant", "tenant-a"}});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.value().status, 429) << second.value().body;
  EXPECT_NE(second.value().body.find("tenant_quota_exhausted"),
            std::string::npos)
      << second.value().body;
  ASSERT_NE(second.value().FindHeader("retry-after"), nullptr);
  EXPECT_GE(std::stoll(*second.value().FindHeader("retry-after")), 1);
  ASSERT_NE(second.value().FindHeader("x-retry-after-us"), nullptr);
  EXPECT_GT(std::stoll(*second.value().FindHeader("x-retry-after-us")), 0);

  // With a deadline, the advertised retry never exceeds the budget.
  auto deadlined = RoundTrip(client, "POST", "/v1/match", body,
                             {{"x-tenant", "tenant-a"},
                              {"x-deadline-ms", "40"}});
  ASSERT_TRUE(deadlined.ok());
  EXPECT_EQ(deadlined.value().status, 429);
  ASSERT_NE(deadlined.value().FindHeader("x-retry-after-us"), nullptr);
  EXPECT_LE(std::stoll(*deadlined.value().FindHeader("x-retry-after-us")),
            40000);

  // Tenant B is untouched by A's exhaustion.
  auto other = RoundTrip(client, "POST", "/v1/match", body,
                         {{"x-tenant", "tenant-b"}});
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(other.value().status, 200) << other.value().body;
}

// The acceptance drill: an open-loop Poisson run with a hot snapshot
// swap landing mid-drill. Zero transport errors, zero 5xx, every
// request answered — the rollout is invisible to clients.
TEST_F(ServerE2eFixture, PoissonDrillSurvivesMidDrillHotSwap) {
  auto stack = BootStack(OpenAdmission(), 2, /*swap_index=*/true);

  const std::string rollout =
      ::testing::TempDir() + "e2e_rollout.cemckpt";
  ASSERT_TRUE(MakeGoodIndex()->Save(rollout).ok());

  std::vector<std::string> entities;
  for (size_t i = 0; i < ds_->entities.size(); ++i) {
    entities.push_back(EntityLabel(i));
  }

  LoadGenOptions lg;
  lg.port = stack->server->port();
  lg.entities = entities;
  lg.qps = 25.0;
  lg.duration_micros = 1500 * 1000;
  lg.connections = 2;
  lg.tenant = "drill";
  lg.k = 5;
  lg.seed = 7;
  lg.name = "e2e";

  Result<LoadGenReport> report = Status::Internal("not run");
  std::thread driver([&]() { report = RunLoadGen(lg); });

  // Land the rollout in the middle of the drill.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  {
    HttpClient admin("127.0.0.1", stack->server->port());
    auto swap = RoundTrip(admin, "POST", "/admin/snapshot",
                          "{\"index\":" + std::string("\"") + rollout +
                              "\"}");
    ASSERT_TRUE(swap.ok()) << swap.status().ToString();
    EXPECT_EQ(swap.value().status, 200) << swap.value().body;
    EXPECT_NE(swap.value().body.find("\"version\":2"), std::string::npos)
        << swap.value().body;
  }
  driver.join();
  std::remove(rollout.c_str());

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const LoadGenReport& r = report.value();
  EXPECT_GT(r.sent, 0);
  // The hot-swap invariant on the wire: nothing dropped, nothing 5xx,
  // every arrival answered 200 (coverage stayed full throughout).
  EXPECT_EQ(r.transport_errors, 0);
  EXPECT_EQ(r.completed, r.sent);
  EXPECT_EQ(r.status_5xx, 0);
  EXPECT_EQ(r.status_429, 0);
  EXPECT_EQ(r.status_200, r.sent);
  EXPECT_GT(r.latency_p50_us, 0);
  EXPECT_GE(r.latency_p99_us, r.latency_p50_us);

  // The rollout really happened while the drill ran.
  EXPECT_EQ(stack->manager->version(), 2);
  EXPECT_EQ(stack->manager->swaps(), 2);
}

TEST_F(ServerE2eFixture, MetricsServeJsonOnRequest) {
  auto stack = BootStack(OpenAdmission(), 1, /*swap_index=*/true);
  HttpClient client("127.0.0.1", stack->server->port());

  for (const std::string target :
       {std::string("/metrics?format=json"), std::string("/metrics")}) {
    const bool json = target.find("json") != std::string::npos;
    auto response =
        json ? RoundTrip(client, "GET", target, "")
             : RoundTrip(client, "GET", target, "",
                         {{"Accept", "application/json"}});
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().status, 200);
    const std::string* ct = response.value().FindHeader("content-type");
    ASSERT_NE(ct, nullptr);
    EXPECT_NE(ct->find("application/json"), std::string::npos) << target;
    auto doc = graph::ParseJson(response.value().body);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_NE(doc.value().Find("counters"), nullptr);
  }
}

TEST_F(ServerE2eFixture, MetricsHistoryRequiresARecorder) {
  auto stack = BootStack(OpenAdmission(), 1, /*swap_index=*/true);
  HttpClient client("127.0.0.1", stack->server->port());

  // No recorder attached: the route is 404, not a crash.
  auto missing = RoundTrip(client, "GET", "/metrics/history", "");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().status, 404);
  EXPECT_NE(missing.value().body.find("recorder_disabled"),
            std::string::npos);

  obs::TimeSeriesOptions ts_options;
  ts_options.interval_micros = 1000;
  obs::TimeSeriesRecorder recorder(&obs::MetricsRegistry::Default(),
                                   ts_options);
  stack->app->set_recorder(&recorder);
  recorder.SampleOnce();
  recorder.SampleOnce();

  auto history = RoundTrip(client, "GET", "/metrics/history", "");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ(history.value().status, 200);
  auto doc = graph::ParseJson(history.value().body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc.value().Find("samples")->number_value(), 2.0);
  EXPECT_NE(doc.value().Find("series"), nullptr);
  stack->app->set_recorder(nullptr);
}

// The tentpole acceptance drill: a /v1/match carrying x-request-id must
// yield ONE connected span tree — ingress root, admission, service,
// gather, and a shard_attempt per attempt on every shard including a
// forced hedge — retrievable from /debug/tracez, with the identity
// echoed on the response.
TEST_F(ServerE2eFixture, RequestTraceConnectsEveryShardAttemptWithHedge) {
  fault::Clear();
  obs::TracezBuffer::Default().Clear();

  serve::EngineOptions eo = FastOptions(2);
  // Keep the fixed 2ms hedge delay: a huge min_samples stops observed
  // latencies from adapting it away mid-test.
  eo.resilience.hedge_delay_micros = 2000;
  eo.resilience.hedge_min_samples = int64_t{1} << 40;
  auto stack = BootStack(OpenAdmission(), eo, /*swap_index=*/true);

  // First search on shard 1 sleeps 30ms >> the 2ms hedge delay, so the
  // gather must launch a hedge attempt for that shard.
  fault::ShardFaultSpec spec;
  spec.mode = fault::ShardFaultMode::kDelay;
  spec.delay_ms = 30;
  spec.shard = 1;
  spec.nth = 1;
  fault::ArmShardFault(spec);

  HttpClient client("127.0.0.1", stack->server->port());
  auto response =
      RoundTrip(client, "POST", "/v1/match",
                "{\"entity\":\"" + EntityLabel(0) + "\",\"k\":3}",
                {{"x-request-id", "e2e-trace-1"}});
  fault::Clear();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value().status, 200) << response.value().body;

  // Identity echoed: x-request-id verbatim, traceparent well-formed.
  const std::string* rid = response.value().FindHeader("x-request-id");
  ASSERT_NE(rid, nullptr);
  EXPECT_EQ(*rid, "e2e-trace-1");
  const std::string* traceparent =
      response.value().FindHeader("traceparent");
  ASSERT_NE(traceparent, nullptr);
  obs::TraceId trace_id;
  uint64_t root_span = 0;
  ASSERT_TRUE(obs::ParseTraceparent(*traceparent, &trace_id, &root_span));

  // The trace is retrievable from /debug/tracez over the wire.
  auto tracez = RoundTrip(client, "GET", "/debug/tracez?format=json", "");
  ASSERT_TRUE(tracez.ok());
  ASSERT_EQ(tracez.value().status, 200);
  auto doc = graph::ParseJson(tracez.value().body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const graph::JsonValue* traces = doc.value().Find("traces");
  ASSERT_NE(traces, nullptr);
  const graph::JsonValue* mine = nullptr;
  for (const graph::JsonValue& t : traces->array_items()) {
    if (t.Find("request_id")->string_value() == "e2e-trace-1") mine = &t;
  }
  ASSERT_NE(mine, nullptr) << tracez.value().body;
  EXPECT_EQ(mine->Find("trace_id")->string_value(),
            obs::TraceIdHex(trace_id));

  // Walk the span tree: ids must form one connected tree rooted at the
  // "request" span, and the shard attempts must cover both shards with
  // at least one hedge.
  const graph::JsonValue* spans = mine->Find("spans");
  ASSERT_NE(spans, nullptr);
  std::set<std::string> span_ids;
  std::set<std::string> names;
  std::string root_span_id;
  for (const graph::JsonValue& s : spans->array_items()) {
    span_ids.insert(s.Find("span_id")->string_value());
    names.insert(s.Find("name")->string_value());
    if (s.Find("name")->string_value() == "request") {
      root_span_id = s.Find("span_id")->string_value();
    }
  }
  ASSERT_FALSE(root_span_id.empty());
  EXPECT_EQ(root_span_id, obs::SpanIdHex(root_span));
  for (const std::string required :
       {"request", "admission", "service", "gather", "shard_attempt",
        "shard_search"}) {
    EXPECT_TRUE(names.count(required)) << "missing span: " << required;
  }
  std::set<int64_t> attempt_shards;
  bool saw_hedge = false;
  for (const graph::JsonValue& s : spans->array_items()) {
    const std::string name = s.Find("name")->string_value();
    const std::string parent = s.Find("parent_span_id")->string_value();
    if (name == "request") {
      EXPECT_EQ(parent, obs::SpanIdHex(0));  // the one and only root
    } else {
      // Connectivity: every non-root span's parent is a recorded span.
      EXPECT_TRUE(span_ids.count(parent))
          << name << " parent " << parent << " not in the tree";
    }
    if (name == "shard_attempt") {
      const graph::JsonValue* args = s.Find("args");
      ASSERT_NE(args, nullptr);
      attempt_shards.insert(
          static_cast<int64_t>(args->Find("shard")->number_value()));
      if (args->Find("hedge")->number_value() == 1.0) saw_hedge = true;
    }
  }
  EXPECT_TRUE(attempt_shards.count(0)) << "no attempt span for shard 0";
  EXPECT_TRUE(attempt_shards.count(1)) << "no attempt span for shard 1";
  EXPECT_TRUE(saw_hedge) << "forced 30ms delay produced no hedge span";

  // The HTML view renders without leaking markup.
  auto html = RoundTrip(client, "GET", "/debug/tracez", "");
  ASSERT_TRUE(html.ok());
  EXPECT_EQ(html.value().status, 200);
  EXPECT_NE(html.value().body.find("e2e-trace-1"), std::string::npos);

  obs::TracezBuffer::Default().Clear();
}

// Untraced requests (no trace headers, trace_all_requests off) must not
// land in tracez and must not grow response headers.
TEST_F(ServerE2eFixture, UntracedRequestsStayOffTheTracePath) {
  obs::TracezBuffer::Default().Clear();
  auto stack = BootStack(OpenAdmission(), 1, /*swap_index=*/true);
  HttpClient client("127.0.0.1", stack->server->port());
  auto response =
      RoundTrip(client, "POST", "/v1/match",
                "{\"entity\":\"" + EntityLabel(0) + "\",\"k\":3}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().FindHeader("x-request-id"), nullptr);
  EXPECT_EQ(response.value().FindHeader("traceparent"), nullptr);
  EXPECT_EQ(obs::TracezBuffer::Default().size(), 0);
}

}  // namespace
}  // namespace net
}  // namespace crossem
