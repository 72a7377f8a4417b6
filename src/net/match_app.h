// The HTTP application over the match engine: routing, request/response
// JSON, and the admission-control front door (DESIGN.md §14).
//
// Routes:
//   POST /v1/match       — one match query. Body {"entity": LABEL,
//                          "k": N, "min_probability": P}; tenant key
//                          from the x-tenant header, per-request budget
//                          from x-deadline-ms. Degraded (partial-
//                          coverage) answers are HTTP 206 with the
//                          coverage / degraded fields set, mirroring
//                          the sharded MatchService contract.
//   GET  /healthz        — liveness + live snapshot version.
//   GET  /metrics        — the process-wide obs registry; Prometheus
//                          text by default, obs::ExportJson when the
//                          client sends Accept: application/json or
//                          ?format=json.
//   GET  /metrics/history— the time-series flight recorder's ring
//                          buffers as JSON (404 unless a recorder has
//                          been attached via set_recorder()).
//   GET  /debug/tracez   — tail-sampled completed request traces:
//                          minimal HTML table by default, full span
//                          trees with ?format=json.
//   POST /admin/snapshot — hot-swap: {"index": PATH} loads a CEMCKPT2
//                          file (fingerprint handshake), builds the
//                          next engine off the request path, swaps it
//                          in with zero dropped queries.
//   GET  /admin/snapshot — the live snapshot's version/source/rows.
//
// Rejection contract (asserted by tests/net/server_e2e_test.cc):
//   429 + Retry-After    — tenant quota exhausted or global concurrency
//                          limit hit (admission), and engine queue-full
//                          backpressure (the MatchService drain hint);
//                          every hint is clamped to the request's
//                          remaining x-deadline-ms budget.
//   503                  — no snapshot yet / shutting down / breaker.
//   504                  — deadline exceeded inside the engine.
//   400 / 404            — malformed JSON or headers / unknown entity.
//
// Float fields are emitted with %.9g, which round-trips binary32
// exactly: a client parsing the JSON recovers bitwise-identical
// similarities and probabilities to an in-process Match() call.
#ifndef CROSSEM_NET_MATCH_APP_H_
#define CROSSEM_NET_MATCH_APP_H_

#include <cstdint>
#include <memory>
#include <string>

#include "graph/graph.h"
#include "net/admission.h"
#include "net/http.h"
#include "obs/request_trace.h"
#include "obs/timeseries.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace crossem {
namespace net {

struct MatchAppOptions {
  AdmissionOptions admission;
  /// Default / cap for the request "k" field.
  int64_t default_k = 5;
  int64_t max_k = 1000;
  /// Tenant key when the x-tenant header is absent.
  std::string default_tenant = "default";
  /// When true, every /v1/match request gets a RequestTrace (tail
  /// sampling in the tracez buffer decides what is kept). When false
  /// (the default) only requests that carry a traceparent or
  /// x-request-id header are traced — untraced requests pay two header
  /// lookups, and the engine hooks stay on the null-pointer fast path.
  bool trace_all_requests = false;
};

/// Stateless-per-request application handler; thread-safe (called from
/// every server worker). Borrows the graph and the snapshot manager,
/// both of which must outlive it.
class MatchApp {
 public:
  MatchApp(const graph::Graph* graph, serve::SnapshotManager* snapshots,
           MatchAppOptions options);

  /// The HttpServer handler.
  HttpResponse Handle(const HttpRequest& request);

  AdmissionController& admission() { return admission_; }

  /// Attaches (borrows) the flight recorder served by /metrics/history.
  /// Null (the default) answers that route 404.
  void set_recorder(obs::TimeSeriesRecorder* recorder) {
    recorder_ = recorder;
  }

 private:
  HttpResponse HandleMatch(const HttpRequest& request);
  HttpResponse HandleMatchImpl(const HttpRequest& request,
                               const std::shared_ptr<obs::RequestTrace>& trace);
  HttpResponse HandleHealth();
  HttpResponse HandleMetrics(const HttpRequest& request);
  HttpResponse HandleMetricsHistory();
  HttpResponse HandleTracez(const HttpRequest& request);
  HttpResponse HandleSnapshot(const HttpRequest& request);

  const graph::Graph* graph_;
  serve::SnapshotManager* snapshots_;
  const MatchAppOptions options_;
  AdmissionController admission_;
  obs::TimeSeriesRecorder* recorder_ = nullptr;
};

/// %.9g — the shortest printf format that round-trips every binary32
/// value exactly through a double parse. Shared with the load
/// generator's bitwise-identity drill.
std::string FormatFloatExact(float v);

/// {"error": MESSAGE, "reason": REASON} with proper escaping; reason
/// omitted when empty.
std::string ErrorBody(const std::string& message, const std::string& reason);

}  // namespace net
}  // namespace crossem

#endif  // CROSSEM_NET_MATCH_APP_H_
