// Request-scoped distributed tracing for the serving stack.
//
// A RequestTrace is minted (or adopted from an incoming `traceparent` /
// `x-request-id` header) at HTTP ingress and rides through the engine as
// a shared_ptr on serve::MatchRequest: admission, snapshot leases, the
// batched MatchService, and every shard attempt of its scatter-gather
// back end (retries, hedges, breaker skips) record child spans into it.
// The result is one connected span tree per request, retrievable from
// /debug/tracez and — when the process-wide Chrome tracer is enabled —
// mirrored into the Perfetto export with trace/span/parent ids.
//
// Cost model: a null trace pointer is the off state. Every hot-path
// hook is `if (request.trace) {...}` — one pointer test, cheaper than
// the tracer's relaxed atomic load, honoring the existing contract.
// When a trace is attached, each span append takes one uncontended
// mutex acquisition on the per-request record vector (bounded at
// kMaxSpans; overflow increments a drop counter instead of growing).
#ifndef CROSSEM_OBS_REQUEST_TRACE_H_
#define CROSSEM_OBS_REQUEST_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace crossem {
namespace obs {

/// 128-bit W3C trace id. All-zero is invalid (per the traceparent spec).
struct TraceId {
  uint64_t hi = 0;
  uint64_t lo = 0;
  bool valid() const { return (hi | lo) != 0; }
};

/// 32 lowercase hex chars.
std::string TraceIdHex(const TraceId& id);
/// 16 lowercase hex chars.
std::string SpanIdHex(uint64_t id);

/// Mints a fresh (process-unique, well-mixed) trace id / span id.
TraceId MintTraceId();
uint64_t MintSpanId();

/// Derives a stable trace id from an arbitrary x-request-id string so
/// repeated queries with the same id land on the same trace identity.
TraceId DeriveTraceId(const std::string& request_id);

/// Parses a W3C `traceparent` header ("00-<32hex>-<16hex>-<2hex>").
/// Returns false (outputs untouched) on malformed input or all-zero ids.
bool ParseTraceparent(const std::string& value, TraceId* trace_id,
                      uint64_t* parent_span_id);

/// Renders "00-<trace>-<span>-01" (sampled flag set: we recorded it).
std::string FormatTraceparent(const TraceId& trace_id, uint64_t span_id);

/// Steady-clock nanoseconds (same clock as span timestamps).
uint64_t RequestNowNs();

/// One finished span inside a request trace.
struct RequestSpanRecord {
  const char* name = "";  // string literal
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root
  uint64_t start_ns = 0;        // absolute steady-clock ns
  uint64_t duration_ns = 0;
  std::vector<SpanArg> args;
};

/// Shared, thread-safe span collector for one request. Created at HTTP
/// ingress, completed (status/duration/degraded) when the response is
/// written, then handed to the tracez buffer for tail sampling.
class RequestTrace {
 public:
  // Bounds the per-request record vector; appends past the cap are
  // counted in dropped_spans() instead of stored.
  static constexpr int64_t kMaxSpans = 512;

  RequestTrace(TraceId trace_id, std::string request_id, std::string tenant);

  const TraceId& trace_id() const { return trace_id_; }
  const std::string& request_id() const { return request_id_; }
  const std::string& tenant() const { return tenant_; }
  uint64_t root_span_id() const { return root_span_id_; }
  uint64_t start_ns() const { return start_ns_; }

  /// Appends a finished span (any thread). Also mirrors the span into
  /// the process-wide Chrome tracer when that is enabled, carrying the
  /// trace/span/parent ids so the Perfetto export connects the tree.
  void Record(const char* name, uint64_t span_id, uint64_t parent_span_id,
              uint64_t start_ns, uint64_t duration_ns,
              std::vector<SpanArg> args);

  /// Marks the request finished. Records the root span ("request",
  /// span_id = root_span_id) covering the whole request.
  void Complete(int http_status, int64_t duration_us, bool degraded);

  bool completed() const;
  int http_status() const;
  int64_t duration_us() const;
  bool degraded() const;
  int64_t dropped_spans() const;

  /// Copy of the spans recorded so far.
  std::vector<RequestSpanRecord> Spans() const;

 private:
  const TraceId trace_id_;
  const std::string request_id_;
  const std::string tenant_;
  const uint64_t root_span_id_;
  const uint64_t start_ns_;

  mutable std::mutex mu_;
  std::vector<RequestSpanRecord> spans_;
  int64_t dropped_spans_ = 0;
  bool completed_ = false;
  int http_status_ = 0;
  int64_t duration_us_ = 0;
  bool degraded_ = false;
};

/// RAII child span on a RequestTrace. A null trace makes every method a
/// single-branch no-op, so call sites need no conditionals of their own.
class RequestSpan {
 public:
  RequestSpan(std::shared_ptr<RequestTrace> trace, const char* name,
              uint64_t parent_span_id);
  ~RequestSpan() { End(); }

  RequestSpan(const RequestSpan&) = delete;
  RequestSpan& operator=(const RequestSpan&) = delete;

  /// This span's id, for parenting children (0 when disabled).
  uint64_t span_id() const { return span_id_; }

  RequestSpan& Arg(const char* key, int64_t value);
  RequestSpan& Arg(const char* key, double value);
  RequestSpan& Arg(const char* key, const std::string& value);

  /// Records the span now (idempotent; the destructor calls it too).
  void End();

 private:
  std::shared_ptr<RequestTrace> trace_;
  const char* name_;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  uint64_t start_ns_ = 0;
  std::vector<SpanArg> args_;
};

}  // namespace obs
}  // namespace crossem

#endif  // CROSSEM_OBS_REQUEST_TRACE_H_
