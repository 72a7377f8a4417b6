// Dependency-free HTTP/1.1 message layer for the network front end.
//
// This header owns the wire format only — no sockets, no threads:
//   * HttpRequest / HttpResponse value types with case-insensitive
//     header lookup and the HTTP/1.1 keep-alive rules;
//   * HttpParser, an incremental push parser for both requests and
//     responses (Content-Length and chunked Transfer-Encoding bodies,
//     CRLF or bare-LF line endings, hard header/body size limits so a
//     hostile peer cannot balloon memory). Feed() accepts bytes as they
//     arrive off a socket; complete messages are taken one at a time,
//     which is what keep-alive connections and pipelined peers need;
//   * SerializeResponse / SerializeRequest, which emit a complete
//     framed message (Content-Length always set, Connection header
//     from the keep_alive flag);
//   * the serving-layer Status -> HTTP status-code mapping shared by
//     the server routes and asserted by tests/net/http_test.cc:
//     admission rejections that carry the MatchService "retry after
//     <n>us" drain hint become 429 + Retry-After, everything else
//     kUnavailable is 503, kDeadlineExceeded is 504.
#ifndef CROSSEM_NET_HTTP_H_
#define CROSSEM_NET_HTTP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace crossem {
namespace net {

/// Case-insensitive ASCII comparison (header names).
bool HeaderNameEquals(const std::string& a, const std::string& b);

struct HttpRequest {
  std::string method;   // "GET", "POST", ...
  std::string target;   // origin-form, e.g. "/v1/match"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;  // wire order
  std::string body;

  /// First header with that name (case-insensitive); nullptr if absent.
  const std::string* FindHeader(const std::string& name) const;
  /// HTTP/1.1 defaults to keep-alive unless "Connection: close";
  /// HTTP/1.0 defaults to close unless "Connection: keep-alive".
  bool KeepAlive() const;
};

struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Whether the connection may be reused after this response; the
  /// serializer turns it into the Connection header.
  bool keep_alive = true;

  const std::string* FindHeader(const std::string& name) const;
  /// Sets (replacing any previous value of) a header.
  void SetHeader(const std::string& name, const std::string& value);
};

/// Standard reason phrase for a status code ("OK", "Too Many
/// Requests", ...); "Unknown" for codes the server never emits.
const char* ReasonPhrase(int status);

/// Emits the full response bytes: status line, headers (Content-Length
/// always present, Connection from keep_alive), blank line, body.
std::string SerializeResponse(const HttpResponse& response);

/// Emits the full request bytes (used by the load generator's client).
std::string SerializeRequest(const HttpRequest& request);

/// Parser memory bounds. A message exceeding them is a parse error
/// whose suggested_status() is 431 (headers) or 413 (body).
struct HttpParserLimits {
  int64_t max_header_bytes = 16 * 1024;
  int64_t max_body_bytes = 4 * 1024 * 1024;
};

/// Incremental HTTP/1.1 message parser.
///
/// Push bytes with Feed(); once HasMessage() is true, take the message
/// with TakeRequest()/TakeResponse() — the parser then continues with
/// any residual bytes (keep-alive reuse, pipelined requests). After a
/// non-OK Feed() the parser is poisoned: suggested_status() says what
/// to answer (400/413/431/501) and the connection should close.
class HttpParser {
 public:
  enum class Mode { kRequest, kResponse };

  explicit HttpParser(Mode mode = Mode::kRequest,
                      HttpParserLimits limits = {});

  /// Consumes `n` bytes. Returns ParseError/OutOfRange on a malformed
  /// or over-limit message; further Feed() calls keep failing.
  Status Feed(const char* data, size_t n);

  /// True when a complete message is ready to take.
  bool HasMessage() const { return complete_; }
  /// Bytes buffered but not yet part of a complete message (a partial
  /// next message on a keep-alive connection).
  bool HasPartial() const { return !complete_ && !buffer_.empty(); }

  /// Takes the parsed request (Mode::kRequest) and resets for the next
  /// message. Requires HasMessage().
  HttpRequest TakeRequest();
  /// Takes the parsed response (Mode::kResponse) likewise.
  HttpResponse TakeResponse();

  /// For Mode::kResponse only: the status code of the in-progress
  /// message (valid once headers are parsed).
  int response_status() const { return response_status_; }

  /// The HTTP status a server should answer when Feed() failed:
  /// 431 (headers too large), 413 (body too large), 501 (unsupported
  /// transfer-encoding), 400 (anything else malformed).
  int suggested_status() const { return suggested_status_; }

 private:
  enum class State {
    kHeaders,      // accumulating up to the blank line
    kBody,         // fixed Content-Length body
    kChunkSize,    // chunked: size line
    kChunkData,    // chunked: data + trailing CRLF
    kChunkTrailer, // chunked: trailers up to the blank line
    kComplete,
    kError,
  };

  Status Fail(int http_status, const std::string& message);
  /// Parses buffered bytes as far as possible (may complete a message).
  Status Advance();
  void ResetForNext();

  // Not const so a parser can be re-assigned (fresh connection state).
  Mode mode_;
  HttpParserLimits limits_;
  State state_ = State::kHeaders;
  std::string buffer_;  // unconsumed input
  bool complete_ = false;
  int suggested_status_ = 0;

  // In-progress message (request fields double for responses).
  std::string method_, target_, version_;
  int response_status_ = 0;
  std::vector<std::pair<std::string, std::string>> headers_;
  std::string body_;
  int64_t content_length_ = 0;  // kBody remaining
  int64_t chunk_remaining_ = 0; // kChunkData remaining
};

// -- Serving-layer status mapping -------------------------------------------

/// Extracts the "retry after <n>us" drain hint the MatchService
/// queue-full rejection embeds in its message.
/// Returns -1 when the message carries no hint.
int64_t ParseRetryAfterMicros(const std::string& message);

/// Maps a serving-layer Status to the HTTP status code of the response:
///   kOk               -> 200
///   kInvalidArgument  -> 400
///   kNotFound         -> 404
///   kOutOfRange       -> 400
///   kDeadlineExceeded -> 504
///   kUnavailable      -> 429 when the message carries a retry-after
///                        hint (queue-full backpressure: the client
///                        should back off and retry), else 503
///                        (shutdown / breaker open: find another
///                        replica);
///   anything else     -> 500.
int HttpCodeForStatus(const Status& status);

/// Formats a Retry-After header value (whole seconds, rounded up, at
/// least 1) from a microsecond hint.
std::string RetryAfterSeconds(int64_t retry_after_micros);

}  // namespace net
}  // namespace crossem

#endif  // CROSSEM_NET_HTTP_H_
