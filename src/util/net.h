#ifndef TDG_UTIL_NET_H_
#define TDG_UTIL_NET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace tdg::util::net {

/// Minimal blocking TCP primitives for the embedded HTTP server
/// (obs::HttpServer) and its tests. Dependency-free
/// POSIX sockets; the library targets linux. Everything binds/connects
/// loopback only — the endpoints carry no authentication, so they are
/// deliberately not reachable from other hosts (DESIGN.md §9).

/// Blocks until `fd` is readable, up to `timeout_ms` (-1 = forever).
/// Returns true when readable, false on timeout; IOError on poll failure.
StatusOr<bool> PollReadable(int fd, int timeout_ms);

/// RAII wrapper over a connected socket descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool is_open() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Sends FIN before closing, so a peer whose request went unread still
  /// reads the response, then EOF, rather than losing it to the RST.
  void CloseAfterResponse();

  /// Writes all of `data`, retrying partial writes. SIGPIPE is suppressed
  /// (MSG_NOSIGNAL); a peer that hung up surfaces as IOError.
  Status WriteAll(std::string_view data);

  /// Reads until `delimiter` appears (returning everything read, delimiter
  /// included), EOF (NotFound), `max_bytes` (OutOfRange), or `timeout_ms`
  /// of *total* elapsed time (FailedPrecondition). The timeout is a hard
  /// deadline from the moment of the call, not a per-chunk progress window:
  /// a client dribbling one byte per poll interval cannot hold the socket —
  /// and with it a single-threaded accept loop — open forever.
  StatusOr<std::string> ReadUntil(std::string_view delimiter,
                                  size_t max_bytes, int timeout_ms);

  /// Reads until the peer closes, up to `max_bytes`, within the same total
  /// `timeout_ms` deadline semantics as ReadUntil.
  StatusOr<std::string> ReadToEof(size_t max_bytes, int timeout_ms);

 private:
  int fd_ = -1;
};

/// A listening TCP socket bound to 127.0.0.1. Port 0 requests an ephemeral
/// port; port() reports the one the kernel picked.
class ServerSocket {
 public:
  ServerSocket() = default;
  ~ServerSocket() { Close(); }

  ServerSocket(ServerSocket&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
    other.port_ = 0;
  }
  ServerSocket& operator=(ServerSocket&& other) noexcept;
  ServerSocket(const ServerSocket&) = delete;
  ServerSocket& operator=(const ServerSocket&) = delete;

  /// Binds (SO_REUSEADDR) and listens on 127.0.0.1:`port`.
  static StatusOr<ServerSocket> Listen(int port, int backlog = 16);

  bool is_open() const { return fd_ >= 0; }
  int port() const { return port_; }
  void Close();

  /// Waits up to `timeout_ms` for a connection. An elapsed timeout returns
  /// a socket with is_open() == false (not an error) so an accept loop can
  /// poll a stop flag between waits.
  StatusOr<Socket> AcceptWithTimeout(int timeout_ms);

 private:
  ServerSocket(int fd, int port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  int port_ = 0;
};

/// Connects to 127.0.0.1:`port`.
StatusOr<Socket> ConnectLoopback(int port, int timeout_ms = 2000);

// ---------------------------------------------------------------------------
// HTTP/1.1 request machinery shared by every embedded server
// ---------------------------------------------------------------------------

/// Hard resource bounds enforced while reading one request. Every limit
/// maps to a distinct Status (and therefore a distinct HTTP error), so a
/// hostile or broken client can categorically not wedge a server thread:
/// too many header bytes → OutOfRange, a declared body larger than the cap
/// → OutOfRange, and — crucially — `read_timeout_ms` is a *total* wall-time
/// budget for the whole request (head and body), not a per-byte progress
/// window.
struct HttpLimits {
  size_t max_head_bytes = 16 * 1024;  // request line + all headers
  size_t max_body_bytes = 1 << 20;    // Content-Length cap
  int read_timeout_ms = 2000;         // total budget for the full request
};

/// One parsed HTTP/1.x request. Header names are folded to lowercase
/// (HTTP headers are case-insensitive); order of arrival is preserved.
struct HttpRequest {
  std::string method;  // as sent, e.g. "GET", "POST"
  std::string path;    // request target without the query string
  std::string query;   // bytes after '?', possibly empty
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with the given lowercase name, or nullptr.
  const std::string* FindHeader(std::string_view lowercase_name) const;
};

/// Reads and parses one complete request from `socket` under `limits`.
/// Bodies require a valid Content-Length (Transfer-Encoding is not
/// implemented). Status codes are chosen so servers can map them directly
/// onto HTTP errors:
///   InvalidArgument     malformed request line / header / length  → 400
///   FailedPrecondition  total read deadline elapsed               → 408
///   OutOfRange          head or declared body over its limit      → 413
///   Unimplemented       Transfer-Encoding present                 → 501
///   NotFound            peer closed before a complete request
StatusOr<HttpRequest> ReadHttpRequest(Socket& socket,
                                      const HttpLimits& limits);

/// Serializes a complete HTTP/1.1 response with Content-Length and
/// `Connection: close` (every server here is one-request-per-connection).
/// `extra_headers` are inserted verbatim, each line ending in "\r\n".
std::string BuildHttpResponse(int code, std::string_view reason,
                              std::string_view content_type,
                              std::string_view body,
                              std::string_view extra_headers = {});

/// The error response for a failed ReadHttpRequest, per the mapping above
/// (unlisted codes become a 500).
std::string BuildHttpErrorResponse(const Status& status);

/// One-shot HTTP/1.1 GET against 127.0.0.1:`port` (the test/scripting
/// counterpart of the stats server). Returns the raw response — status
/// line, headers, body.
StatusOr<std::string> HttpGet(int port, const std::string& path,
                              int timeout_ms = 5000);

/// One-shot request with an arbitrary method and body (`Content-Length` is
/// filled in; `Connection: close`). Returns the raw response.
StatusOr<std::string> HttpDo(int port, const std::string& method,
                             const std::string& path, const std::string& body,
                             const std::string& content_type =
                                 "application/json",
                             int timeout_ms = 5000);

/// Strips the headers off a raw HTTP response, returning only the body.
/// The response must contain the "\r\n\r\n" separator.
StatusOr<std::string> HttpBody(const std::string& response);

/// Parses the status code out of "HTTP/1.1 <code> ..."; InvalidArgument on
/// anything that is not an HTTP status line.
StatusOr<int> HttpStatusCode(const std::string& response);

}  // namespace tdg::util::net

#endif  // TDG_UTIL_NET_H_
