// Tests for the shared HTTP/1.1 request machinery in util::net —
// ReadHttpRequest's parsing, limits, and (crucially) its status contract:
// every way a request can be bad maps to a distinct Status code, which the
// servers turn into distinct HTTP errors. The slow-client legs pin down the
// satellite fix: the read timeout is a *total* deadline for the whole
// request, so a dribbling client cannot wedge a handler thread.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "util/net.h"

namespace tdg::util::net {
namespace {

/// Serves exactly one canned request: connects a client writing `wire`
/// (optionally in dribbled chunks) and returns ReadHttpRequest's result
/// from the server side.
StatusOr<HttpRequest> ParseWire(const std::string& wire,
                                const HttpLimits& limits,
                                int chunk_size = 0, int chunk_delay_ms = 0) {
  auto server = ServerSocket::Listen(0);
  if (!server.ok()) return server.status();
  std::thread peer([port = server->port(), wire, chunk_size,
                    chunk_delay_ms] {
    auto client = ConnectLoopback(port);
    if (!client.ok()) return;
    if (chunk_size <= 0) {
      (void)client->WriteAll(wire);
      // Keep the socket open briefly so EOF never races the parse.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return;
    }
    for (size_t i = 0; i < wire.size(); i += static_cast<size_t>(chunk_size)) {
      if (!client->WriteAll(wire.substr(i, static_cast<size_t>(chunk_size)))
               .ok()) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(chunk_delay_ms));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  auto connection = server->AcceptWithTimeout(/*timeout_ms=*/5000);
  StatusOr<HttpRequest> request =
      connection.ok() && connection->is_open()
          ? ReadHttpRequest(*connection, limits)
          : StatusOr<HttpRequest>(Status::Internal("accept failed"));
  if (connection.ok()) connection->Close();
  peer.join();
  return request;
}

HttpLimits TestLimits() {
  HttpLimits limits;
  limits.max_head_bytes = 4096;
  limits.max_body_bytes = 4096;
  limits.read_timeout_ms = 2000;
  return limits;
}

TEST(HttpRequestTest, ParsesMethodPathQueryHeadersAndBody) {
  auto request = ParseWire(
      "POST /cohorts/alg?verbose=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 9\r\n"
      "\r\n"
      "{\"a\": 1}\n",
      TestLimits());
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->method, "POST");
  EXPECT_EQ(request->path, "/cohorts/alg");
  EXPECT_EQ(request->query, "verbose=1");
  EXPECT_EQ(request->body, "{\"a\": 1}\n");
  // Header names fold to lowercase; values keep their bytes.
  ASSERT_NE(request->FindHeader("content-type"), nullptr);
  EXPECT_EQ(*request->FindHeader("content-type"), "application/json");
  EXPECT_EQ(request->FindHeader("Content-Type"), nullptr)
      << "lookup takes the lowercase name";
  EXPECT_EQ(request->FindHeader("x-absent"), nullptr);
}

TEST(HttpRequestTest, BodySplitAcrossPacketsIsReassembled) {
  const std::string wire =
      "POST /x HTTP/1.1\r\nContent-Length: 26\r\n\r\n"
      "abcdefghijklmnopqrstuvwxyz";
  auto request = ParseWire(wire, TestLimits(), /*chunk_size=*/7,
                           /*chunk_delay_ms=*/5);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->body, "abcdefghijklmnopqrstuvwxyz");
}

TEST(HttpRequestTest, LargeBodyArrivingInSeveralWritesParsesByteExact) {
  // Bigger than any one recv and than the head read's over-read, arriving
  // in several writes: every byte must land at its offset.
  std::string body(100 * 1000, '\0');
  for (size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>((i * 131 + i / 977) % 256);
  }
  const std::string wire = "POST /cohorts HTTP/1.1\r\nContent-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body;
  HttpLimits limits = TestLimits();
  limits.max_body_bytes = 1 << 20;
  auto request = ParseWire(wire, limits, /*chunk_size=*/24 * 1024,
                           /*chunk_delay_ms=*/5);
  ASSERT_TRUE(request.ok()) << request.status();
  ASSERT_EQ(request->body.size(), body.size());
  EXPECT_TRUE(request->body == body) << "body bytes differ";
}

TEST(HttpRequestTest, MissingContentLengthMeansEmptyBody) {
  auto request = ParseWire("GET /healthz HTTP/1.1\r\n\r\n", TestLimits());
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/healthz");
  EXPECT_TRUE(request->query.empty());
  EXPECT_TRUE(request->body.empty());
}

TEST(HttpRequestTest, MalformedRequestsAreInvalidArgument) {
  const std::string malformed[] = {
      "not an http request\r\n\r\n",
      "GET\r\n\r\n",
      "GET /healthz SMTP/1.0\r\n\r\n",
      "GET noslash HTTP/1.1\r\n\r\n",
      "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
      "GET /x HTTP/1.1\r\nBad Header Name: v\r\n\r\n",
      "POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
      "POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
  };
  for (const std::string& wire : malformed) {
    auto request = ParseWire(wire, TestLimits());
    ASSERT_FALSE(request.ok()) << "accepted: " << wire;
    EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument)
        << wire << " -> " << request.status();
  }
}

TEST(HttpRequestTest, OversizedHeadIsOutOfRange) {
  std::string wire = "GET /x HTTP/1.1\r\n";
  wire += "X-Padding: " + std::string(8192, 'p') + "\r\n\r\n";
  auto request = ParseWire(wire, TestLimits());
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kOutOfRange)
      << request.status();
}

TEST(HttpRequestTest, OversizedDeclaredBodyIsOutOfRange) {
  // The declared length alone trips the limit — the server rejects before
  // reading (and before the client could even send) a huge body.
  auto request = ParseWire(
      "POST /x HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n", TestLimits());
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kOutOfRange)
      << request.status();
}

TEST(HttpRequestTest, TransferEncodingIsUnimplemented) {
  auto request = ParseWire(
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n",
      TestLimits());
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kUnimplemented)
      << request.status();
}

TEST(HttpRequestTest, PeerCloseBeforeCompleteRequestIsNotFound) {
  auto server = ServerSocket::Listen(0);
  ASSERT_TRUE(server.ok()) << server.status();
  std::thread peer([port = server->port()] {
    auto client = ConnectLoopback(port);
    ASSERT_TRUE(client.ok()) << client.status();
    (void)client->WriteAll("GET /x HTT");  // hang up mid request line
  });
  auto connection = server->AcceptWithTimeout(/*timeout_ms=*/5000);
  ASSERT_TRUE(connection.ok()) << connection.status();
  ASSERT_TRUE(connection->is_open());
  auto request = ReadHttpRequest(*connection, TestLimits());
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kNotFound)
      << request.status();
  peer.join();
}

TEST(HttpRequestTest, DribblingClientHitsTheTotalDeadline) {
  // 1 byte per 50 ms against a 250 ms total budget: under the old
  // per-chunk progress window each byte reset the clock and the request
  // never failed; the total deadline bounds the whole read.
  HttpLimits limits = TestLimits();
  limits.read_timeout_ms = 250;
  const std::string wire =
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
  const auto begin = std::chrono::steady_clock::now();
  auto request = ParseWire(wire, limits, /*chunk_size=*/1,
                           /*chunk_delay_ms=*/50);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().code(), StatusCode::kFailedPrecondition)
      << request.status();
  EXPECT_LT(elapsed.count(), 1500) << "deadline did not bound the read";
}

TEST(HttpRequestTest, DribbledBodyAlsoHitsTheTotalDeadline) {
  // The head arrives instantly; the body then dribbles. Head and body
  // share ONE deadline — the body read cannot start a fresh budget.
  HttpLimits limits = TestLimits();
  limits.read_timeout_ms = 250;
  std::string wire = "POST /x HTTP/1.1\r\nContent-Length: 40\r\n\r\n";
  wire += std::string(40, 'b');
  const auto begin = std::chrono::steady_clock::now();
  auto request = ParseWire(wire, limits, /*chunk_size=*/45,
                           /*chunk_delay_ms=*/400);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  ASSERT_FALSE(request.ok()) << "body read restarted the deadline";
  EXPECT_EQ(request.status().code(), StatusCode::kFailedPrecondition)
      << request.status();
  EXPECT_LT(elapsed.count(), 1500);
}

TEST(HttpRequestTest, ErrorResponsesFollowTheDocumentedMapping) {
  EXPECT_NE(BuildHttpErrorResponse(Status::InvalidArgument("x"))
                .find("HTTP/1.1 400 "),
            std::string::npos);
  EXPECT_NE(BuildHttpErrorResponse(Status::NotFound("x"))
                .find("HTTP/1.1 400 "),
            std::string::npos);
  EXPECT_NE(BuildHttpErrorResponse(Status::FailedPrecondition("x"))
                .find("HTTP/1.1 408 "),
            std::string::npos);
  EXPECT_NE(BuildHttpErrorResponse(Status::OutOfRange("x"))
                .find("HTTP/1.1 413 "),
            std::string::npos);
  EXPECT_NE(BuildHttpErrorResponse(Status::Unimplemented("x"))
                .find("HTTP/1.1 501 "),
            std::string::npos);
  EXPECT_NE(
      BuildHttpErrorResponse(Status::Internal("x")).find("HTTP/1.1 500 "),
      std::string::npos);
}

TEST(HttpRequestTest, HttpStatusCodeParsesResponses) {
  auto code = HttpStatusCode("HTTP/1.1 404 Not Found\r\n\r\n");
  ASSERT_TRUE(code.ok()) << code.status();
  EXPECT_EQ(*code, 404);
  EXPECT_FALSE(HttpStatusCode("SMTP 220 hello").ok());
  EXPECT_FALSE(HttpStatusCode("").ok());
}

}  // namespace
}  // namespace tdg::util::net
