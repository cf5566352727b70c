// Pipelined-transport tests: window backpressure, write coalescing under
// concurrent submitters, FIFO response matching, batched MultiGet, and the
// failure half of the contract — a mid-pipeline connection loss fails every
// in-flight request with kUnavailable, Disconnect() interrupts blocked I/O
// promptly, and an auto-reconnect never mismatches requests and responses
// across sockets. The caller-driven I/O cases check the same contract when
// waiting callers do their own sends and pass the reader role among
// themselves: FIFO across role handoffs, asynchronous traffic with no
// caller to read for it, teardown and io_timeout of a caller-led recv, and
// pushes on a connection whose background reader reads everything.
//
// Two servers appear here: the real TransportServer (the geminid event
// loop) for end-to-end behaviour, and StallServer — a hand-rolled wire
// speaker that answers HELLO and then releases responses only when told to
// — for the timing-sensitive cases (a real server answers too fast to hold
// a window full).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/cache_instance.h"
#include "src/client/gemini_client.h"
#include "src/common/clock.h"
#include "src/coordinator/coordinator.h"
#include "src/store/data_store.h"
#include "src/transport/server.h"
#include "src/transport/tcp_backend.h"
#include "src/transport/tcp_connection.h"
#include "src/transport/wire.h"

namespace gemini {
namespace {

using std::chrono::steady_clock;

const OpContext kInternalCtx{kInternalConfigId, kInvalidFragment};

/// Polls `cond` for up to `deadline_ms`; true when it became true.
template <typename Cond>
bool WaitFor(Cond cond, int deadline_ms = 5000) {
  const auto deadline =
      steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

// ---- StallServer: a wire speaker with a hand brake on its responses --------

class StallServer {
 public:
  StallServer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    // A short accept/recv timeout doubles as the control-flag poll interval.
    timeval tv{0, 50 * 1000};
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    thread_ = std::thread(&StallServer::Run, this);
  }

  ~StallServer() { Stop(); }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  [[nodiscard]] uint16_t port() const { return port_; }

  [[nodiscard]] size_t requests_seen() {
    std::lock_guard<std::mutex> lock(mu_);
    return requests_seen_;
  }

  /// Releases `n` queued responses (each an empty kOk frame).
  void AllowResponses(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    allowed_ += n;
  }

  /// Drops the accepted connection (the mid-pipeline kill).
  void CloseClient() {
    std::lock_guard<std::mutex> lock(mu_);
    close_client_ = true;
  }

  /// Client connections served and closed so far.
  [[nodiscard]] size_t clients_closed() {
    std::lock_guard<std::mutex> lock(mu_);
    return clients_closed_;
  }

 private:
  void Run() {
    while (!stop_.load()) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) continue;
      const int cfd = ::accept(listen_fd_, nullptr, nullptr);
      if (cfd < 0) continue;
      timeval tv{0, 50 * 1000};
      ::setsockopt(cfd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ServeClient(cfd);
      ::close(cfd);
      std::lock_guard<std::mutex> lock(mu_);
      close_client_ = false;
      pending_ = 0;  // responses owed to a closed connection are never sent
      ++clients_closed_;
    }
  }

  void ServeClient(int cfd) {
    std::string buf;
    bool saw_hello = false;
    while (!stop_.load()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (close_client_) return;
        while (allowed_ > 0 && pending_ > 0) {
          std::string out;
          wire::AppendResponse(out, Code::kOk, {});
          (void)::send(cfd, out.data(), out.size(), MSG_NOSIGNAL);
          --allowed_;
          --pending_;
        }
      }
      char chunk[4096];
      const ssize_t n = ::recv(cfd, chunk, sizeof(chunk), 0);
      if (n == 0) return;
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          continue;  // timeout tick: re-check the control flags
        }
        return;
      }
      buf.append(chunk, static_cast<size_t>(n));
      for (;;) {
        size_t consumed = 0;
        uint8_t tag = 0;
        std::string_view body;
        if (wire::DecodeFrame(buf, &consumed, &tag, &body) !=
            wire::DecodeResult::kFrame) {
          break;
        }
        if (!saw_hello) {
          saw_hello = true;
          wire::Reader r(body);
          uint32_t version = 0;
          ASSERT_TRUE(r.GetU32(&version));
          std::string hello;
          wire::PutU32(hello, version);
          wire::PutU32(hello, 0);  // instance id
          std::string out;
          wire::AppendResponse(out, Code::kOk, hello);
          (void)::send(cfd, out.data(), out.size(), MSG_NOSIGNAL);
        } else {
          std::lock_guard<std::mutex> lock(mu_);
          ++requests_seen_;
          ++pending_;
        }
        buf.erase(0, consumed);
      }
    }
  }

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  size_t requests_seen_ = 0;
  size_t pending_ = 0;
  size_t allowed_ = 0;
  size_t clients_closed_ = 0;
  bool close_client_ = false;
};

/// A counter for async completions.
struct CompletionLog {
  std::mutex mu;
  std::vector<Status> statuses;

  TcpConnection::Completion Slot() {
    return [this](Status s, std::string) {
      std::lock_guard<std::mutex> lock(mu);
      statuses.push_back(std::move(s));
    };
  }
  size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return statuses.size();
  }
  size_t CountCode(Code code) {
    std::lock_guard<std::mutex> lock(mu);
    size_t n = 0;
    for (const Status& s : statuses) n += s.code() == code ? 1 : 0;
    return n;
  }
};

// ---- Window backpressure ---------------------------------------------------

TEST(TransportPipelineTest, WindowBackpressureBlocksExtraSubmitter) {
  StallServer server;
  TcpConnection::Options opts;
  opts.max_inflight = 3;
  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance, opts);

  CompletionLog log;
  for (int i = 0; i < 3; ++i) {
    conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  }
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 3; }));

  // The window is full: a fourth submitter must block until a slot frees.
  std::atomic<bool> fourth_submitted{false};
  std::thread extra([&] {
    conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
    fourth_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(fourth_submitted.load());
  EXPECT_EQ(server.requests_seen(), 3u);

  server.AllowResponses(1);
  EXPECT_TRUE(WaitFor([&] { return fourth_submitted.load(); }));
  EXPECT_TRUE(WaitFor([&] { return server.requests_seen() == 4; }));

  server.AllowResponses(3);
  EXPECT_TRUE(WaitFor([&] { return log.count() == 4; }));
  EXPECT_EQ(log.CountCode(Code::kOk), 4u);
  extra.join();
}

// ---- Mid-pipeline connection loss ------------------------------------------

TEST(TransportPipelineTest, MidPipelineKillFailsAllInflightThenReconnects) {
  auto server = std::make_unique<StallServer>();
  const uint16_t port = server->port();
  TcpConnection::Options opts;
  opts.max_inflight = 8;
  TcpConnection conn("127.0.0.1", port, wire::kAnyInstance, opts);

  CompletionLog log;
  constexpr size_t kInflight = 5;
  for (size_t i = 0; i < kInflight; ++i) {
    conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  }
  ASSERT_TRUE(WaitFor([&] { return server->requests_seen() == kInflight; }));

  // Kill the server side with all five in flight: every caller must
  // complete with kUnavailable — none may hang, none may see a stray
  // response.
  server->CloseClient();
  ASSERT_TRUE(WaitFor([&] { return log.count() == kInflight; }));
  EXPECT_EQ(log.CountCode(Code::kUnavailable), kInflight);
  EXPECT_FALSE(conn.connected());

  // Bring a *real* geminid up on the same port; the next calls redial
  // transparently. A fresh socket starts an empty FIFO, so pipelined
  // requests after the reconnect must match their own responses — verify by
  // writing distinct values and reading them back in one burst.
  server->Stop();
  server.reset();
  VirtualClock clock;
  CacheInstance instance(0, &clock);
  TransportServer::Options sopts;
  sopts.port = port;
  TransportServer real(&instance, sopts);
  Status started = Status(Code::kInternal);
  for (int i = 0; i < 100 && !started.ok(); ++i) {
    started = real.Start();
    if (!started.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(started.ok()) << started.ToString();

  constexpr size_t kKeys = 24;  // deliberately wider than the window
  std::vector<TcpConnection::BatchRequest> sets(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    sets[i].op = wire::Op::kSet;
    wire::PutContext(sets[i].body, kInternalCtx);
    wire::PutKey(sets[i].body, "k" + std::to_string(i));
    wire::PutValue(sets[i].body,
                   CacheValue::OfData("v" + std::to_string(i)));
  }
  for (const auto& resp : conn.TransactBatch(sets)) {
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  }

  std::vector<TcpConnection::BatchRequest> gets(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    gets[i].op = wire::Op::kGet;
    wire::PutContext(gets[i].body, kInternalCtx);
    wire::PutKey(gets[i].body, "k" + std::to_string(i));
  }
  const auto resps = conn.TransactBatch(gets);
  ASSERT_EQ(resps.size(), kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(resps[i].status.ok()) << resps[i].status.ToString();
    wire::Reader r(resps[i].body);
    CacheValue value;
    ASSERT_TRUE(r.GetValue(&value) && r.Done());
    EXPECT_EQ(value.data, "v" + std::to_string(i));  // FIFO: no mismatch
  }
  real.Stop();
}

// ---- Disconnect() promptness -----------------------------------------------

TEST(TransportPipelineTest, DisconnectInterruptsBlockedIoPromptly) {
  StallServer server;
  TcpConnection::Options opts;
  opts.max_inflight = 4;
  opts.io_timeout = Seconds(30);  // the old code would block this long
  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance, opts);

  CompletionLog log;
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 2; }));

  // The reader thread is now parked in recv() with no response coming.
  const auto t0 = steady_clock::now();
  conn.Disconnect();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 2000) << "Disconnect blocked behind io_timeout";
  EXPECT_TRUE(WaitFor([&] { return log.count() == 2; }));
  EXPECT_EQ(log.CountCode(Code::kUnavailable), 2u);
  EXPECT_FALSE(conn.connected());
}

TEST(TransportPipelineTest, DisconnectFailsSubmitterBlockedOnWindow) {
  StallServer server;
  TcpConnection::Options opts;
  opts.max_inflight = 1;
  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance, opts);

  CompletionLog log;
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 1; }));

  std::atomic<bool> second_submitted{false};
  std::thread blocked([&] {
    conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
    second_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(second_submitted.load());

  conn.Disconnect();
  EXPECT_TRUE(WaitFor([&] { return second_submitted.load(); }));
  blocked.join();
  // Both the in-flight request and the window-blocked one fail.
  EXPECT_TRUE(WaitFor([&] { return log.count() == 2; }));
  EXPECT_EQ(log.CountCode(Code::kUnavailable), 2u);
}

// ---- Caller-driven I/O: teardown and timeouts of a caller-led recv ----------

TEST(TransportPipelineTest, DisconnectFailsLeaderAndFollowerThenRedials) {
  StallServer server;
  TcpConnection::Options opts;
  opts.max_inflight = 8;
  opts.io_timeout = Seconds(30);
  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance, opts);
  ASSERT_TRUE(conn.Connect().ok());

  // The first caller takes the reader role and blocks in recv(); the second
  // parks behind it; two asynchronous frames wait behind both.
  Status led = Status::Ok();
  Status followed = Status::Ok();
  std::thread leader(
      [&] { led = conn.Transact(wire::Op::kPing, {}, nullptr); });
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 1; }));
  std::thread follower(
      [&] { followed = conn.Transact(wire::Op::kPing, {}, nullptr); });
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 2; }));
  CompletionLog log;
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 4; }));

  const auto t0 = steady_clock::now();
  conn.Disconnect();
  leader.join();
  follower.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 2000) << "a caller stayed blocked in recv";
  EXPECT_EQ(led.code(), Code::kUnavailable) << led.ToString();
  EXPECT_EQ(followed.code(), Code::kUnavailable) << followed.ToString();
  EXPECT_TRUE(WaitFor([&] { return log.count() == 2; }));
  EXPECT_EQ(log.CountCode(Code::kUnavailable), 2u);
  EXPECT_FALSE(conn.connected());

  // Once the server has dropped the old socket, the next call redials and
  // completes on a fresh FIFO.
  ASSERT_TRUE(WaitFor([&] { return server.clients_closed() == 1; }));
  server.AllowResponses(1);
  EXPECT_TRUE(conn.Transact(wire::Op::kPing, {}, nullptr).ok());
  EXPECT_EQ(server.requests_seen(), 5u);
}

TEST(TransportPipelineTest, IoTimeoutInCallerLedRecvFailsWholeWindow) {
  StallServer server;
  TcpConnection::Options opts;
  opts.max_inflight = 8;
  opts.io_timeout = Millis(500);
  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance, opts);
  ASSERT_TRUE(conn.Connect().ok());

  Status led = Status::Ok();
  Status followed = Status::Ok();
  std::thread leader(
      [&] { led = conn.Transact(wire::Op::kPing, {}, nullptr); });
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 1; }));
  CompletionLog log;
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  conn.SubmitAsync(wire::Op::kPing, {}, log.Slot());
  std::thread follower(
      [&] { followed = conn.Transact(wire::Op::kPing, {}, nullptr); });

  // No response ever comes: the leader's recv times out, and the timeout
  // fails the whole window — the parked caller and the async frames too.
  leader.join();
  follower.join();
  EXPECT_EQ(led.code(), Code::kUnavailable);
  EXPECT_NE(led.message().find("timed out"), std::string::npos)
      << led.ToString();
  EXPECT_EQ(followed.code(), Code::kUnavailable) << followed.ToString();
  EXPECT_TRUE(WaitFor([&] { return log.count() == 2; }));
  EXPECT_EQ(log.CountCode(Code::kUnavailable), 2u);
  EXPECT_FALSE(conn.connected());
}

// ---- End-to-end against the real server ------------------------------------

class PipelineE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = std::make_unique<CacheInstance>(0, &clock_);
    server_ = std::make_unique<TransportServer>(instance_.get(),
                                                TransportServer::Options{});
    ASSERT_TRUE(server_->Start().ok());
    backend_ = std::make_unique<TcpCacheBackend>("127.0.0.1", server_->port());
  }

  void TearDown() override {
    backend_.reset();
    if (server_ != nullptr) server_->Stop();
  }

  VirtualClock clock_;
  std::unique_ptr<CacheInstance> instance_;
  std::unique_ptr<TransportServer> server_;
  std::unique_ptr<TcpCacheBackend> backend_;
};

TEST_F(PipelineE2eTest, MultiGetMixesHitsMissesAndLocalErrors) {
  for (int i = 0; i < 10; i += 2) {
    ASSERT_TRUE(backend_
                    ->Set(kInternalCtx, "key" + std::to_string(i),
                          CacheValue::OfData("value" + std::to_string(i)))
                    .ok());
  }
  std::vector<GetRequest> reqs;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back({kInternalCtx, "key" + std::to_string(i)});
  }
  reqs.push_back({kInternalCtx, std::string(wire::kMaxKeyLen + 1, 'x')});

  auto results = backend_->MultiGet(reqs);
  ASSERT_EQ(results.size(), reqs.size());
  for (int i = 0; i < 10; ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(results[i].ok()) << i;
      EXPECT_EQ(results[i]->data, "value" + std::to_string(i));
    } else {
      EXPECT_EQ(results[i].code(), Code::kNotFound) << i;
    }
  }
  // The oversized key fails locally without poisoning the rest of the batch.
  EXPECT_EQ(results.back().code(), Code::kInvalidArgument);
}

TEST_F(PipelineE2eTest, ConcurrentSubmittersNeverMismatchResponses) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 200;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      const std::string suffix = std::to_string(t) + "_" + std::to_string(i);
      ASSERT_TRUE(backend_
                      ->Set(kInternalCtx, "key" + suffix,
                            CacheValue::OfData("value" + suffix))
                      .ok());
    }
  }
  // All threads share the backend (and thus one pipelined connection); each
  // verifies every response against its own key — a FIFO mix-up anywhere
  // surfaces as a wrong value here.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string suffix =
            std::to_string(t) + "_" + std::to_string(i);
        auto r = backend_->Get(kInternalCtx, "key" + suffix);
        if (!r.ok() || r->data != "value" + suffix) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

/// A kSet body for (key, value) under the internal context.
std::string SetBody(const std::string& key, const std::string& value) {
  std::string body;
  wire::PutContext(body, kInternalCtx);
  wire::PutKey(body, key);
  wire::PutValue(body, CacheValue::OfData(value));
  return body;
}

/// The value a kGet of `key` returns over `conn` ("<status>" on failure).
std::string GetOver(TcpConnection& conn, const std::string& key) {
  std::string body;
  wire::PutContext(body, kInternalCtx);
  wire::PutKey(body, key);
  std::string resp;
  if (Status s = conn.Transact(wire::Op::kGet, body, &resp); !s.ok()) {
    return "<" + s.ToString() + ">";
  }
  wire::Reader r(resp);
  CacheValue value;
  if (!r.GetValue(&value) || !r.Done()) return "<malformed>";
  return value.data;
}

TEST_F(PipelineE2eTest, CallersSharingOneConnectionMatchEveryReply) {
  TcpConnection conn("127.0.0.1", server_->port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  constexpr int kThreads = 4;
  constexpr int kPairs = 1500;
  constexpr int kPostEvery = 8;
  // Each thread sets and reads back its own keys while all four share the
  // socket, so the reader role changes hands constantly; every eighth pair
  // also posts an asynchronous Set and reads that key straight back, which
  // FIFO must order after the post whichever thread sends or reads it.
  std::atomic<int> mismatches{0};
  CompletionLog posts;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPairs; ++i) {
        const std::string key = "t" + std::to_string(t) + "_k" +
                                std::to_string(i % 64);
        const std::string value = "v" + std::to_string(t) + "_" +
                                  std::to_string(i);
        if (!conn.Transact(wire::Op::kSet, SetBody(key, value), nullptr)
                 .ok() ||
            GetOver(conn, key) != value) {
          mismatches.fetch_add(1);
        }
        if (i % kPostEvery == 0) {
          const std::string posted = "t" + std::to_string(t) + "_post";
          conn.SubmitAsync(wire::Op::kSet, SetBody(posted, value),
                           posts.Slot());
          if (GetOver(conn, posted) != value) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const size_t expected_posts = kThreads * ((kPairs + kPostEvery - 1) /
                                            kPostEvery);
  EXPECT_TRUE(WaitFor([&] { return posts.count() == expected_posts; }));
  EXPECT_EQ(posts.CountCode(Code::kOk), expected_posts);
}

TEST_F(PipelineE2eTest, AsyncOnlyTrafficCompletesEveryCallback) {
  TcpConnection::Options opts;
  opts.max_inflight = 8;  // small, so the submitters block on the window
  TcpConnection conn("127.0.0.1", server_->port(), wire::kAnyInstance, opts);
  constexpr int kThreads = 2;
  constexpr int kPosts = 2000;
  // No caller ever waits on this connection: the background threads alone
  // must send every frame and complete every callback.
  CompletionLog log;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPosts; ++i) {
        conn.SubmitAsync(wire::Op::kSet,
                         SetBody("a" + std::to_string(t), std::to_string(i)),
                         log.Slot());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(WaitFor([&] { return log.count() == kThreads * kPosts; }));
  EXPECT_EQ(log.CountCode(Code::kOk), static_cast<size_t>(kThreads * kPosts));
  // Each thread's posts applied in order: the last one wins.
  for (const char* key : {"a0", "a1"}) {
    EXPECT_EQ(backend_->Get(kInternalCtx, key)->data,
              std::to_string(kPosts - 1));
  }
}

/// A control plane that subscribes every kCoordConfigWatch caller to pushes
/// and answers every other control op with an empty kOk.
class SubscribingControlPlane : public ControlPlane {
 public:
  Reply HandleControl(wire::Op op, std::string_view) override {
    Reply reply;
    reply.subscribe = op == wire::Op::kCoordConfigWatch;
    return reply;
  }
};

TEST(TransportPipelineTest, PushInterestConnectionDeliversPushesAmidTransacts) {
  VirtualClock clock;
  CacheInstance instance(0, &clock);
  SubscribingControlPlane control;
  TransportServer::Options sopts;
  sopts.control = &control;
  TransportServer server(&instance, sopts);
  ASSERT_TRUE(server.Start().ok());

  TcpConnection conn("127.0.0.1", server.port(), wire::kAnyInstance,
                     TcpConnection::Options{});
  std::mutex mu;
  std::vector<std::string> pushes;
  conn.AddPushHandler([&](uint8_t tag, const std::string& body) {
    wire::Reader r(body);
    std::string_view config;
    if (tag != wire::kPushConfigTag || !r.GetBlob(&config)) return;
    std::lock_guard<std::mutex> lock(mu);
    pushes.emplace_back(config);
  });
  std::string watch;
  wire::PutU64(watch, 0);
  ASSERT_TRUE(conn.Transact(wire::Op::kCoordConfigWatch, watch, nullptr).ok());

  // Callers keep the connection busy while the server interleaves pushes
  // with their responses.
  constexpr int kThreads = 2;
  constexpr int kPairs = 300;
  constexpr int kPushes = 100;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPairs; ++i) {
        const std::string key = "p" + std::to_string(t);
        const std::string value = std::to_string(i);
        if (!conn.Transact(wire::Op::kSet, SetBody(key, value), nullptr)
                 .ok() ||
            GetOver(conn, key) != value) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < kPushes; ++i) {
    server.PushConfigToSubscribers("cfg" + std::to_string(i));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return pushes.size() == kPushes;
  }));
  {
    std::lock_guard<std::mutex> lock(mu);
    for (int i = 0; i < kPushes; ++i) {
      EXPECT_EQ(pushes[i], "cfg" + std::to_string(i));
    }
  }
  // An idle push-interest connection still receives pushes.
  server.PushConfigToSubscribers("idle");
  EXPECT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(mu);
    return pushes.size() == kPushes + 1 && pushes.back() == "idle";
  }));
}

// ---- Posted fills (IqSet/IDelete without waiting) ---------------------------

TEST_F(PipelineE2eTest, PostedFillThenIqGetOnSameConnectionHits) {
  auto miss = backend_->IqGet(kInternalCtx, "k");
  ASSERT_TRUE(miss.ok());
  ASSERT_FALSE(miss->value.has_value());
  backend_->PostFill(kInternalCtx, "k", miss->i_token,
                     CacheValue::OfData("filled", 7));
  // No wait in between: FIFO per connection applies the fill first.
  auto hit = backend_->IqGet(kInternalCtx, "k");
  ASSERT_TRUE(hit.ok());
  ASSERT_TRUE(hit->value.has_value());
  EXPECT_EQ(hit->value->data, "filled");
  EXPECT_EQ(hit->value->version, 7u);

  // A posted release (the store had no record) frees the key the same way.
  auto absent = backend_->IqGet(kInternalCtx, "absent");
  ASSERT_TRUE(absent.ok());
  backend_->PostFill(kInternalCtx, "absent", absent->i_token, std::nullopt);
  auto again = backend_->IqGet(kInternalCtx, "absent");
  ASSERT_TRUE(again.ok()) << "I lease still held: " << again.status().ToString();
  EXPECT_FALSE(again->value.has_value());
}

/// The cache's kStats counters, read over `conn`.
std::map<std::string, uint64_t> ReadStats(TcpConnection& conn) {
  std::map<std::string, uint64_t> stats;
  std::string resp;
  EXPECT_TRUE(conn.Transact(wire::Op::kStats, "", &resp).ok());
  wire::Reader r(resp);
  uint32_t count = 0;
  EXPECT_TRUE(r.GetU32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view name;
    uint64_t value = 0;
    EXPECT_TRUE(r.GetBlob(&name) && r.GetU64(&value));
    stats[std::string(name)] = value;
  }
  return stats;
}

/// A TcpCacheBackend that runs `before_post` between a read miss's store
/// query and its posted fill — the window a concurrent writer races.
class InterposingBackend : public TcpCacheBackend {
 public:
  using TcpCacheBackend::TcpCacheBackend;
  std::function<void()> before_post;

  void PostFill(const OpContext& ctx, std::string_view key, LeaseToken token,
                std::optional<CacheValue> value) override {
    if (before_post) before_post();
    TcpCacheBackend::PostFill(ctx, key, token, std::move(value));
  }
};

/// One geminid instance behind a TransportServer, fronted for a
/// GeminiClient by an InterposingBackend.
class PostedFillClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = std::make_unique<CacheInstance>(0, &clock_);
    server_ = std::make_unique<TransportServer>(instance_.get(),
                                                TransportServer::Options{});
    ASSERT_TRUE(server_->Start().ok());
    backend_ =
        std::make_unique<InterposingBackend>("127.0.0.1", server_->port());
    ASSERT_TRUE(backend_->Connect().ok());
    coordinator_ = std::make_unique<Coordinator>(
        &clock_, std::vector<CacheInstance*>{instance_.get()},
        /*num_fragments=*/4);
    client_ = std::make_unique<GeminiClient>(
        &clock_, coordinator_.get(),
        std::vector<CacheBackend*>{backend_.get()}, &store_);
  }

  void TearDown() override {
    client_.reset();
    backend_.reset();
    if (server_ != nullptr) server_->Stop();
  }

  OpContext CtxOf(std::string_view key) {
    auto cfg = coordinator_->GetConfiguration();
    return OpContext{cfg->id(), cfg->FragmentOf(key)};
  }

  VirtualClock clock_;
  DataStore store_;
  std::unique_ptr<CacheInstance> instance_;
  std::unique_ptr<TransportServer> server_;
  std::unique_ptr<InterposingBackend> backend_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<GeminiClient> client_;
  Session session_;
};

TEST_F(PostedFillClientTest, WriteFromAnotherConnectionVoidsPostedFill) {
  store_.Put("k", "v1");
  const Version v1 = store_.VersionOf("k");
  // A writer on its own socket (not the shared pool connection) completes
  // Qareg, the store update and Dar after the reader queried the store and
  // before its fill is posted.
  TcpConnection writer("127.0.0.1", server_->port(), wire::kAnyInstance,
                       TcpConnection::Options{});
  ASSERT_TRUE(writer.Connect().ok());
  backend_->before_post = [&] {
    backend_->before_post = nullptr;
    const std::string ctx_key = [&] {
      std::string body;
      wire::PutContext(body, CtxOf("k"));
      wire::PutKey(body, "k");
      return body;
    }();
    std::string resp;
    ASSERT_TRUE(writer.Transact(wire::Op::kQareg, ctx_key, &resp).ok());
    wire::Reader r(resp);
    uint64_t q = 0;
    ASSERT_TRUE(r.GetU64(&q));
    store_.Update("k", std::string("v2"));
    std::string dar = ctx_key;
    wire::PutU64(dar, q);
    ASSERT_TRUE(writer.Transact(wire::Op::kDar, dar, &resp).ok());
  };

  auto read = client_->Read(session_, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->cache_hit);
  // The reader returns what it computed: the read overlapped the write, so
  // v1 is a consistent answer (Lemma 2, Case II).
  EXPECT_EQ(read->value.data, "v1");
  EXPECT_EQ(read->value.version, v1);

  // FIFO barrier on the reader's connection: the posted fill has applied,
  // and the server refused it.
  EXPECT_EQ(backend_->Get(CtxOf("k"), "k").code(), Code::kNotFound);
  EXPECT_EQ(ReadStats(writer)["cache.fills_rejected"], 1u);

  // The next read misses, fills v2 and then hits it.
  read = client_->Read(session_, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->value.data, "v2");
  read = client_->Read(session_, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->cache_hit);
  EXPECT_EQ(read->value.data, "v2");
}

TEST_F(PostedFillClientTest, TeardownWithPostedFillsInFlightIsClean) {
  for (int i = 0; i < 64; ++i) store_.Put("user" + std::to_string(i), "v");
  // Every read misses and posts a fill; tear the client and its backend
  // down with the last posts still in flight.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(client_->Read(session_, "user" + std::to_string(i)).ok());
  }
  client_.reset();
  backend_.reset();
}

TEST(PostedFillTest, ConnectionCutWithPostsInFlightRedialsWithoutHanging) {
  StallServer server;
  TcpCacheBackend backend("127.0.0.1", server.port());
  constexpr size_t kPosts = 5;
  for (size_t i = 0; i < kPosts; ++i) {
    backend.PostFill(kInternalCtx, "k" + std::to_string(i), /*token=*/1,
                     CacheValue::OfData("v"));
  }
  // The posts returned at once; their frames reached the server and wait on
  // responses it withholds.
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == kPosts; }));

  server.CloseClient();
  ASSERT_TRUE(WaitFor([&] { return !backend.connected(); }));

  // The next call redials and completes normally.
  server.AllowResponses(1);
  EXPECT_TRUE(backend.Ping().ok());
  EXPECT_EQ(server.requests_seen(), kPosts + 1);

  // Destroy the backend (the last holder of its connection) with posts in
  // flight again: their completions fail inside the teardown, capturing
  // nothing that dies with it.
  for (size_t i = 0; i < kPosts; ++i) {
    backend.PostFill(kInternalCtx, "k" + std::to_string(i), /*token=*/1,
                     std::nullopt);
  }
  ASSERT_TRUE(WaitFor([&] { return server.requests_seen() == 2 * kPosts + 1; }));
}

// ---- WarmUp over the in-process backend ------------------------------------

TEST(WarmUpTest, ProbesThenFillsOnlyMisses) {
  VirtualClock clock;
  std::vector<std::unique_ptr<CacheInstance>> instances;
  std::vector<CacheInstance*> raw;
  for (InstanceId i = 0; i < 2; ++i) {
    instances.push_back(std::make_unique<CacheInstance>(i, &clock));
    raw.push_back(instances.back().get());
  }
  Coordinator coordinator(&clock, raw, /*num_fragments=*/8);
  DataStore store;
  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) {
    keys.push_back("user" + std::to_string(i));
    store.Put(keys.back(), "v" + std::to_string(i));
  }
  GeminiClient client(&clock, &coordinator, raw, &store);
  Session session;

  // Cold cache: nothing is cached yet; WarmUp fills every key via Read().
  EXPECT_EQ(client.WarmUp(session, keys), 0u);
  const auto after_fill = client.stats();
  EXPECT_EQ(after_fill.reads, keys.size());

  // Warm cache: every probe hits, no Read() happens at all.
  EXPECT_EQ(client.WarmUp(session, keys), keys.size());
  EXPECT_EQ(client.stats().reads, after_fill.reads);

  // Reads after warm-up are cache hits.
  auto r = client.Read(session, keys[3]);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->cache_hit);
  EXPECT_EQ(r->value.data, "v3");
}

}  // namespace
}  // namespace gemini
