// TcpConnection: one pipelined wire-protocol socket to a geminid, shareable
// between several TcpCacheBackends.
//
// A connection dials, runs the HELLO handshake (naming the target instance
// when the server hosts several), and then carries a *pipelined* request
// stream: callers enqueue (frame, completion) pairs into a bounded in-flight
// window and responses complete them strictly in FIFO order. Response frames
// carry a status code, not a correlation id, so FIFO completion is the
// protocol's matching rule — sound because a geminid processes each
// connection's frames sequentially and replies in submission order
// (docs/PROTOCOL.md §10.6). Any number of backends — a GeminiClient's
// per-instance backend, a recovery worker's, a flusher's — multiplex one
// socket without waiting on each other's round trips.
//
// I/O is caller-driven. A thread that is about to block on the connection
// (Transact, TransactBatch) does its own socket work instead of handing it
// to a helper thread:
//  - Sending: it flushes the whole send queue — its own frames and any
//    queued before them — through one gathered sendmsg(2) just before it
//    blocks. One thread at a time holds the sending role, so wire order is
//    queue order; a sender drains frames queued meanwhile before it lets go.
//  - Reading: while requests are in flight exactly one thread holds the
//    reader role. A waiting caller takes it when it is free, then recv()s
//    and completes responses in FIFO order until its own have arrived and
//    no received frame is left undecoded, waking only the callers whose
//    responses it completed (one condition variable per waiter). On
//    release it hands the role to a parked waiter, or to the background
//    reader once only asynchronous requests remain.
// Two background threads serve the frames no caller waits for: a writer
// flushes SubmitAsync frames (coalescing whatever queued up while it woke),
// and a reader completes SubmitAsync responses. A connection with push
// interest (AddPushHandler) keeps the background reader on every response,
// so pushes arrive on an idle socket.
//
// Sharing is per (host, port, instance): Acquire() hands out a
// process-wide shared connection for the triple, creating it lazily and
// dropping it when the last holder releases it. Connection loss fails every
// in-flight call with kUnavailable — the same code an in-process failed
// instance returns — and by default the connection redials transparently on
// the next call.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/transport/wire.h"

namespace gemini {

/// Client-side retry policy for *idempotent* wire ops (wire::IsIdempotentOp;
/// docs/PROTOCOL.md §11). A failed idempotent Transact() is redialed and
/// re-sent up to max_attempts times with exponential backoff and full
/// jitter; non-idempotent ops (anything touching leases, versions, or dirty
/// lists) always fail fast after one attempt, because a duplicated send
/// after an ambiguous connection drop could double-apply. Only kUnavailable
/// is retried — every other code is a definitive answer from the server.
struct RetryPolicy {
  /// Total attempts including the first; 1 (the default) disables retry, so
  /// existing callers see byte-identical behavior.
  int max_attempts = 1;
  /// Backoff cap before attempt 2; doubles per attempt up to max_backoff.
  /// The actual sleep is uniform in [0, cap] (full jitter).
  Duration initial_backoff = Millis(2);
  Duration max_backoff = Millis(100);
  /// Per-op wall-clock budget across all attempts and backoffs; once it is
  /// spent no new attempt starts (the op returns its last error). 0 = no
  /// budget (bounded by max_attempts alone).
  Duration deadline = 0;
  /// Seed for the jitter draw; 0 derives one from the endpoint so two
  /// clients hammering the same dead server do not sleep in lockstep.
  uint64_t jitter_seed = 0;
};

class TcpConnection {
 public:
  struct Options {
    Duration connect_timeout = Seconds(5);
    /// Per-call socket send/receive timeout (0 = OS default, i.e. block).
    /// Expiry mid-response is connection-fatal: the reader cannot tell a
    /// stalled peer from a dead one, and resuming a half-read stream later
    /// would desync the FIFO, so it fails the whole in-flight window with
    /// kUnavailable and forces a redial.
    Duration io_timeout = Seconds(30);
    /// Redial automatically on the first call after a connection drop.
    bool auto_reconnect = true;
    /// Upper bound on requests in flight (submitted, response pending) on
    /// this connection. Submitters past the bound block until a slot frees;
    /// 1 degenerates to the old strict request/response alternation.
    size_t max_inflight = 32;
    /// Retry policy for idempotent ops issued via Transact()/MultiGet
    /// (SubmitAsync stays single-shot: async callers own their retries).
    RetryPolicy retry;
    /// Circuit breaker: after this many *consecutive* failed dials (socket
    /// or handshake failure with kUnavailable) the endpoint is considered
    /// down and every call fails fast — no dial, no connect_timeout — until
    /// breaker_cooldown passes; then exactly one half-open probe dial runs,
    /// closing the breaker on success or re-opening it on failure. 0
    /// disables the breaker. Fast kUnavailable is what lets GeminiClient
    /// fall through to the data store instead of hammering a dead endpoint.
    int breaker_failure_threshold = 8;
    Duration breaker_cooldown = Millis(500);
  };

  /// Observable circuit-breaker state (for tests and introspection).
  enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

  /// Completion of one submitted request: the response status and, for kOk,
  /// the response body. Invoked exactly once, never with the connection's
  /// lock held, on whichever thread reads its response: the background
  /// reader, or a Transact caller that holds the reader role while it waits
  /// for its own response. A request that fails before it is enqueued
  /// completes on the submitting thread; a teardown completes it on the
  /// thread that tore the connection down. Keep it cheap and never call
  /// back into this connection from inside.
  using Completion = std::function<void(Status, std::string)>;

  /// Handler for unsolicited server pushes (frames whose tag satisfies
  /// wire::IsPushTag — e.g. configuration pushes after a kCoordConfigWatch
  /// subscription). Runs on the background reader thread; keep it cheap and
  /// never call back into this connection from inside. Push frames are not
  /// responses: they bypass the FIFO response matching entirely (§10.6
  /// unaffected).
  using PushHandler = std::function<void(uint8_t tag, const std::string& body)>;

  /// Registers `handler` for every push frame this connection receives, for
  /// the connection's lifetime (there is no removal — holders of a shared
  /// connection each add their own handler and must outlive it, or capture
  /// weak state). Registering also switches the reader into push-interest
  /// mode: the background reader then reads every frame (callers no longer
  /// take the reader role) and keeps draining the socket even with no
  /// request in flight, so pushes arrive promptly on an otherwise idle
  /// connection.
  void AddPushHandler(PushHandler handler);

  /// One request of a pipelined batch.
  struct BatchRequest {
    wire::Op op;
    std::string body;
  };
  /// Its response: `status` is kOk with `body` holding the payload, or the
  /// decoded error (connection loss = kUnavailable).
  struct BatchResponse {
    Status status = Status::Ok();
    std::string body;
  };

  /// `target_instance` selects the remote instance in the v2 HELLO;
  /// kAnyInstance binds the server's default instance.
  TcpConnection(std::string host, uint16_t port, InstanceId target_instance,
                Options options);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Returns the process-wide shared connection for (host, port,
  /// target_instance), creating it with `options` when no live holder
  /// exists (an already-live connection keeps its original options).
  static std::shared_ptr<TcpConnection> Acquire(const std::string& host,
                                                uint16_t port,
                                                InstanceId target_instance,
                                                const Options& options);

  /// Dials and runs the HELLO handshake. Idempotent; kUnavailable when the
  /// server cannot be reached, kWrongInstance when it does not host the
  /// target, kInternal on a protocol-version mismatch.
  Status Connect();
  /// Tears the connection down promptly: shuts the socket down out-of-band
  /// (interrupting reader/writer syscalls mid-flight) and fails every
  /// in-flight request with kUnavailable. Every sharer sees the drop; the
  /// next call redials (under auto_reconnect).
  void Disconnect();
  [[nodiscard]] bool connected() const;

  /// The bound remote instance's id, learned from HELLO (kInvalidInstance
  /// until the first successful Connect()).
  [[nodiscard]] InstanceId remote_id() const;

  /// The options this connection was created with (shared holders all see
  /// the creator's options — see Acquire()).
  [[nodiscard]] const Options& options() const { return options_; }

  /// Current circuit-breaker state. kOpen = calls fail fast without
  /// dialing; kHalfOpen = the cooldown has passed and the next call is the
  /// probe.
  [[nodiscard]] BreakerState breaker_state() const;

  /// The full-jitter backoff to sleep before `attempt` (2-based: the sleep
  /// between attempt N-1 and N), or a negative Duration when `policy`'s
  /// deadline leaves no room for another attempt. `elapsed` is the time
  /// already spent on the op; `salt` decorrelates independent retry loops.
  /// Exposed so TcpCacheBackend::MultiGet can share the exact policy
  /// semantics.
  static Duration BackoffBeforeAttempt(const RetryPolicy& policy, int attempt,
                                       Duration elapsed, uint64_t salt);

  /// Submits one request into the pipeline (connecting first if needed) and
  /// returns once it occupies a window slot; `done` fires when its response
  /// arrives, in FIFO order with every other submission. Blocks while the
  /// window is full. On connection loss `done` fires with kUnavailable. The
  /// background writer sends the frame, so bursts of submissions coalesce
  /// into shared sendmsg(2) calls.
  void SubmitAsync(wire::Op op, std::string_view body, Completion done);

  /// One request/response round trip (connecting first if needed).
  /// `resp_body` receives the response payload of a kOk reply; a non-ok
  /// reply becomes the returned Status (message from the body blob).
  /// Concurrent callers pipeline instead of serializing; the calling thread
  /// sends its frame and, when no other thread is reading, reads the
  /// responses itself (see the header comment). When options().retry
  /// allows it and `op` is idempotent, a kUnavailable outcome is
  /// transparently retried (redial + re-send) within the policy's attempt
  /// and deadline budget.
  Status Transact(wire::Op op, std::string_view body,
                  std::string* resp_body);

  /// Submits every request back-to-back (one coalesced burst, up to the
  /// window) and waits for all responses. resp[i] corresponds to reqs[i].
  std::vector<BatchResponse> TransactBatch(
      const std::vector<BatchRequest>& reqs);

  /// The instance ids the remote server hosts (wire kInstanceList).
  Result<std::vector<InstanceId>> ListInstances();

 private:
  /// One connection epoch: the fd plus the receive buffer of its response
  /// stream. Epochs are immutable-identity objects handed to the I/O roles
  /// via shared_ptr, so a reconnect (new epoch) can never mix two sockets'
  /// bytes, and the fd is closed only when the last reference drops — after
  /// every thread has stopped issuing syscalls on it.
  struct Socket {
    explicit Socket(int fd_in) : fd(fd_in) {}
    ~Socket();
    /// Out-of-band interrupt: wakes any thread blocked in send/recv on this
    /// fd without racing fd reuse (close happens at destruction).
    void ShutdownBoth() const;

    const int fd;
    /// Bytes received but not yet decoded. Only the reader-role holder
    /// touches it while the epoch is current.
    std::string recv_buf;
  };

  /// A thread blocked on this connection (it lives on that thread's stack).
  /// Each waiter sleeps on its own condition variable, so a completion or a
  /// role handoff wakes exactly the thread it concerns.
  struct Waiter {
    std::condition_variable cv;
    /// This waiter's requests still in flight.
    size_t pending = 0;
    /// Blocked on a full window (woken when a slot frees).
    bool wants_slot = false;
    /// May take the reader role (false for SubmitAsync, whose responses the
    /// background reader serves).
    bool may_lead = true;
    /// Listed in parked_ (asleep on cv, not yet woken).
    bool parked = false;
  };

  /// One in-flight request, in FIFO order. A caller's request names its
  /// Waiter and the slot its response lands in; an asynchronous one carries
  /// its completion.
  struct Request {
    Completion done;
    Waiter* waiter = nullptr;
    BatchResponse* reply = nullptr;
  };

  Status ConnectLocked();
  /// The actual dial + HELLO, called by ConnectLocked once the breaker
  /// admits the attempt.
  Status DialLocked();
  Status EnsureConnectedLocked();
  /// One round trip on the calling thread (the pre-retry Transact()).
  Status TransactOnce(wire::Op op, std::string_view body,
                      std::string* resp_body);
  /// Connects if needed and waits for a window slot on the current epoch.
  Status AdmitLocked(std::unique_lock<std::mutex>& lock, Waiter& w);
  /// Queues an encoded request frame and appends its request to inflight_.
  void QueueLocked(std::string frame, Request req);
  /// Blocks `w`'s thread until `ready()` holds. A waiter that may lead
  /// flushes the send queue first and takes the reader role when it is
  /// free; otherwise it parks until a completion, a freed slot or a role
  /// handoff wakes it.
  template <typename Ready>
  void WaitLocked(std::unique_lock<std::mutex>& lock, Waiter& w, Ready ready);
  /// Sends every queued frame unless another thread holds the sending role
  /// (which then sends them). Tears the epoch down on a send error.
  void FlushLocked(std::unique_lock<std::mutex>& lock);
  /// Holds the reader role on the current epoch, receiving and completing
  /// responses in FIFO order until `stop()` holds with no complete frame
  /// left buffered, or the epoch ends; then hands the role on.
  template <typename Stop>
  void LeadLocked(std::unique_lock<std::mutex>& lock, Stop stop);
  /// Passes the free reader role to the first parked waiter that may lead,
  /// else to the background reader when it has work.
  void HandOffReaderLocked();
  /// True while the background reader should hold the reader role: push
  /// interest, or only asynchronous requests in flight.
  [[nodiscard]] bool BackgroundReadsLocked() const;
  /// Completes `req` with (s, body): a caller's request under the lock, an
  /// asynchronous completion with the lock released.
  void FinishLocked(std::unique_lock<std::mutex>& lock, Request req, Status s,
                    std::string body);
  /// Unparks `w` (no-op when it is not parked).
  void WakeLocked(Waiter* w);
  /// Drops the current epoch, fails every caller's request with
  /// (kUnavailable, why) and returns the asynchronous completions the caller
  /// must fail with `why` AFTER unlocking.
  std::vector<Completion> TearLocked(const std::string& why);
  /// Fails `victims` with (kUnavailable, why); call without holding mu_.
  static void FailAll(std::vector<Completion>& victims, const std::string& why);

  void WriterLoop();
  void ReaderLoop();

  const std::string host_;
  const uint16_t port_;
  const InstanceId target_instance_;
  const Options options_;

  mutable std::mutex mu_;
  /// Current epoch; nullptr = disconnected.
  std::shared_ptr<Socket> sock_;
  InstanceId remote_id_ = kInvalidInstance;
  /// Circuit breaker (guarded by mu_): consecutive kUnavailable dial
  /// failures and the wall-clock (SystemClock, monotonic us) the open state
  /// lasts until.
  int consecutive_dial_failures_ = 0;
  Timestamp breaker_open_until_ = 0;
  /// Encoded request frames accepted but not yet handed to the socket, one
  /// string per frame. The sending-role holder swaps the whole deque out and
  /// sends it as an iovec chain through one sendmsg(2), so every frame
  /// pending at that moment leaves in one syscall (write coalescing) with no
  /// coalescing memcpy.
  std::deque<std::string> send_queue_;
  /// The frames being sent; owned by the sending-role holder (kept as a
  /// member so its storage is reused across flushes).
  std::deque<std::string> sending_frames_;
  /// Requests submitted and not yet answered, oldest first — the FIFO
  /// responses are matched against.
  std::deque<Request> inflight_;
  /// Requests in inflight_ that a caller waits for.
  size_t waited_requests_ = 0;
  /// Waiters asleep on their own cv, in the order they parked.
  std::vector<Waiter*> parked_;
  /// The I/O roles: a thread is in sendmsg on the current queue / holds the
  /// right to recv() and complete responses.
  bool sending_ = false;
  bool reading_ = false;
  /// Copy-on-write push handler list (guarded by mu_; the reader snapshots
  /// it and dispatches with mu_ released).
  std::shared_ptr<const std::vector<PushHandler>> push_handlers_;
  /// True once any push handler exists: the background reader then holds
  /// the reader role for good and pumps the socket even when inflight_ is
  /// empty, and an idle recv timeout is benign instead of connection-fatal.
  bool push_interest_ = false;
  bool shutdown_ = false;
  bool threads_started_ = false;

  std::condition_variable writer_cv_;  // async frames queued / teardown
  std::condition_variable reader_cv_;  // background read work / teardown

  std::thread writer_;
  std::thread reader_;
};

}  // namespace gemini
