/**
 * @file
 * murpc server: the µSuite mid-tier/leaf threading skeleton (Fig. 8).
 *
 * A Server owns
 *   - one TCP listener,
 *   - N network poller threads that park in epoll_pwait on the
 *     front-end sockets (blocking design) or spin (polling design,
 *     §VII ablation),
 *   - a producer-consumer task queue guarded by traced mutex/condvar
 *     (the futex hot spot the paper measures), and
 *   - M worker threads that pull dispatched requests and run handlers
 *     (dispatch design, Fig. 8), unless run-to-completion mode serves
 *     each request on the poller thread that parsed it (§VII inline
 *     execution; no worker threads, no task-queue hand-off).
 *
 * Both modes share one path: the poller parses every frame of a
 * readable event, admits it, and collects the calls into the event's
 * batch; the batch is then handed to the workers in one push or served
 * in order on the poller.
 *
 * Every drain opens one write batch (net/frame.h DrainWriteBatch), so
 * each connection it writes to gets one flush per drain. A poller
 * pass holds back every frame it queues: sheds, responses of the
 * handlers it serves and of the merges it completes, and the leaf
 * requests those handlers issue. A worker drain round holds back its
 * responses only, because its handlers may block on client calls.
 *
 * Handlers receive a shared ServerCall and may respond from any
 * thread. The poller shards exist from construction, and dial() opens
 * an RpcClient whose connections ride them: a run-to-completion
 * mid-tier's leaf replies are then read, counted down and merged on
 * the poller that ran the handler, and the merged response joins that
 * pass's write batch. A mid-tier dialing plain RpcClients instead (the
 * Fig. 8 pipeline) responds from their leaf-response pick-up threads.
 *
 * OVERLOAD CONTROL (rpc/overload.h): three shedding tiers keep the
 * server's goodput near peak once offered load passes saturation.
 *  1. Admission — an optional AdmissionController is consulted on the
 *     poller thread before the request body is even copied, with the
 *     backlog of admitted calls not yet served (task queue plus the
 *     current event's batch); rejected requests get RESOURCE_EXHAUSTED
 *     with a suggested retry-after in the response header, produced
 *     without running any handler.
 *  2. Queue bound — dispatch uses the task queue's non-blocking push;
 *     on overflow the request is shed the same way instead of the
 *     poller blocking (overload.queue_rejected). Run-to-completion
 *     has no queue to overflow.
 *  3. Deadline-aware serving — requests carry their remaining client
 *     budget in the wire header; a worker (or, run to completion, the
 *     poller) that reaches an already expired request answers
 *     DEADLINE_EXCEEDED without running the handler
 *     (overload.expired_in_queue), so a backlog sheds the work nobody
 *     is waiting for anymore.
 */

#ifndef MUSUITE_RPC_SERVER_H
#define MUSUITE_RPC_SERVER_H

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/queue.h"
#include "base/threading.h"
#include "net/frame.h"
#include "net/poller.h"
#include "ostrace/sync.h"
#include "rpc/message.h"
#include "rpc/overload.h"

namespace musuite {

class Clock;

namespace rpc {

class RpcClient;
struct ClientOptions;

/** Threading-model knobs (paper §IV design + §VII ablations). */
struct ServerOptions
{
    int pollerThreads = 1;     //!< Network (request-reception) threads.
    int workerThreads = 4;     //!< RPC-handler threads.
    /** true: Fig. 8 poller → task queue → worker pipeline; false: run
     *  to completion on the poller that read the request. */
    bool dispatchToWorkers = true;
    bool blockingPoll = true;  //!< false: busy-poll epoll with 0 timeout.
    /**
     * > 0 enables the adaptive block/poll policy the paper's §VII
     * proposes: pollers busy-poll while work keeps arriving and fall
     * back to blocking after this many consecutive empty polls
     * (overrides blockingPoll).
     */
    int adaptiveIdleStreak = 0;
    size_t queueCapacity = 1 << 16;
    std::string name = "srv";

    /**
     * Admission policy consulted per request on the poller thread;
     * null admits everything. Shared so tests and benchmarks can keep
     * a handle for inspection while the server uses it.
     */
    std::shared_ptr<AdmissionController> admission;

    /**
     * Shed queued requests whose wire deadline budget expired before a
     * worker picked them up (tier 3 above). Off reproduces the
     * uncontrolled server the overload benchmark contrasts against.
     */
    bool enforceQueueDeadline = true;

    /**
     * Default retry-after hint on RESOURCE_EXHAUSTED responses when
     * the admission policy offers none (0 = send no hint).
     */
    int64_t rejectRetryAfterNs = 1'000'000;
};

/**
 * One in-flight request. Handlers must call respond() exactly once;
 * the call object may outlive the handler (asynchronous completion).
 */
class ServerCall
{
  public:
    /**
     * Completion sink. `retry_after_ns` is a pacing hint attached to
     * RESOURCE_EXHAUSTED responses (0 = none): the wire responder
     * copies it into the response header's budget slot and transports
     * surface it as `Status::retryAfterNs()`, so a shedding *leaf*'s
     * hint survives mid-tier hops instead of being re-minted at each
     * one (retry-amplification fix).
     */
    using Responder =
        std::function<void(StatusCode, std::string_view, int64_t)>;

    /**
     * `clock` is the Clock arrival/residence/budget instants are read
     * from (null = the ambient clock). The wire budget is pinned to it
     * on arrival, so a call's deadline arithmetic never crosses clock
     * domains.
     */
    ServerCall(uint32_t method, std::string body, uint64_t request_id,
               Responder responder, int64_t deadline_at_ns = 0,
               Clock *clock = nullptr);
    ~ServerCall();

    uint32_t method() const { return methodId; }
    const std::string &body() const { return requestBody; }
    uint64_t requestId() const { return id; }
    /** Monotonic ns when the request frame was parsed. */
    int64_t arrivalNanos() const { return arrivalNs; }

    /** Absolute monotonic deadline from the wire budget; 0 = none. */
    int64_t deadlineNanos() const { return deadlineAtNs; }

    /** True once the request's budget has run out. */
    bool
    expired(int64_t now_ns) const
    {
        return deadlineAtNs != 0 && now_ns >= deadlineAtNs;
    }

    /**
     * Budget left for downstream work, for deadline propagation: a
     * mid-tier handler passes this to its fan-out so leaf attempts
     * inherit what remains of the client's deadline. 0 = unlimited (no
     * deadline on the wire); an expired call reports 1ns, so
     * downstream calls fail fast rather than look unbounded.
     */
    int64_t remainingBudgetNs() const;

    /**
     * Attach the admission controller that admitted this request; its
     * onAdmittedComplete() fires from respond() with the request's
     * full server residence. Pre-dispatch only (not thread-safe).
     */
    void
    setAdmission(std::shared_ptr<AdmissionController> admission_in)
    {
        admission = std::move(admission_in);
    }

    /**
     * The request was shed after admission without producing a
     * latency sample (e.g. queue overflow): report the drop and
     * detach, so the follow-up respond() does not feed the limiter.
     */
    void
    admissionDropped()
    {
        if (admission) {
            admission->onAdmittedDropped();
            admission.reset();
        }
    }

    /**
     * Complete the RPC. Thread-safe; second and later calls are
     * ignored (with a warning) so races between a handler error path
     * and an async completion are benign.
     */
    void respond(StatusCode code, std::string_view payload);

    /**
     * Variant carrying an explicit retry-after pacing hint upstream;
     * meaningful with RESOURCE_EXHAUSTED (ignored for other codes by
     * the wire encoder). Mid-tiers that fail because a downstream shed
     * must forward the downstream's hint here rather than let the
     * server re-mint a default.
     */
    void respond(StatusCode code, std::string_view payload,
                 int64_t retry_after_ns);

    void
    respondOk(std::string_view payload)
    {
        respond(StatusCode::Ok, payload);
    }

  private:
    uint32_t methodId;
    std::string requestBody;
    uint64_t id;
    Clock *timeSource; //!< Never null.
    int64_t arrivalNs;
    int64_t deadlineAtNs;
    Responder responder;
    std::shared_ptr<AdmissionController> admission;
    std::atomic<bool> completed{false};
};

using ServerCallPtr = std::shared_ptr<ServerCall>;
using Handler = std::function<void(ServerCallPtr)>;

class Server
{
  public:
    /** Binds the ambient clock (base/clock.h) at construction. */
    explicit Server(ServerOptions options = {});
    ~Server();

    /**
     * The clock request arrival, residence, and wire-budget pinning
     * read from. A started (networked) server always runs on the real
     * clock; the simulated bindings use an *unstarted* server driven
     * through invokeLocal, constructed under a ScopedClock.
     */
    Clock &clock() const { return *boundClock; }

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Register the handler for a method id. Pre-start only. */
    void registerHandler(uint32_t method, Handler handler);

    /** Bind an ephemeral loopback port and spawn all threads. */
    void start();

    /**
     * Dial 127.0.0.1:port with a client that starts no thread: its
     * connections are spread over this server's pollers, which read
     * the replies and run the completions between their own events.
     * Callable before start(); replies are read once the pollers run.
     * The client keeps the pollers' epoll sets alive, so it may
     * outlive the server; calls still pending when the server stops
     * complete when the client is destroyed (CANCELLED). It has no
     * backstop sweep: options.defaultDeadlineNs must be 0 (per-call
     * CallOptions deadlines are timer-driven and work as usual).
     */
    std::shared_ptr<RpcClient> dial(uint16_t port, ClientOptions options);

    /** Stop threads and close all connections. Idempotent. */
    void stop();

    /** Listening port (valid after start()). */
    uint16_t port() const { return listenPort; }

    uint64_t requestsServed() const
    {
        return served.load(std::memory_order_relaxed);
    }

    /**
     * Run a handler directly for in-process (transport-less) calls;
     * used by LocalChannel. The handler executes on the calling
     * thread; completion may still be asynchronous.
     */
    void invokeLocal(uint32_t method, std::string body,
                     ServerCall::Responder responder);

    /**
     * Budget-carrying variant (LocalChannel's budget path): the
     * handler's ServerCall reports the remaining deadline, so local
     * mid-tiers propagate budgets exactly like networked ones.
     */
    void invokeLocal(uint32_t method, std::string body,
                     int64_t budget_ns,
                     ServerCall::Responder responder);

  private:
    struct Conn;
    struct Acceptor;
    struct PollerShard;

    void pollerMain(size_t index);
    void workerMain(size_t index);
    void acceptPending();
    /** One readiness event on a front-end connection. */
    void onConnEvent(Conn *conn, const PollEvent &event);
    /** Parse and admit one request frame into the event's batch. */
    void handleFrame(Conn *conn, std::string_view frame,
                     std::vector<ServerCallPtr> &batch);
    /**
     * Empty the batch: serve it on this poller (run to completion) or
     * push it to the worker queue (dispatch), where overflow is shed,
     * not blocked on.
     */
    void handOff(std::vector<ServerCallPtr> &batch);
    /** Tier-3 deadline check, then the handler. */
    void serve(const ServerCallPtr &call);
    void execute(const ServerCallPtr &call);
    Handler *findHandler(uint32_t method);
    /** Reject a dispatched call with RESOURCE_EXHAUSTED + retry-after. */
    void shedCall(const ServerCallPtr &call);

    ServerOptions options;
    Clock *boundClock; //!< Never null; see clock().
    std::map<uint32_t, Handler> handlers;

    std::unique_ptr<TcpListener> listener;
    std::unique_ptr<Acceptor> acceptor;
    uint16_t listenPort = 0;

    std::vector<std::unique_ptr<PollerShard>> shards;
    BlockingQueue<ServerCallPtr, TracedMutex, TracedCondVar> taskQueue;
    std::vector<ScopedThread> threads;

    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> served{0};
    std::atomic<size_t> nextShard{0};
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_SERVER_H
