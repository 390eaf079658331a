/**
 * @file
 * Implementation of the murpc server.
 */

#include "rpc/server.h"

#include <climits>
#include <unordered_map>
#include <vector>

#include "base/clock.h"
#include "base/logging.h"
#include "ostrace/ostrace.h"
#include "ostrace/syscalls.h"
#include "rpc/client.h"
#include "serde/wire.h"
#include "stats/counters.h"

namespace musuite {
namespace rpc {

namespace {

/** Cap on calls a readable event collects before handing them off
 *  early, so a huge burst still reaches idle workers (or starts being
 *  served inline) while the poller parses. */
constexpr size_t maxEventBatch = 64;

/** Cap on tasks a worker drains per round: bounds how long the first
 *  response of a batch waits behind the handlers after it. */
constexpr size_t maxWorkerDrain = 32;

} // namespace

ServerCall::ServerCall(uint32_t method, std::string body,
                       uint64_t request_id, Responder responder,
                       int64_t deadline_at_ns, Clock *clock)
    : methodId(method), requestBody(std::move(body)), id(request_id),
      timeSource(clock ? clock : &currentClock()),
      arrivalNs(timeSource->nowNanos()), deadlineAtNs(deadline_at_ns),
      responder(std::move(responder))
{}

ServerCall::~ServerCall()
{
    releaseWireBuffer(std::move(requestBody));
}

void
ServerCall::respond(StatusCode code, std::string_view payload)
{
    respond(code, payload, 0);
}

void
ServerCall::respond(StatusCode code, std::string_view payload,
                    int64_t retry_after_ns)
{
    bool expected = false;
    if (!completed.compare_exchange_strong(expected, true)) {
        MUSUITE_WARN() << "duplicate respond() for request " << id;
        return;
    }
    // Net mid-tier latency: full server residence of this request.
    const int64_t residence_ns = timeSource->nowNanos() - arrivalNs;
    recordOs(OsCategory::Net, residence_ns);
    // Close the admission loop with the residence sample — including
    // in-queue-expired requests, whose large samples are exactly what
    // an adaptive limiter must see to shrink its window.
    if (admission)
        admission->onAdmittedComplete(residence_ns);
    responder(code, payload, retry_after_ns);
}

int64_t
ServerCall::remainingBudgetNs() const
{
    if (deadlineAtNs == 0)
        return 0;
    const int64_t remaining = deadlineAtNs - timeSource->nowNanos();
    return remaining > 0 ? remaining : 1;
}

/** One accepted connection plus its routing back-pointers. */
struct Server::Conn final : PollHandler
{
    std::shared_ptr<FramedConnection> fc;
    Server *server = nullptr;
    PollerShard *shard = nullptr;

    void
    onPollEvent(const PollEvent &event) override
    {
        server->onConnEvent(this, event);
    }
};

/** The listening socket's handler (registered on shard 0). */
struct Server::Acceptor final : PollHandler
{
    Server *server = nullptr;

    void
    onPollEvent(const PollEvent &) override
    {
        server->acceptPending();
    }
};

/**
 * Per-poller-thread state. The loop is shared with the clients dial()
 * spreads over it, which keep it alive after the server is gone.
 */
struct Server::PollerShard
{
    std::shared_ptr<EventLoop> loop = std::make_shared<EventLoop>();
    Mutex connMutex{LockRank::serverConns, "rpc.server.conns"};
    std::unordered_map<Conn *, std::unique_ptr<Conn>> conns
        GUARDED_BY(connMutex);

    void
    adopt(std::unique_ptr<Conn> conn)
    {
        Conn *key = conn.get();
        MutexLock guard(connMutex);
        conns[key] = std::move(conn);
    }

    void
    drop(Conn *conn)
    {
        conn->fc->shutdown();
        MutexLock guard(connMutex);
        conns.erase(conn);
    }

    void
    clear()
    {
        MutexLock guard(connMutex);
        for (auto &[key, conn] : conns)
            conn->fc->shutdown();
        conns.clear();
    }
};

Server::Server(ServerOptions options_in)
    : options(std::move(options_in)), boundClock(&currentClock()),
      taskQueue(options.queueCapacity)
{
    MUSUITE_CHECK(options.pollerThreads >= 1) << "need >= 1 poller";
    MUSUITE_CHECK(!options.dispatchToWorkers || options.workerThreads >= 1)
        << "dispatch mode needs >= 1 worker";
    for (int i = 0; i < options.pollerThreads; ++i)
        shards.push_back(std::make_unique<PollerShard>());
}

Server::~Server()
{
    stop();
}

void
Server::registerHandler(uint32_t method, Handler handler)
{
    MUSUITE_CHECK(!running.load()) << "register before start()";
    handlers[method] = std::move(handler);
}

Handler *
Server::findHandler(uint32_t method)
{
    auto it = handlers.find(method);
    return it == handlers.end() ? nullptr : &it->second;
}

void
Server::start()
{
    MUSUITE_CHECK(!running.exchange(true)) << "double start()";
    stopping.store(false);

    listener = std::make_unique<TcpListener>();
    listenPort = listener->port();
    acceptor = std::make_unique<Acceptor>();
    acceptor->server = this;
    shards[0]->loop->poller().add(listener->fd(), acceptor.get(), false);

    for (int i = 0; i < options.pollerThreads; ++i) {
        countSyscall(Sys::Clone);
        threads.emplace_back(options.name + "-net" + std::to_string(i),
                             [this, i] { pollerMain(size_t(i)); });
    }
    if (options.dispatchToWorkers) {
        for (int i = 0; i < options.workerThreads; ++i) {
            countSyscall(Sys::Clone);
            threads.emplace_back(options.name + "-wrk" + std::to_string(i),
                                 [this, i] { workerMain(size_t(i)); });
        }
    }
}

void
Server::stop()
{
    if (!running.load() || stopping.exchange(true))
        return;
    taskQueue.close();
    for (auto &shard : shards)
        shard->loop->poller().wake();
    threads.clear(); // Joins everything.
    for (auto &shard : shards)
        shard->clear();
    // The loops outlive this server when dialed clients ride them.
    shards[0]->loop->poller().remove(listener->fd());
    listener.reset();
    acceptor.reset();
    running.store(false);
}

std::shared_ptr<RpcClient>
Server::dial(uint16_t port, ClientOptions client_options)
{
    std::vector<std::shared_ptr<EventLoop>> loops;
    const size_t first = nextShard.fetch_add(1);
    for (size_t i = 0; i < shards.size(); ++i)
        loops.push_back(shards[(first + i) % shards.size()]->loop);
    return std::make_shared<RpcClient>(port, std::move(client_options),
                                       std::move(loops));
}

void
Server::acceptPending()
{
    assertOnPollerThread();
    while (true) {
        TcpSocket sock = listener->accept();
        if (!sock.valid())
            return;
        PollerShard *shard =
            shards[nextShard.fetch_add(1) % shards.size()].get();
        auto conn = std::make_unique<Conn>();
        conn->server = this;
        conn->shard = shard;
        conn->fc = std::make_shared<FramedConnection>(
            std::move(sock), &shard->loop->poller(), conn.get());
        Conn *key = conn.get();
        shard->adopt(std::move(conn));
        key->fc->registerWithPoller();
    }
}

void
Server::pollerMain(size_t index)
{
    setCurrentThreadRole(ThreadRole::poller);
    EventLoop &loop = *shards[index]->loop;
    const int static_timeout_ms = options.blockingPoll ? -1 : 0;
    int empty_streak = 0;

    loop.enter();
    while (!stopping.load(std::memory_order_acquire)) {
        int timeout_ms = static_timeout_ms;
        if (options.adaptiveIdleStreak > 0) {
            // Adaptive policy (§VII): spin while traffic is flowing,
            // park once the socket has stayed quiet for a while.
            timeout_ms =
                empty_streak >= options.adaptiveIdleStreak ? -1 : 0;
        }
        auto events = loop.poller().wait(timeout_ms);
        if (events.empty()) {
            if (empty_streak < INT_MAX)
                ++empty_streak;
        } else {
            empty_streak = 0;
        }
        {
            // Every frame this pass queues — admission and overflow
            // sheds, responses of handlers served here, merges
            // completed by leaf replies read here, and the leaf
            // requests those handlers issue — leaves in one flush per
            // connection.
            DrainWriteBatch writes(
                DrainWriteBatch::Holds::requestsAndResponses);
            Poller::dispatch(events);
        }
        loop.endPass();
    }
    loop.leave();
}

void
Server::workerMain(size_t)
{
    setCurrentThreadRole(ThreadRole::worker);
    while (true) {
        auto tasks = taskQueue.popMany(maxWorkerDrain);
        if (tasks.empty())
            return; // Queue closed and drained.
        // Handlers may block on client calls, so only the round's
        // responses are held back, one flush per connection.
        DrainWriteBatch writes(DrainWriteBatch::Holds::responses);
        for (auto &task : tasks) {
            assertOnWorkerThread();
            serve(task);
        }
    }
}

void
Server::onConnEvent(Conn *conn, const PollEvent &event)
{
    PollerShard &shard = *conn->shard;
    if (event.error) {
        shard.drop(conn);
        return;
    }
    if (event.writable)
        conn->fc->onWritable();
    if (!event.readable)
        return;
    // The calls parsed in one onReadable are handed off together: one
    // pushAll, one futex round, when dispatching.
    std::vector<ServerCallPtr> calls;
    const bool alive = conn->fc->onReadable(
        [this, conn, &calls](std::string_view frame) {
            handleFrame(conn, frame, calls);
        });
    handOff(calls);
    if (!alive)
        shard.drop(conn);
}

void
Server::handleFrame(Conn *conn, std::string_view frame,
                    std::vector<ServerCallPtr> &batch)
{
    assertOnPollerThread();
    MessageHeader header;
    std::string_view payload;
    if (!decodeFrame(frame, header, payload) ||
        header.kind != MessageKind::Request) {
        MUSUITE_WARN() << "garbled request frame (" << frame.size()
                       << " bytes)";
        return;
    }

    std::weak_ptr<FramedConnection> wfc = conn->fc;
    const uint64_t request_id = header.requestId;
    const uint32_t method = header.method;
    const int64_t default_retry_after = options.rejectRetryAfterNs;
    auto responder = [wfc, request_id, method, default_retry_after](
                         StatusCode code, std::string_view body,
                         int64_t retry_after_ns) {
        auto fc = wfc.lock();
        if (!fc || fc->isDead())
            return; // Client went away; response is moot.
        MessageHeader response_header;
        response_header.kind = MessageKind::Response;
        response_header.status = code;
        response_header.method = method;
        response_header.requestId = request_id;
        // A shed response tells the client when retrying might work.
        // Prefer the handler's hint (a downstream shedder's pacing)
        // over this server's local default.
        if (code == StatusCode::ResourceExhausted)
            response_header.budgetNs = retry_after_ns > 0
                                           ? retry_after_ns
                                           : default_retry_after;
        // Inside a drain, the response joins the thread's write
        // batch; async completions (no batch on their thread) flush
        // directly.
        DrainWriteBatch::send(fc, encodeFrame(response_header, body),
                              FrameKind::response);
    };

    // Tier 1: admission, decided before the body is even copied. The
    // backlog is every admitted call not yet served: the dispatch
    // queue plus this event's batch (inline, the batch is the whole
    // backlog — the queue stays empty). The rejection frame is
    // produced right here on the poller thread; no handler ever sees
    // the request.
    if (options.admission &&
        !options.admission->admit(taskQueue.size() + batch.size())) {
        globalCounters().counter("overload.admission_rejected").add();
        int64_t hint = options.admission->retryAfterHintNs();
        if (hint == 0)
            hint = default_retry_after;
        MessageHeader reject;
        reject.kind = MessageKind::Response;
        reject.status = StatusCode::ResourceExhausted;
        reject.method = method;
        reject.requestId = request_id;
        reject.budgetNs = hint;
        DrainWriteBatch::send(conn->fc, encodeFrame(reject, ""),
                              FrameKind::response);
        return;
    }

    // The wire budget is relative (clock domains differ across
    // hosts); pin it to this host's monotonic clock on arrival.
    const int64_t deadline_at =
        header.budgetNs > 0 ? boundClock->nowNanos() + header.budgetNs
                            : 0;

    std::string body = acquireWireBuffer(payload.size());
    if (!payload.empty())
        body.assign(payload.data(), payload.size());
    auto call = std::make_shared<ServerCall>(method, std::move(body),
                                             request_id,
                                             std::move(responder),
                                             deadline_at, boundClock);
    call->setAdmission(options.admission);

    batch.push_back(std::move(call));
    if (batch.size() >= maxEventBatch)
        handOff(batch);
}

void
Server::handOff(std::vector<ServerCallPtr> &batch)
{
    if (batch.empty())
        return;
    std::vector<ServerCallPtr> calls;
    calls.swap(batch);
    if (!options.dispatchToWorkers) {
        // Run to completion: the poller that parsed the frames serves
        // them, and their responses join this event's flush.
        for (const ServerCallPtr &call : calls)
            serve(call);
        return;
    }
    // Fig. 8 pipeline: hand off to the worker pool in one push; the
    // queue's traced condvar makes the wakeup visible to ostrace. A
    // full queue sheds (tier 2) instead of blocking the poller.
    std::vector<ServerCallPtr> rejected =
        taskQueue.tryPushAll(std::move(calls));
    if (rejected.empty())
        return;
    globalCounters()
        .counter("overload.queue_rejected")
        .add(rejected.size());
    for (const ServerCallPtr &call : rejected)
        shedCall(call);
}

void
Server::serve(const ServerCallPtr &call)
{
    // Tier 3: a request that outlived its budget before a thread got
    // to it is dead weight — the client has already given up, so
    // running the handler would burn time to produce a response
    // nobody reads. Shed it instead.
    if (options.enforceQueueDeadline &&
        call->expired(boundClock->nowNanos())) {
        globalCounters().counter("overload.expired_in_queue").add();
        call->respond(StatusCode::DeadlineExceeded, "");
        return;
    }
    execute(call);
}

void
Server::shedCall(const ServerCallPtr &call)
{
    // No latency sample for the limiter: the request never ran, and a
    // near-zero "residence" would teach an adaptive policy that the
    // server is fast precisely while it is drowning.
    call->admissionDropped();
    call->respond(StatusCode::ResourceExhausted, "");
}

void
Server::execute(const ServerCallPtr &call)
{
    served.fetch_add(1, std::memory_order_relaxed);
    Handler *handler = findHandler(call->method());
    if (!handler) {
        call->respond(StatusCode::Unimplemented, "");
        return;
    }
    (*handler)(call);
}

void
Server::invokeLocal(uint32_t method, std::string body,
                    ServerCall::Responder responder)
{
    invokeLocal(method, std::move(body), 0, std::move(responder));
}

void
Server::invokeLocal(uint32_t method, std::string body,
                    int64_t budget_ns,
                    ServerCall::Responder responder)
{
    static std::atomic<uint64_t> local_ids{1};
    const int64_t deadline_at =
        budget_ns > 0 ? boundClock->nowNanos() + budget_ns : 0;
    auto call = std::make_shared<ServerCall>(method, std::move(body),
                                             local_ids.fetch_add(1),
                                             std::move(responder),
                                             deadline_at, boundClock);
    execute(call);
}

} // namespace rpc
} // namespace musuite
