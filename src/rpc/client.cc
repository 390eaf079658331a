/**
 * @file
 * Implementation of the murpc asynchronous client.
 */

#include "rpc/client.h"

#include <algorithm>
#include <unordered_set>

#include "base/clock.h"
#include "base/logging.h"
#include "ostrace/syscalls.h"
#include "stats/counters.h"

namespace musuite {
namespace rpc {

/** One in-flight call. */
struct PendingCall
{
    rpc::Channel::Callback callback;
    int64_t deadlineNs = 0; //!< 0 = none.
};

/** One connection and its in-flight call table. */
struct RpcClient::ClientConn final : PollHandler
{
    Mutex mutex{LockRank::clientConn, "rpc.client.conn"};
    /** Null/dead when down. */
    std::shared_ptr<FramedConnection> fc GUARDED_BY(mutex);
    std::unordered_map<uint64_t, PendingCall> pending GUARDED_BY(mutex);
    /**
     * Request ids failed by sweepExpired whose response may still
     * arrive; lets a late response be told apart from a garbled or
     * raced one. Cleared when the connection drops (the response can
     * no longer arrive), so it stays small.
     */
    std::unordered_set<uint64_t> expiredIds GUARDED_BY(mutex);
    /** Reconnect backoff: no dial before this monotonic instant. */
    int64_t nextDialAllowedNs GUARDED_BY(mutex) = 0;
    /** 0 until the first failed dial. */
    int64_t dialBackoffNs GUARDED_BY(mutex) = 0;
    /**
     * True from a successful dial until the connection's first
     * response. A connection that dies in this window proves the
     * server is flapping (accepts, then drops), so the backoff grows
     * instead of resetting; only a real response wipes the slate.
     */
    bool awaitingFirstResponse GUARDED_BY(mutex) = false;
    EventLoop *loop = nullptr; //!< Reads this connection.
    RpcClient *owner = nullptr;

    bool
    healthy()
    {
        MutexLock guard(mutex);
        return fc && !fc->isDead();
    }

    void
    onPollEvent(const PollEvent &event) override
    {
        if (event.writable) {
            std::shared_ptr<FramedConnection> out;
            {
                MutexLock guard(mutex);
                out = fc;
            }
            if (out)
                out->onWritable();
        }
        if (event.readable || event.error)
            owner->onConnReadable(this);
    }
};

RpcClient::RpcClient(uint16_t port, ClientOptions options_in)
    : options(std::move(options_in)), targetPort(port)
{
    MUSUITE_CHECK(options.completionThreads >= 1)
        << "need >= 1 completion thread";
    for (int i = 0; i < options.completionThreads; ++i)
        loops.push_back(std::make_shared<EventLoop>());
    connectAll();
    for (int i = 0; i < options.completionThreads; ++i) {
        countSyscall(Sys::Clone);
        threads.emplace_back(options.name + "-cq" + std::to_string(i),
                             [this, i] { completionMain(size_t(i)); });
    }
}

RpcClient::RpcClient(uint16_t port, ClientOptions options_in,
                     std::vector<std::shared_ptr<EventLoop>> loops_in)
    : options(std::move(options_in)), targetPort(port),
      loops(std::move(loops_in))
{
    MUSUITE_CHECK(!loops.empty()) << "need >= 1 loop";
    MUSUITE_CHECK(options.defaultDeadlineNs == 0)
        << "a client on another owner's loops has no deadline sweep; "
           "use per-call CallOptions deadlines";
    connectAll();
}

void
RpcClient::connectAll()
{
    MUSUITE_CHECK(options.connections >= 1) << "need >= 1 connection";
    for (int i = 0; i < options.connections; ++i) {
        auto conn = std::make_unique<ClientConn>();
        conn->owner = this;
        conn->loop = loops[size_t(i) % loops.size()].get();
        conns.push_back(std::move(conn));
    }
    for (auto &conn : conns)
        ensureConnected(conn.get());
}

RpcClient::~RpcClient()
{
    stopping.store(true);
    for (auto &loop : loops)
        loop->poller().wake();
    threads.clear(); // Joins our own pick-up threads, if any.
    for (auto &conn : conns) {
        MutexLock guard(conn->mutex);
        if (conn->fc)
            conn->fc->shutdown(); // Deregisters from its loop.
    }
    // A loop run by another owner may be mid-pass on one of these
    // connections; once that pass is over, none can be delivered.
    for (auto &loop : loops)
        loop->awaitPass();
    const Status cancelled(StatusCode::Cancelled, "client destroyed");
    for (auto &conn : conns)
        failPending(conn.get(), cancelled);
}

bool
RpcClient::ensureConnected(ClientConn *conn)
{
    MutexLock guard(conn->mutex);
    if (conn->fc && !conn->fc->isDead())
        return true;
    // Reconnect backoff: while the hold-off runs, fail fast without a
    // dial so a dead server does not eat a connect storm.
    const int64_t now = clock().nowNanos();
    if (now < conn->nextDialAllowedNs) {
        globalCounters().counter("rpc.client.dial_suppressed").add();
        return false;
    }
    dialAttempts.fetch_add(1, std::memory_order_relaxed);
    globalCounters().counter("rpc.client.dial_attempts").add();
    TcpSocket sock = TcpSocket::connectLoopback(targetPort);
    // The backoff grows on a refused dial, and equally when the
    // previous connection died before ever answering (a flapping
    // server accepts and drops; its connect(2) "successes" must not
    // re-enable a full-rate connect storm). It resets only when a
    // connection produces its first response (onConnReadable).
    if (!sock.valid() || conn->awaitingFirstResponse) {
        conn->dialBackoffNs =
            conn->dialBackoffNs == 0
                ? options.reconnectBackoffNs
                : std::min(conn->dialBackoffNs * 2,
                           options.reconnectBackoffMaxNs);
        conn->nextDialAllowedNs = now + conn->dialBackoffNs;
        if (!sock.valid())
            return false;
    }
    conn->awaitingFirstResponse = true;
    conn->fc = std::make_shared<FramedConnection>(
        std::move(sock), &conn->loop->poller(), conn);
    conn->fc->registerWithPoller();
    conn->loop->poller().wake();
    return true;
}

void
RpcClient::killConnections()
{
    const Status killed(StatusCode::Unavailable,
                        "connection killed (fault injection)");
    for (auto &conn : conns) {
        {
            MutexLock guard(conn->mutex);
            if (conn->fc)
                conn->fc->shutdown();
            conn->fc = nullptr;
            // The *client* killed this connection; that is no
            // evidence of a flapping server, so don't let the next
            // dial grow the backoff.
            conn->awaitingFirstResponse = false;
        }
        failPending(conn.get(), killed);
    }
}

void
RpcClient::corkWrites()
{
    // Snapshot the live transports first (conn->mutex), then cork
    // them with no client lock held — frameOut ranks above
    // clientConn, and cork never blocks on the kernel. The snapshot
    // goes on the cork stack so the matching uncork releases exactly
    // one cork per connection corked here, even if a reconnect swaps
    // conn->fc in between.
    std::vector<std::shared_ptr<FramedConnection>> fcs;
    fcs.reserve(conns.size());
    for (auto &conn : conns) {
        MutexLock guard(conn->mutex);
        if (conn->fc && !conn->fc->isDead())
            fcs.push_back(conn->fc);
    }
    for (auto &fc : fcs)
        fc->cork();
    MutexLock guard(corkMutex);
    corkStack.push_back(std::move(fcs));
}

void
RpcClient::uncorkWrites()
{
    std::vector<std::shared_ptr<FramedConnection>> fcs;
    {
        MutexLock guard(corkMutex);
        if (corkStack.empty())
            return; // Unmatched uncork: tolerate.
        fcs = std::move(corkStack.back());
        corkStack.pop_back();
    }
    for (auto &fc : fcs)
        fc->uncork();
}

bool
RpcClient::isHealthy() const
{
    for (const auto &conn : conns) {
        if (conn->healthy())
            return true;
    }
    return false;
}

void
RpcClient::transportCall(uint32_t method, std::string body,
                         Callback callback)
{
    transportCall(method, std::move(body), 0, std::move(callback));
}

void
RpcClient::transportCall(uint32_t method, std::string body,
                         int64_t budget_ns, Callback callback)
{
    ClientConn *conn =
        conns[nextConn.fetch_add(1, std::memory_order_relaxed) %
              conns.size()].get();

    if (!conn->healthy() && !ensureConnected(conn)) {
        callback(Status(StatusCode::Unavailable, "connect failed"), {});
        return;
    }

    const uint64_t request_id =
        nextRequestId.fetch_add(1, std::memory_order_relaxed);
    MessageHeader header;
    header.kind = MessageKind::Request;
    header.method = method;
    header.requestId = request_id;
    header.budgetNs = budget_ns > 0 ? budget_ns : 0;
    std::string frame = encodeFrame(header, body);

    std::shared_ptr<FramedConnection> fc;
    {
        MutexLock guard(conn->mutex);
        if (!conn->fc || conn->fc->isDead()) {
            fc = nullptr;
        } else {
            fc = conn->fc;
            PendingCall pending_call;
            pending_call.callback = std::move(callback);
            if (options.defaultDeadlineNs > 0) {
                pending_call.deadlineNs =
                    clock().nowNanos() + options.defaultDeadlineNs;
            }
            conn->pending.emplace(request_id, std::move(pending_call));
        }
    }
    if (!fc) {
        callback(Status(StatusCode::Unavailable, "connection down"), {});
        return;
    }

    // Issued on a server poller pass, the request waits for the pass's
    // flush and leaves with the pass's other frames to this leaf.
    if (!DrainWriteBatch::send(fc, std::move(frame), FrameKind::request)) {
        // Connection died under us: reclaim the callback if the
        // completion thread has not already failed it.
        Callback reclaimed;
        {
            MutexLock guard(conn->mutex);
            auto it = conn->pending.find(request_id);
            if (it != conn->pending.end()) {
                reclaimed = std::move(it->second.callback);
                conn->pending.erase(it);
            }
        }
        if (reclaimed)
            reclaimed(Status(StatusCode::Unavailable, "send failed"), {});
    }
}

void
RpcClient::completionMain(size_t index)
{
    setCurrentThreadRole(ThreadRole::completion);
    const EventLoop &loop = *loops[index];
    Poller &poller = loops[index]->poller();
    // With deadlines armed, a blocked completion thread must still
    // wake periodically to sweep expired calls.
    const int timeout_ms =
        options.blockingPoll
            ? (options.defaultDeadlineNs > 0 ? 10 : -1)
            : 0;

    while (!stopping.load(std::memory_order_acquire)) {
        auto events = poller.wait(timeout_ms);
        if (options.defaultDeadlineNs > 0)
            sweepExpired(loop);
        Poller::dispatch(events);
    }
}

void
RpcClient::onConnReadable(ClientConn *conn)
{
    assertOnFrameReaderThread();
    std::shared_ptr<FramedConnection> fc;
    {
        MutexLock guard(conn->mutex);
        fc = conn->fc;
    }
    if (!fc)
        return;

    const bool alive = fc->onReadable([conn](std::string_view frame) {
        MessageHeader header;
        std::string_view payload;
        if (!decodeFrame(frame, header, payload) ||
            header.kind != MessageKind::Response) {
            MUSUITE_WARN() << "garbled response frame";
            return;
        }
        Callback callback;
        {
            MutexLock guard(conn->mutex);
            // First response on this connection: the server is
            // provably alive and answering, so wipe the reconnect
            // backoff slate (see ensureConnected).
            if (conn->awaitingFirstResponse) {
                conn->awaitingFirstResponse = false;
                conn->dialBackoffNs = 0;
                conn->nextDialAllowedNs = 0;
            }
            auto it = conn->pending.find(header.requestId);
            if (it == conn->pending.end()) {
                // Already failed. If the deadline sweep beat this
                // response, account for it: late responses are the
                // signal that a deadline is tuned too tight.
                if (conn->expiredIds.erase(header.requestId) > 0) {
                    conn->owner->lateResponseCount.fetch_add(
                        1, std::memory_order_relaxed);
                    globalCounters()
                        .counter("rpc.client.late_response")
                        .add();
                }
                return; // Otherwise: races with disconnect.
            }
            callback = std::move(it->second.callback);
            conn->pending.erase(it);
        }
        if (header.status == StatusCode::Ok) {
            callback(Status::ok(), payload);
        } else {
            Status status(header.status, "remote error");
            // A shed server suggests when to come back; the retry
            // layer uses it as a floor under its backoff.
            if (header.status == StatusCode::ResourceExhausted &&
                header.budgetNs > 0) {
                status.setRetryAfterNs(header.budgetNs);
            }
            callback(status, payload);
        }
    });

    if (!alive) {
        failPending(conn,
                    Status(StatusCode::Unavailable, "connection lost"));
    }
}

void
RpcClient::failPending(ClientConn *conn, const Status &status)
{
    std::unordered_map<uint64_t, PendingCall> orphaned;
    {
        MutexLock guard(conn->mutex);
        orphaned.swap(conn->pending);
        // Responses for swept calls can no longer arrive on this
        // connection; drop the late-response watch list.
        conn->expiredIds.clear();
    }
    for (auto &[id, pending_call] : orphaned)
        pending_call.callback(status, {});
}

void
RpcClient::sweepExpired(const EventLoop &loop)
{
    assertOnFrameReaderThread();
    const int64_t now = clock().nowNanos();
    std::vector<Callback> expired;
    for (auto &conn : conns) {
        if (conn->loop != &loop)
            continue;
        MutexLock guard(conn->mutex);
        for (auto it = conn->pending.begin();
             it != conn->pending.end();) {
            if (it->second.deadlineNs != 0 &&
                now >= it->second.deadlineNs) {
                expired.push_back(std::move(it->second.callback));
                conn->expiredIds.insert(it->first);
                it = conn->pending.erase(it);
            } else {
                ++it;
            }
        }
    }
    const Status timed_out(StatusCode::DeadlineExceeded,
                           "call deadline expired");
    for (Callback &callback : expired)
        callback(timed_out, {});
}

} // namespace rpc
} // namespace musuite
