/**
 * @file
 * murpc asynchronous client.
 *
 * The client mirrors the µSuite mid-tier's leaf-facing side: calls are
 * fire-and-forget with completion callbacks that run on the thread
 * reading the response socket. A client built from a port alone runs
 * its own response pick-up threads parked in epoll_pwait (the paper's
 * response threads, Fig. 8); one opened by rpc::Server::dial starts
 * no thread and rides the server's pollers instead, so a
 * run-to-completion mid-tier reads and merges leaf replies on the
 * poller that ran the handler. Requests are multiplexed over a small
 * pool of connections by request id (one shared connection per
 * destination, per the paper's Router). Dead connections fail their
 * in-flight calls with UNAVAILABLE and are re-dialed lazily, which is
 * what Router's replication pools route around.
 */

#ifndef MUSUITE_RPC_CLIENT_H
#define MUSUITE_RPC_CLIENT_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/threading.h"
#include "net/frame.h"
#include "net/poller.h"
#include "rpc/channel.h"
#include "rpc/message.h"

namespace musuite {
namespace rpc {

struct ClientOptions
{
    int connections = 1;       //!< TCP connections to the target.
    /** Response pick-up threads (none when dialed by a Server). */
    int completionThreads = 1;
    bool blockingPoll = true;  //!< false: busy-poll completions.
    std::string name = "cli";
    /**
     * Client-wide per-call deadline; 0 disables. Superseded by the
     * per-call rpc::CallOptions layer (rpc/channel.h) for new code,
     * but kept as a transport-level backstop: calls still pending when
     * it expires complete with DEADLINE_EXCEEDED (a late server
     * response is then dropped and counted). Expiry is swept by the
     * completion threads, so enforcement granularity is ~the sweep
     * interval (10 ms). A client dialed onto a server's pollers has
     * no sweep and requires 0.
     */
    int64_t defaultDeadlineNs = 0;
    /**
     * Reconnect backoff after a failed dial: the first failure holds
     * further dial attempts on that connection for
     * reconnectBackoffNs, doubling per consecutive failure up to
     * reconnectBackoffMaxNs. A server that merely *accepts* does not
     * clear the slate — a flapping leaf accepts and dies instantly,
     * and resetting on connect(2) success would re-enable a full-rate
     * connect storm. The backoff resets only once the new connection
     * delivers its first response. Calls during the hold-off fail
     * fast with UNAVAILABLE without touching the network.
     */
    int64_t reconnectBackoffNs = 1'000'000;        //!< 1 ms.
    int64_t reconnectBackoffMaxNs = 1'000'000'000; //!< 1 s.
};

class RpcClient : public Channel
{
  public:
    /**
     * Dial 127.0.0.1:port and start options.completionThreads pick-up
     * threads. Failure leaves the client unhealthy.
     */
    RpcClient(uint16_t port, ClientOptions options = {});

    /**
     * Dial 127.0.0.1:port with connections spread over `loops`, which
     * threads owned elsewhere run (rpc::Server::dial); starts no
     * thread. Check-fails on options.defaultDeadlineNs > 0: the
     * backstop sweep needs a loop of the client's own.
     */
    RpcClient(uint16_t port, ClientOptions options,
              std::vector<std::shared_ptr<EventLoop>> loops);

    /**
     * Fails every pending call with CANCELLED. Must not run on one of
     * the client's loop threads.
     */
    ~RpcClient() override;

    /** True if at least one connection is up. */
    bool isHealthy() const override;

    uint64_t
    callsIssued() const
    {
        return nextRequestId.load(std::memory_order_relaxed) - 1;
    }

    /** TCP dial attempts made so far (reconnect-storm regression). */
    uint64_t
    connectAttempts() const
    {
        return dialAttempts.load(std::memory_order_relaxed);
    }

    /** Responses that arrived after their call had already been
     *  failed (deadline expiry); also counted process-wide under the
     *  rpc.client.late_response counter. */
    uint64_t
    lateResponses() const
    {
        return lateResponseCount.load(std::memory_order_relaxed);
    }

    /**
     * Fault injection: shut every live connection down as if the peer
     * had died, failing all in-flight calls with UNAVAILABLE.
     * Subsequent calls re-dial lazily (subject to reconnect backoff).
     */
    void killConnections();

    /**
     * Write-combining over every live connection: requests issued
     * between cork and uncork flush together at uncork, one
     * scatter-gather sendmsg per connection (see Channel).
     */
    void corkWrites() override;
    void uncorkWrites() override;

  protected:
    void transportCall(uint32_t method, std::string body,
                       Callback callback) override;
    /** Budget-carrying attempt: the deadline rides the wire header. */
    void transportCall(uint32_t method, std::string body,
                       int64_t budget_ns, Callback callback) override;

  private:
    struct ClientConn;

    /** Open options.connections connections spread over `loops`. */
    void connectAll();
    void completionMain(size_t index);
    void onConnReadable(ClientConn *conn);
    void failPending(ClientConn *conn, const Status &status);
    bool ensureConnected(ClientConn *conn);
    /** Fail calls on `loop`'s connections whose deadline passed. */
    void sweepExpired(const EventLoop &loop);

    ClientOptions options;
    uint16_t targetPort;

    /** Loops reading the connections: the client's own (one per
     *  pick-up thread) or a server's (dialed, no threads). */
    std::vector<std::shared_ptr<EventLoop>> loops;
    std::vector<std::unique_ptr<ClientConn>> conns;
    std::vector<ScopedThread> threads;

    /**
     * Connections corked by corkWrites(), a vector per outstanding
     * cork. uncorkWrites() pops one entry and uncorks it; concurrent
     * batches may pop each other's entries, which balances per
     * connection because the stack holds exactly the multiset of
     * corked connections.
     */
    Mutex corkMutex{LockRank::clientConn, "rpc.client.cork"};
    std::vector<std::vector<std::shared_ptr<FramedConnection>>>
        corkStack GUARDED_BY(corkMutex);

    std::atomic<uint64_t> nextRequestId{1};
    std::atomic<size_t> nextConn{0};
    std::atomic<bool> stopping{false};
    std::atomic<uint64_t> dialAttempts{0};
    std::atomic<uint64_t> lateResponseCount{0};
};

} // namespace rpc
} // namespace musuite

#endif // MUSUITE_RPC_CLIENT_H
