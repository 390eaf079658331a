/**
 * @file
 * Integration and unit tests for the murpc layer: framing, header
 * codec, echo round-trips over real loopback TCP, asynchronous
 * completion, dispatch vs inline execution, multi-client concurrency,
 * error propagation, and connection-failure handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "base/threading.h"
#include "base/time_util.h"
#include "net/frame.h"
#include "net/socket.h"
#include "ostrace/syscalls.h"
#include "rpc/client.h"
#include "rpc/local_channel.h"
#include "rpc/message.h"
#include "rpc/server.h"

namespace musuite {
namespace rpc {
namespace {

constexpr uint32_t kEcho = 1;
constexpr uint32_t kReverse = 2;
constexpr uint32_t kFail = 3;
constexpr uint32_t kAsyncEcho = 4;

/** Server preconfigured with a few toy methods. */
class RpcTest : public ::testing::Test
{
  protected:
    void
    startServer(ServerOptions options = {})
    {
        server = std::make_unique<Server>(options);
        server->registerHandler(kEcho, [](ServerCallPtr call) {
            call->respondOk(call->body());
        });
        server->registerHandler(kReverse, [](ServerCallPtr call) {
            std::string reversed(call->body().rbegin(),
                                 call->body().rend());
            call->respondOk(reversed);
        });
        server->registerHandler(kFail, [](ServerCallPtr call) {
            call->respond(StatusCode::NotFound, "nope");
        });
        server->registerHandler(kAsyncEcho, [this](ServerCallPtr call) {
            // Complete from a different thread, as mid-tiers do. The
            // handler runs on a server worker, so the fixture vector
            // needs a lock against TearDown and concurrent handlers.
            MutexLock lock(asyncMutex);
            asyncWorkers.emplace_back("async-reply", [call] {
                call->respondOk(call->body());
            });
        });
        server->start();
    }

    void
    TearDown() override
    {
        {
            MutexLock lock(asyncMutex);
            asyncWorkers.clear(); // Joins the reply threads.
        }
        server.reset();
    }

    std::unique_ptr<Server> server;
    Mutex asyncMutex;
    std::vector<ScopedThread> asyncWorkers GUARDED_BY(asyncMutex);
};

TEST(MessageHeaderTest, RoundTrip)
{
    MessageHeader header;
    header.kind = MessageKind::Response;
    header.status = StatusCode::DeadlineExceeded;
    header.method = 0xDEADBEEF;
    header.requestId = 0x0123456789ABCDEFull;
    const std::string frame = encodeFrame(header, "payload");

    MessageHeader parsed;
    std::string_view payload;
    ASSERT_TRUE(decodeFrame(frame, parsed, payload));
    EXPECT_EQ(parsed.kind, MessageKind::Response);
    EXPECT_EQ(parsed.status, StatusCode::DeadlineExceeded);
    EXPECT_EQ(parsed.method, 0xDEADBEEFu);
    EXPECT_EQ(parsed.requestId, 0x0123456789ABCDEFull);
    EXPECT_EQ(payload, "payload");
}

TEST(MessageHeaderTest, RejectsTruncatedFrames)
{
    MessageHeader parsed;
    std::string_view payload;
    EXPECT_FALSE(decodeFrame("short", parsed, payload));
    EXPECT_FALSE(decodeFrame("", parsed, payload));
}

TEST(MessageHeaderTest, RejectsGarbageKind)
{
    std::string frame(MessageHeader::wireSize, '\xFF');
    MessageHeader parsed;
    std::string_view payload;
    EXPECT_FALSE(decodeFrame(frame, parsed, payload));
}

TEST_F(RpcTest, SyncEchoOverTcp)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kEcho, "hello microservices");
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value(), "hello microservices");
}

TEST_F(RpcTest, ReverseHandler)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kReverse, "abcdef");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "fedcba");
}

TEST_F(RpcTest, EmptyPayload)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kEcho, "");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "");
}

TEST_F(RpcTest, LargePayloadRoundTrip)
{
    startServer();
    RpcClient client(server->port());
    std::string big(3 * 1024 * 1024, 'x');
    for (size_t i = 0; i < big.size(); i += 4096)
        big[i] = char('a' + (i / 4096) % 26);
    auto result = client.callSync(kEcho, big);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), big);
}

TEST_F(RpcTest, ErrorStatusPropagates)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kFail, "q");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);
}

TEST_F(RpcTest, UnknownMethodIsUnimplemented)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(999, "q");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unimplemented);
}

TEST_F(RpcTest, AsynchronousCompletionFromOtherThread)
{
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kAsyncEcho, "deferred");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "deferred");
}

TEST_F(RpcTest, ManyConcurrentCallsMultiplexed)
{
    startServer();
    RpcClient client(server->port());

    constexpr int calls = 200;
    std::atomic<int> completed{0};
    std::atomic<int> mismatched{0};
    CountdownLatch latch(calls);
    for (int i = 0; i < calls; ++i) {
        std::string body = "msg-" + std::to_string(i);
        client.call(kEcho, body,
                    [&, expect = body](const Status &status,
                                       std::string_view payload) {
                        if (status.isOk() && payload == expect)
                            completed.fetch_add(1);
                        else
                            mismatched.fetch_add(1);
                        latch.countDown();
                    });
    }
    latch.wait();
    EXPECT_EQ(completed.load(), calls);
    EXPECT_EQ(mismatched.load(), 0);
}

TEST_F(RpcTest, InlineExecutionMode)
{
    ServerOptions options;
    options.dispatchToWorkers = false;
    options.workerThreads = 0;
    startServer(options);
    RpcClient client(server->port());
    auto result = client.callSync(kEcho, "inline");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "inline");
}

TEST_F(RpcTest, MultiplePollerAndWorkerThreads)
{
    ServerOptions options;
    options.pollerThreads = 2;
    options.workerThreads = 4;
    startServer(options);

    ClientOptions client_options;
    client_options.connections = 4;
    client_options.completionThreads = 2;
    RpcClient client(server->port(), client_options);

    constexpr int calls = 300;
    std::atomic<int> completed{0};
    CountdownLatch latch(calls);
    for (int i = 0; i < calls; ++i) {
        client.call(kReverse, "abc",
                    [&](const Status &status, std::string_view payload) {
                        if (status.isOk() && payload == "cba")
                            completed.fetch_add(1);
                        latch.countDown();
                    });
    }
    latch.wait();
    EXPECT_EQ(completed.load(), calls);
}

TEST_F(RpcTest, MultipleClientsShareServer)
{
    startServer();
    std::vector<std::unique_ptr<RpcClient>> clients;
    for (int i = 0; i < 4; ++i)
        clients.push_back(std::make_unique<RpcClient>(server->port()));
    for (int round = 0; round < 5; ++round) {
        for (auto &client : clients) {
            auto result = client->callSync(kEcho, "ping");
            ASSERT_TRUE(result.isOk());
            EXPECT_EQ(result.value(), "ping");
        }
    }
    EXPECT_GE(server->requestsServed(), 20u);
}

TEST_F(RpcTest, ConnectToClosedPortIsUnavailable)
{
    // Grab a port by binding a listener, then close it.
    uint16_t dead_port;
    {
        TcpListener listener;
        dead_port = listener.port();
    }
    RpcClient client(dead_port);
    EXPECT_FALSE(client.isHealthy());
    auto result = client.callSync(kEcho, "void");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
}

TEST_F(RpcTest, ServerRestartAllowsReconnect)
{
    startServer();
    const uint16_t old_port = server->port();
    {
        RpcClient client(old_port);
        ASSERT_TRUE(client.callSync(kEcho, "x").isOk());
    }
    server.reset();
    startServer();
    RpcClient client(server->port());
    auto result = client.callSync(kEcho, "after-restart");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "after-restart");
}

TEST_F(RpcTest, LocalChannelBypassesTransport)
{
    startServer();
    LocalChannel channel(*server);
    auto result = channel.callSync(kReverse, "0123");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "3210");
}

TEST_F(RpcTest, LocalChannelErrorPropagates)
{
    startServer();
    LocalChannel channel(*server);
    auto result = channel.callSync(kFail, "");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::NotFound);
}

/** Parameterized sweep over server threading configurations. */
struct ThreadingParam
{
    int pollers;
    int workers;
    bool dispatch;
};

class RpcThreadingTest : public ::testing::TestWithParam<ThreadingParam>
{};

TEST_P(RpcThreadingTest, EchoUnderEveryThreadingModel)
{
    const ThreadingParam param = GetParam();
    ServerOptions options;
    options.pollerThreads = param.pollers;
    options.workerThreads = param.workers;
    options.dispatchToWorkers = param.dispatch;

    Server server(options);
    server.registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server.start();

    RpcClient client(server.port());
    constexpr int calls = 64;
    std::atomic<int> completed{0};
    CountdownLatch latch(calls);
    for (int i = 0; i < calls; ++i) {
        client.call(kEcho, std::to_string(i),
                    [&, expect = std::to_string(i)](
                        const Status &status, std::string_view payload) {
                        if (status.isOk() && payload == expect)
                            completed.fetch_add(1);
                        latch.countDown();
                    });
    }
    latch.wait();
    EXPECT_EQ(completed.load(), calls);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadingModels, RpcThreadingTest,
    ::testing::Values(ThreadingParam{1, 1, true},
                      ThreadingParam{1, 4, true},
                      ThreadingParam{2, 2, true},
                      ThreadingParam{4, 8, true},
                      ThreadingParam{1, 0, false},
                      ThreadingParam{2, 0, false}),
    [](const ::testing::TestParamInfo<ThreadingParam> &info) {
        const auto &p = info.param;
        return "p" + std::to_string(p.pollers) + "_w" +
               std::to_string(p.workers) +
               (p.dispatch ? "_dispatch" : "_inline");
    });

TEST_F(RpcTest, PipelinedBatchSyscallBudget)
{
    // Locks in the coalescing win: a corked batch of pipelined calls
    // must cost a small constant number of sendmsg syscalls, not one
    // per request per side (the pre-batching cost: 2/request, so 32
    // for this batch). Inline mode keeps the response path
    // deterministic — all responses flush from the poller event.
    ServerOptions server_options;
    server_options.dispatchToWorkers = false;
    startServer(server_options);
    RpcClient client(server->port());
    ASSERT_TRUE(client.callSync(kEcho, "warm").isOk());

    constexpr int depth = 16;
    const std::string body(64, 'x');
    std::atomic<int> completed{0};
    CountdownLatch latch(depth);
    const auto before = snapshotSyscalls();
    {
        ScopedWriteBatch batch(&client);
        for (int i = 0; i < depth; ++i) {
            client.call(kEcho, body,
                        [&](const Status &status, std::string_view) {
                            if (status.isOk())
                                completed.fetch_add(1);
                            latch.countDown();
                        });
        }
    }
    latch.wait();
    const auto after = snapshotSyscalls();
    EXPECT_EQ(completed.load(), depth);

    const uint64_t sendmsgs =
        diffSyscalls(before, after)[size_t(Sys::Sendmsg)];
    EXPECT_GE(sendmsgs, 1u);
    EXPECT_LE(sendmsgs, 8u) << "coalescing regressed: " << sendmsgs
                            << " sendmsg for a " << depth
                            << "-deep pipelined batch";
}

TEST_F(RpcTest, DialBackoffPersistsAcrossFlappingDial)
{
    // Regression: the backoff used to reset the moment connect(2)
    // succeeded, so a flapping server — accepts, then drops the
    // connection before ever answering — saw a full-rate connect
    // storm. The slate may only be wiped by a real response.
    TcpListener listener;
    std::atomic<bool> stop{false};
    ScopedThread flapper("flapper", [&] {
        while (!stop.load()) {
            TcpSocket sock = listener.accept();
            if (sock.valid())
                sock.close(); // Accept-and-die.
            else
                sleepForNanos(200'000);
        }
    });

    ClientOptions client_options;
    client_options.reconnectBackoffNs = 50'000'000; // 50 ms.
    client_options.reconnectBackoffMaxNs = 1'000'000'000;
    RpcClient client(listener.port(), client_options);
    for (int i = 0; i < 100; ++i) {
        client.call(kEcho, "x",
                    [](const Status &, std::string_view) {});
        sleepForNanos(2'000'000);
    }
    stop.store(true);
    flapper.join();

    // 100 calls over >= 200 ms against 50 ms-doubling backoff: a
    // handful of dials. The broken reset-on-connect behaviour dialed
    // on nearly every call.
    EXPECT_GE(client.connectAttempts(), 1u);
    EXPECT_LE(client.connectAttempts(), 12u)
        << "connect storm: " << client.connectAttempts() << " dials";
}

TEST_F(RpcTest, OversizedPayloadFailsCallNotProcess)
{
    // Regression: an oversized outbound frame used to abort the
    // process. It must fail just that call and leave the connection
    // (and everything else) working.
    startServer();
    RpcClient client(server->port());
    std::string huge(size_t(FramedConnection::maxFrameBytes) + 64,
                     'x');
    auto result = client.callSync(kEcho, std::move(huge));
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);

    auto ok = client.callSync(kEcho, "after oversize");
    ASSERT_TRUE(ok.isOk()) << ok.status().toString();
    EXPECT_EQ(ok.value(), "after oversize");
}

// --------------------------------------------------------------------
// Clients dialed onto a server's pollers (Server::dial)
// --------------------------------------------------------------------

constexpr uint32_t kFanout = 10;
constexpr uint32_t kHold = 11;

/** Leaf that keeps every request unanswered, so calls stay pending. */
class HoldingLeaf
{
  public:
    HoldingLeaf()
    {
        server.registerHandler(kHold, [this](ServerCallPtr call) {
            MutexLock lock(mutex);
            held.push_back(std::move(call));
        });
        server.start();
    }

    size_t
    heldCount()
    {
        MutexLock lock(mutex);
        return held.size();
    }

    /** Wait (bounded) until `count` requests arrived. */
    bool
    awaitHeld(size_t count)
    {
        const int64_t deadline = nowNanos() + 5'000'000'000;
        while (heldCount() < count && nowNanos() < deadline)
            sleepForNanos(1'000'000);
        return heldCount() >= count;
    }

    Server server;

  private:
    Mutex mutex;
    std::vector<ServerCallPtr> held GUARDED_BY(mutex);
};

/** Per-call completion counts for calls issued through one channel. */
struct CompletionLedger
{
    explicit CompletionLedger(size_t calls) : hits(calls) {}

    Channel::Callback
    callback(size_t i)
    {
        return [this, i](const Status &status, std::string_view) {
            hits[i].fetch_add(1);
            if (status.code() == StatusCode::Cancelled)
                cancelled.fetch_add(1);
        };
    }

    size_t
    completedOnce() const
    {
        size_t once = 0;
        for (const auto &hit : hits)
            once += hit.load() == 1;
        return once;
    }

    bool
    anyTwice() const
    {
        for (const auto &hit : hits) {
            if (hit.load() > 1)
                return true;
        }
        return false;
    }

    std::vector<std::atomic<int>> hits;
    std::atomic<size_t> cancelled{0};
};

ServerOptions
runToCompletion()
{
    ServerOptions options;
    options.dispatchToWorkers = false;
    options.name = "mid";
    return options;
}

TEST(DialedClientTest, LeafRepliesMergeOnTheHandlersPoller)
{
    Server leaf(runToCompletion());
    leaf.registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    leaf.start();

    // Dialed before start(): the mid-tier's pollers exist from
    // construction.
    Server mid(runToCompletion());
    std::shared_ptr<RpcClient> toLeaf = mid.dial(leaf.port(), {});
    std::atomic<bool> sameThread{true};
    std::atomic<int> merges{0};
    mid.registerHandler(kFanout, [&](ServerCallPtr call) {
        const std::thread::id handler = std::this_thread::get_id();
        constexpr int legs = 3;
        auto state = std::make_shared<std::pair<std::atomic<int>,
                                                std::string>>();
        state->first = legs;
        for (int leg = 0; leg < legs; ++leg) {
            toLeaf->call(kEcho, std::to_string(leg),
                         [&, call, state, handler](
                             const Status &status,
                             std::string_view payload) {
                             if (std::this_thread::get_id() != handler)
                                 sameThread = false;
                             // All legs complete on one thread: no
                             // lock needed for the merge.
                             state->second.append(
                                 status.isOk() ? payload : "!");
                             if (--state->first == 0) {
                                 merges.fetch_add(1);
                                 call->respondOk(state->second);
                             }
                         });
        }
    });
    mid.start();

    RpcClient frontEnd(mid.port());
    for (int i = 0; i < 20; ++i) {
        auto result = frontEnd.callSync(kFanout, "");
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        std::string merged = result.value();
        std::sort(merged.begin(), merged.end());
        EXPECT_EQ(merged, "012");
    }
    EXPECT_EQ(merges.load(), 20);
    EXPECT_TRUE(sameThread.load())
        << "a leaf reply was merged off the handler's poller";
}

TEST(DialedClientTest, PendingCallsCompleteExactlyOnceOnAnyTeardown)
{
    constexpr size_t calls = 64;
    Server mid(runToCompletion());
    mid.start();

    // 1. The leaf dies with calls in flight: each fails once, on the
    //    mid-tier's poller, without any thread of the client's own.
    {
        HoldingLeaf leaf;
        CompletionLedger ledger(calls);
        std::shared_ptr<RpcClient> client =
            mid.dial(leaf.server.port(), {});
        for (size_t i = 0; i < calls; ++i)
            client->call(kHold, "", ledger.callback(i));
        ASSERT_TRUE(leaf.awaitHeld(calls));
        leaf.server.stop();
        const int64_t deadline = nowNanos() + 5'000'000'000;
        while (ledger.completedOnce() < calls && nowNanos() < deadline)
            sleepForNanos(1'000'000);
        EXPECT_EQ(ledger.completedOnce(), calls);
        EXPECT_FALSE(ledger.anyTwice());
    }

    // 2. The client goes while the mid-tier's poller runs: every
    //    pending call is cancelled once, before the destructor returns.
    {
        HoldingLeaf leaf;
        CompletionLedger ledger(calls);
        std::shared_ptr<RpcClient> client =
            mid.dial(leaf.server.port(), {});
        for (size_t i = 0; i < calls; ++i)
            client->call(kHold, "", ledger.callback(i));
        ASSERT_TRUE(leaf.awaitHeld(calls));
        client.reset();
        EXPECT_EQ(ledger.completedOnce(), calls);
        EXPECT_EQ(ledger.cancelled.load(), calls);
    }

    // 3. The server whose pollers the client rides goes first: the
    //    client keeps the loops alive and cancels on its own teardown.
    {
        HoldingLeaf leaf;
        auto host = std::make_unique<Server>(runToCompletion());
        host->start();
        CompletionLedger ledger(calls);
        std::shared_ptr<RpcClient> client =
            host->dial(leaf.server.port(), {});
        for (size_t i = 0; i < calls; ++i)
            client->call(kHold, "", ledger.callback(i));
        ASSERT_TRUE(leaf.awaitHeld(calls));
        host.reset();
        EXPECT_EQ(ledger.completedOnce(), 0u);
        client.reset();
        EXPECT_EQ(ledger.completedOnce(), calls);
        EXPECT_EQ(ledger.cancelled.load(), calls);
    }

    // 4. The client goes while a pass still holds the legs it issued
    //    corked: the destructor waits that pass out, the legs never
    //    reach the leaf, and each is cancelled once.
    {
        HoldingLeaf leaf;
        CompletionLedger ledger(calls);
        Server host(runToCompletion());
        std::shared_ptr<RpcClient> client =
            host.dial(leaf.server.port(), {});
        RpcClient *legs = client.get();
        std::atomic<bool> issued{false};
        std::atomic<bool> destroying{false};
        host.registerHandler(kFanout, [&](ServerCallPtr call) {
            for (size_t i = 0; i < calls; ++i)
                legs->call(kHold, "", ledger.callback(i));
            issued = true;
            // Keep the pass open until the destructor has shut the
            // connection down and waits for the pass to end.
            while (!destroying.load())
                sleepForNanos(100'000);
            sleepForNanos(50'000'000);
            call->respondOk("");
        });
        host.start();
        RpcClient frontEnd(host.port());
        frontEnd.call(kFanout, "", [](const Status &, std::string_view) {});
        const int64_t deadline = nowNanos() + 5'000'000'000;
        while (!issued.load() && nowNanos() < deadline)
            sleepForNanos(1'000'000);
        ASSERT_TRUE(issued.load());
        destroying = true;
        client.reset();
        EXPECT_EQ(ledger.completedOnce(), calls);
        EXPECT_EQ(ledger.cancelled.load(), calls);
        EXPECT_FALSE(ledger.anyTwice());
        sleepForNanos(20'000'000);
        EXPECT_EQ(leaf.heldCount(), 0u)
            << "legs left before the end of the pass that issued them";
    }
}

/** Accept one connection dialed at `listener` (bounded wait). */
TcpSocket
acceptOne(TcpListener &listener)
{
    TcpSocket sock;
    for (int i = 0; i < 5000 && !sock.valid(); ++i) {
        sock = listener.accept();
        if (!sock.valid())
            sleepForNanos(1'000'000);
    }
    return sock;
}

TEST(DialedClientTest, OnePassSendsItsLegsInOneSendmsg)
{
    // Requests parsed in one pass each send one leg over the same
    // dialed client. The legs leave together at the end of the pass:
    // one sendmsg, and the leaf (read by hand here) gets them all in
    // one read.
    constexpr int requests = 8;
    TcpListener leafListener;
    Server mid(runToCompletion());
    std::shared_ptr<RpcClient> toLeaf = mid.dial(leafListener.port(), {});
    mid.registerHandler(kFanout, [&toLeaf](ServerCallPtr call) {
        toLeaf->call(kEcho, call->body(),
                     [call](const Status &status,
                            std::string_view payload) {
                         call->respond(status.code(), payload);
                     });
    });
    mid.start();
    FramedConnection leaf(acceptOne(leafListener), nullptr, nullptr);
    ASSERT_FALSE(leaf.isDead());

    RpcClient frontEnd(mid.port());
    std::atomic<int> answered{0};
    CountdownLatch done(requests);
    const auto before = snapshotSyscalls();
    {
        // One front-end sendmsg, so the mid-tier parses every request
        // in one read.
        ScopedWriteBatch batch(&frontEnd);
        for (int i = 0; i < requests; ++i) {
            frontEnd.call(kFanout, std::to_string(i),
                          [&, i](const Status &status,
                                 std::string_view payload) {
                              if (status.isOk() &&
                                  payload == std::to_string(i))
                                  answered.fetch_add(1);
                              done.countDown();
                          });
        }
    }

    // A read that delivers frames is one short recv (FrameTest's
    // ShortReadParsesWithoutExtraRecv); count the reads that did.
    std::vector<std::string> legs;
    int reads = 0;
    const int64_t deadline = nowNanos() + 5'000'000'000;
    while (legs.size() < size_t(requests) && nowNanos() < deadline) {
        const size_t had = legs.size();
        ASSERT_TRUE(leaf.onReadable([&](std::string_view frame) {
            legs.emplace_back(frame);
        }));
        if (legs.size() > had)
            ++reads;
        else
            sleepForNanos(500'000);
    }
    ASSERT_EQ(legs.size(), size_t(requests));
    EXPECT_EQ(reads, 1);

    // Answer every leg in one write: the mid-tier reads the replies in
    // one pass and answers every request in one flush.
    leaf.cork();
    for (const std::string &frame : legs) {
        MessageHeader header;
        std::string_view payload;
        ASSERT_TRUE(decodeFrame(frame, header, payload));
        header.kind = MessageKind::Response;
        header.status = StatusCode::Ok;
        ASSERT_TRUE(leaf.sendFrame(encodeFrame(header, payload)));
    }
    ASSERT_TRUE(leaf.uncork());
    done.wait();
    EXPECT_EQ(answered.load(), requests);
    // A poller counts its sendmsg after the peer may already have read
    // the bytes; once the pollers are joined every count is in.
    mid.stop();
    EXPECT_EQ(diffSyscalls(before, snapshotSyscalls())[size_t(Sys::Sendmsg)],
              4u)
        << "front-end batch, legs, leaf replies, responses: one each";
}

TEST(DrainWriteBatchTest, FrameQueuedByAnotherThreadLeavesWithThePass)
{
    // Once a pass queues a response on a connection it holds that
    // connection corked until the pass ends. A response another thread
    // queues there meanwhile is not stranded: it leaves with the
    // pass's flush, in the same sendmsg.
    Server server(runToCompletion());
    Mutex mutex;
    ServerCallPtr held;
    server.registerHandler(kHold, [&](ServerCallPtr call) {
        MutexLock lock(mutex);
        held = std::move(call);
    });
    server.registerHandler(kEcho, [&](ServerCallPtr call) {
        call->respondOk(call->body());
        ServerCallPtr other;
        {
            MutexLock lock(mutex);
            other = std::move(held);
        }
        ScopedThread helper("helper",
                            [other] { other->respondOk("held"); });
        helper.join(); // Its frame is queued before the pass ends.
    });
    server.start();

    RpcClient client(server.port());
    CountdownLatch done(2);
    std::atomic<int> answered{0};
    auto expect = [&](std::string want) {
        return [&, want](const Status &status, std::string_view payload) {
            if (status.isOk() && payload == want)
                answered.fetch_add(1);
            done.countDown();
        };
    };
    client.call(kHold, "", expect("held"));
    auto isHeld = [&] {
        MutexLock lock(mutex);
        return held != nullptr;
    };
    const int64_t deadline = nowNanos() + 5'000'000'000;
    while (!isHeld() && nowNanos() < deadline)
        sleepForNanos(1'000'000);
    ASSERT_TRUE(isHeld());
    const auto before = snapshotSyscalls();
    client.call(kEcho, "echo", expect("echo"));
    done.wait();
    EXPECT_EQ(answered.load(), 2);
    server.stop(); // Joins the poller: its sendmsg count is in.
    EXPECT_EQ(diffSyscalls(before, snapshotSyscalls())[size_t(Sys::Sendmsg)],
              2u)
        << "one request, then both responses in the pass's flush";
}

TEST(DialedClientDeathTest, DefaultDeadlineIsRejected)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    Server host(runToCompletion());
    TcpListener target;
    ClientOptions options;
    options.defaultDeadlineNs = 10'000'000;
    EXPECT_DEATH(host.dial(target.port(), options), "no deadline sweep");
}

TEST(DrainWriteBatchTest, WorkerDrainDoesNotHoldRequests)
{
    // A worker's handler may block on a client call inside its drain
    // round, so the round must not hold that call's request back until
    // the round ends: it would wait on itself.
    Server leaf(runToCompletion());
    leaf.registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    leaf.start();
    RpcClient toLeaf(leaf.port());

    ServerOptions options;
    options.workerThreads = 1;
    Server mid(options);
    mid.registerHandler(kFanout, [&toLeaf](ServerCallPtr call) {
        CallOptions within;
        within.deadlineNs = 2'000'000'000;
        auto reply = toLeaf.callSync(kEcho, call->body(), within);
        if (reply.isOk())
            call->respondOk(reply.value());
        else
            call->respond(reply.status().code(), "");
    });
    mid.start();

    RpcClient frontEnd(mid.port());
    auto result = frontEnd.callSync(kFanout, "through");
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result.value(), "through");
}

} // namespace
} // namespace rpc
} // namespace musuite
