/**
 * @file
 * Tests for the overload-control layer: circuit-breaker state machine,
 * retry-throttle token bucket, admission controllers, bounded-queue
 * shedding, and in-queue deadline expiry. The client-side state
 * machines are driven both directly and through a real channel with
 * rpc/fault.h counter rules, so every transition is deterministic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "base/queue.h"
#include "base/threading.h"
#include "base/time_util.h"
#include "loadgen/loadgen.h"
#include "rpc/client.h"
#include "rpc/fault.h"
#include "rpc/overload.h"
#include "rpc/server.h"
#include "simkernel/simclock.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace musuite {
namespace rpc {
namespace {

constexpr uint32_t kEcho = 1;
constexpr uint32_t kSlow = 2;
constexpr uint32_t kCounted = 3;

// ---------------------------------------------------------------------
// Circuit breaker: state machine driven directly.
// ---------------------------------------------------------------------

CircuitBreaker::Options
fastBreaker(uint32_t threshold, int64_t cooldown_ns)
{
    CircuitBreaker::Options options;
    options.failureThreshold = threshold;
    options.openCooldownNs = cooldown_ns;
    return options;
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures)
{
    CircuitBreaker breaker(fastBreaker(3, 10'000'000'000));
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(breaker.allowRequest());
        breaker.recordFailure();
        EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    }
    ASSERT_TRUE(breaker.allowRequest());
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.timesOpened(), 1u);
    EXPECT_FALSE(breaker.allowRequest());
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak)
{
    CircuitBreaker breaker(fastBreaker(3, 10'000'000'000));
    breaker.recordFailure();
    breaker.recordFailure();
    breaker.recordSuccess(); // Streak broken.
    breaker.recordFailure();
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    breaker.recordFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
}

// The cooldown tests run on a SimClock: the cooldown elapses by
// advancing virtual time exactly, so each is a precise replay instead
// of a sleep with slack.

TEST(CircuitBreakerTest, HalfOpenProbeRecloses)
{
    sim::SimClock clock;
    CircuitBreaker breaker(fastBreaker(1, 5'000'000), &clock);
    breaker.recordFailure(); // Opens at t=0; cooldown ends at t=5ms.
    ASSERT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_FALSE(breaker.allowRequest()); // Cooldown still running.

    clock.runFor(5'000'000); // Exactly the cooldown boundary.
    EXPECT_TRUE(breaker.allowRequest()); // First probe passes...
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    EXPECT_FALSE(breaker.allowRequest()); // ...concurrent probe capped.

    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    EXPECT_TRUE(breaker.allowRequest());
}

TEST(CircuitBreakerTest, FailedProbeReopens)
{
    sim::SimClock clock;
    CircuitBreaker breaker(fastBreaker(1, 5'000'000), &clock);
    breaker.recordFailure();
    clock.runFor(5'000'000);
    ASSERT_TRUE(breaker.allowRequest());
    breaker.recordFailure(); // The probe fails at t=5ms.
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.timesOpened(), 2u);
    EXPECT_FALSE(breaker.allowRequest()); // Fresh cooldown to t=10ms.
    clock.runFor(4'999'999);
    EXPECT_FALSE(breaker.allowRequest()); // One ns short: still open.
    clock.runFor(1);
    EXPECT_TRUE(breaker.allowRequest()); // Re-probes exactly on time.
}

TEST(CircuitBreakerTest, CloseThresholdNeedsMultipleProbeSuccesses)
{
    sim::SimClock clock;
    CircuitBreaker::Options options = fastBreaker(1, 5'000'000);
    options.halfOpenProbes = 2;
    options.closeThreshold = 2;
    CircuitBreaker breaker(options, &clock);
    breaker.recordFailure();
    clock.runFor(5'000'000);
    ASSERT_TRUE(breaker.allowRequest());
    breaker.recordSuccess(); // One of two required.
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    ASSERT_TRUE(breaker.allowRequest());
    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

// ---------------------------------------------------------------------
// Retry throttle: token-bucket arithmetic.
// ---------------------------------------------------------------------

TEST(RetryThrottleTest, StartsFullAndAllowsRetries)
{
    RetryThrottle throttle;
    EXPECT_TRUE(throttle.allowRetry());
    EXPECT_DOUBLE_EQ(throttle.tokens(), 10.0);
}

TEST(RetryThrottleTest, FailuresDrainPastTheHalfwayMark)
{
    RetryThrottle::Options options;
    options.maxTokens = 4.0;
    RetryThrottle throttle(options);
    throttle.onFailure(); // 3 tokens: still above 2.
    EXPECT_TRUE(throttle.allowRetry());
    throttle.onFailure(); // 2 tokens: at the mark, retries stop.
    EXPECT_FALSE(throttle.allowRetry());
    throttle.onFailure();
    throttle.onFailure();
    throttle.onFailure(); // Floored at zero, no underflow.
    EXPECT_DOUBLE_EQ(throttle.tokens(), 0.0);
}

TEST(RetryThrottleTest, SuccessesRefillSlowlyAndCapAtMax)
{
    RetryThrottle::Options options;
    options.maxTokens = 4.0;
    options.tokenRatio = 0.5;
    RetryThrottle throttle(options);
    throttle.onFailure();
    throttle.onFailure(); // 2 tokens: throttled.
    ASSERT_FALSE(throttle.allowRetry());
    throttle.onSuccess(); // 2.5: one success per tokenRatio failures.
    EXPECT_TRUE(throttle.allowRetry());
    for (int i = 0; i < 100; ++i)
        throttle.onSuccess();
    EXPECT_DOUBLE_EQ(throttle.tokens(), 4.0); // Capped.
}

// ---------------------------------------------------------------------
// Admission controllers.
// ---------------------------------------------------------------------

TEST(AdmissionTest, QueueLimitAdmitsBelowTheBound)
{
    QueueLimitAdmission admission(4);
    EXPECT_TRUE(admission.admit(0));
    EXPECT_TRUE(admission.admit(3));
    EXPECT_FALSE(admission.admit(4));
    EXPECT_FALSE(admission.admit(100));
}

TEST(AdmissionTest, GradientTracksInflightAndLimit)
{
    GradientAdmission::Options options;
    options.initialLimit = 2.0;
    GradientAdmission admission(options);
    EXPECT_TRUE(admission.admit(0));
    EXPECT_TRUE(admission.admit(0));
    EXPECT_FALSE(admission.admit(0)); // Limit 2 reached.
    EXPECT_EQ(admission.inflight(), 2u);
    admission.onAdmittedComplete(1000);
    EXPECT_EQ(admission.inflight(), 1u);
    EXPECT_TRUE(admission.admit(0)); // Slot freed.
    admission.onAdmittedDropped(); // Dropped: no latency sample.
    admission.onAdmittedComplete(1000);
    EXPECT_EQ(admission.inflight(), 0u);
}

TEST(AdmissionTest, GradientShrinksOnQueueingGrowsWhenIdle)
{
    GradientAdmission::Options options;
    options.initialLimit = 8.0;
    options.tolerance = 2.0;
    options.rttWindow = 1000; // Keep minRtt at the first-sample floor.
    GradientAdmission admission(options);

    // Establish minRtt = 1000 ns, then feed queueing samples (far
    // above tolerance x minRtt): multiplicative decrease kicks in.
    ASSERT_TRUE(admission.admit(0));
    admission.onAdmittedComplete(1000);
    EXPECT_EQ(admission.minRttNs(), 1000);
    const double before = admission.currentLimit();
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(admission.admit(0));
        admission.onAdmittedComplete(50'000);
    }
    const double shrunk = admission.currentLimit();
    EXPECT_LT(shrunk, before * 0.8);

    // Fast samples again: additive increase creeps the limit back up.
    for (int i = 0; i < 20; ++i) {
        ASSERT_TRUE(admission.admit(0));
        admission.onAdmittedComplete(1000);
    }
    EXPECT_GT(admission.currentLimit(), shrunk);
}

TEST(AdmissionTest, GradientRetryAfterScalesWithInflight)
{
    GradientAdmission admission;
    EXPECT_EQ(admission.retryAfterHintNs(), 0); // No RTT estimate yet.
    ASSERT_TRUE(admission.admit(0));
    admission.onAdmittedComplete(2000);
    ASSERT_TRUE(admission.admit(0));
    ASSERT_TRUE(admission.admit(0));
    // minRtt 2000, two inflight: hint = 2000 * (2 + 1).
    EXPECT_EQ(admission.retryAfterHintNs(), 6000);
}

// ---------------------------------------------------------------------
// Bounded queue building block.
// ---------------------------------------------------------------------

TEST(BoundedQueueTest, TryPushAllReturnsTheOverflow)
{
    BlockingQueue<int> queue(3);
    std::vector<int> leftover = queue.tryPushAll({1, 2, 3, 4, 5});
    ASSERT_EQ(leftover.size(), 2u);
    EXPECT_EQ(leftover[0], 4); // Order preserved.
    EXPECT_EQ(leftover[1], 5);
    EXPECT_EQ(queue.size(), 3u);
    std::optional<int> out = queue.pop();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, 1); // FIFO order survives the partial push.
    EXPECT_TRUE(queue.tryPush(9)); // Room again.
}

TEST(BoundedQueueTest, TryPushRejectsWhenFull)
{
    BlockingQueue<int> queue(1);
    EXPECT_TRUE(queue.tryPush(1));
    EXPECT_FALSE(queue.tryPush(2));
    ASSERT_TRUE(queue.pop().has_value());
    EXPECT_TRUE(queue.tryPush(3));
}

// ---------------------------------------------------------------------
// Histogram / breakdown plumbing used by the goodput reports.
// ---------------------------------------------------------------------

TEST(GoodputStatsTest, CountAtOrBelowWalksTheBuckets)
{
    Histogram histogram;
    EXPECT_EQ(histogram.countAtOrBelow(100), 0u); // Empty.
    for (int64_t v : {10, 20, 30, 1000, 5000})
        histogram.record(v);
    EXPECT_EQ(histogram.countAtOrBelow(-1), 0u);
    EXPECT_EQ(histogram.countAtOrBelow(30), 3u);
    EXPECT_EQ(histogram.countAtOrBelow(999'999), 5u); // >= max.
    EXPECT_GE(histogram.countAtOrBelow(1000), 3u);
}

TEST(GoodputStatsTest, BreakdownRates)
{
    ShedAcceptBreakdown breakdown;
    breakdown.offered = 100;
    breakdown.completed = 70;
    breakdown.shed = 25;
    breakdown.failed = 5;
    breakdown.goodput = 63;
    EXPECT_DOUBLE_EQ(breakdown.shedRate(), 0.25);
    EXPECT_DOUBLE_EQ(breakdown.goodputRate(), 0.63);
    EXPECT_NE(breakdown.toString().find("shed=25"), std::string::npos);
}

TEST(GoodputStatsTest, LoadResultSeparatesShedsFromFailures)
{
    LoadResult result;
    result.issued = 10;
    result.completed = 6;
    result.errors = 4;
    result.shed = 3;
    for (int64_t v : {100, 100, 100, 100, 900, 900})
        result.latency.record(v);
    const ShedAcceptBreakdown breakdown = result.breakdown(500);
    EXPECT_EQ(breakdown.offered, 10u);
    EXPECT_EQ(breakdown.shed, 3u);
    EXPECT_EQ(breakdown.failed, 1u);
    EXPECT_EQ(breakdown.goodput, 4u);
    EXPECT_EQ(result.goodputCount(0), 6u); // No deadline: completions.
}

// ---------------------------------------------------------------------
// End-to-end: breaker and throttle on a real channel, scripted with
// rpc/fault.h counter rules.
// ---------------------------------------------------------------------

std::unique_ptr<Server>
makeEchoServer(ServerOptions options = {})
{
    auto server = std::make_unique<Server>(options);
    server->registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server->start();
    return server;
}

TEST(BreakerChannelTest, InjectedFailuresTripTheBreakerAndFastFail)
{
    auto server = makeEchoServer();
    RpcClient client(server->port());

    FaultSpec faults;
    faults.errorFirstN = 3;
    faults.errorCode = StatusCode::Unavailable;
    auto injector = std::make_shared<FaultInjector>(faults);
    client.setFaultInjector(injector);
    auto breaker =
        std::make_shared<CircuitBreaker>(fastBreaker(3, 10'000'000'000));
    client.setCircuitBreaker(breaker);

    for (int i = 0; i < 3; ++i) {
        auto result = client.callSync(kEcho, "x");
        ASSERT_FALSE(result.isOk());
        EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
    }
    EXPECT_EQ(breaker->state(), CircuitBreaker::State::Open);

    // While open: fail fast without touching the transport (the
    // injector sees no further requests).
    const uint64_t seen = injector->requestsSeen();
    auto result = client.callSync(kEcho, "x");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
    EXPECT_NE(result.status().message().find("circuit breaker"),
              std::string::npos);
    EXPECT_EQ(injector->requestsSeen(), seen);
}

TEST(BreakerChannelTest, RecoversThroughAHalfOpenProbe)
{
    auto server = makeEchoServer();
    RpcClient client(server->port());

    FaultSpec faults;
    faults.errorFirstN = 2;
    faults.errorCode = StatusCode::Unavailable;
    client.setFaultInjector(std::make_shared<FaultInjector>(faults));
    auto breaker =
        std::make_shared<CircuitBreaker>(fastBreaker(2, 20'000'000));
    client.setCircuitBreaker(breaker);

    for (int i = 0; i < 2; ++i)
        ASSERT_FALSE(client.callSync(kEcho, "x").isOk());
    ASSERT_EQ(breaker->state(), CircuitBreaker::State::Open);

    sleepForNanos(40'000'000); // Cooldown elapses; faults exhausted.
    auto result = client.callSync(kEcho, "probe");
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result.value(), "probe");
    EXPECT_EQ(breaker->state(), CircuitBreaker::State::Closed);
}

TEST(BreakerChannelTest, ResourceExhaustedDoesNotTripTheBreaker)
{
    // A server that sheds everything is alive: the breaker must stay
    // closed so the quorum/retry layers (not the breaker) respond.
    ServerOptions options;
    options.admission = std::make_shared<QueueLimitAdmission>(0);
    auto server = makeEchoServer(options);
    RpcClient client(server->port());
    auto breaker =
        std::make_shared<CircuitBreaker>(fastBreaker(2, 10'000'000'000));
    client.setCircuitBreaker(breaker);

    for (int i = 0; i < 6; ++i) {
        auto result = client.callSync(kEcho, "x");
        ASSERT_FALSE(result.isOk());
        EXPECT_EQ(result.status().code(), StatusCode::ResourceExhausted);
    }
    EXPECT_EQ(breaker->state(), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker->timesOpened(), 0u);
}

TEST(ThrottleChannelTest, EmptyBucketSuppressesRetries)
{
    auto server = makeEchoServer();
    RpcClient client(server->port());

    FaultSpec faults;
    faults.errorFirstN = 1;
    faults.errorCode = StatusCode::Unavailable;
    auto injector = std::make_shared<FaultInjector>(faults);
    client.setFaultInjector(injector);

    RetryThrottle::Options throttle_options;
    throttle_options.maxTokens = 2.0;
    auto throttle = std::make_shared<RetryThrottle>(throttle_options);
    throttle->onFailure();
    throttle->onFailure(); // Pre-drained: retries must not fire.
    client.setRetryThrottle(throttle);

    CallOptions call_options;
    call_options.maxAttempts = 3;
    call_options.backoffBaseNs = 1'000'000;
    auto result = client.callSync(kEcho, "x", call_options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::Unavailable);
    EXPECT_EQ(injector->requestsSeen(), 1u); // No second attempt.
}

TEST(ThrottleChannelTest, FullBucketStillRetries)
{
    auto server = makeEchoServer();
    RpcClient client(server->port());

    FaultSpec faults;
    faults.errorFirstN = 1;
    faults.errorCode = StatusCode::Unavailable;
    auto injector = std::make_shared<FaultInjector>(faults);
    client.setFaultInjector(injector);
    client.setRetryThrottle(std::make_shared<RetryThrottle>());

    CallOptions call_options;
    call_options.maxAttempts = 3;
    call_options.backoffBaseNs = 1'000'000;
    auto result = client.callSync(kEcho, "x", call_options);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(injector->requestsSeen(), 2u); // Failed once, retried.
}

// ---------------------------------------------------------------------
// Server-side shedding: admission rejects, bounded-queue overflow,
// and in-queue deadline expiry.
// ---------------------------------------------------------------------

TEST(ServerSheddingTest, AdmissionRejectCarriesRetryAfter)
{
    ServerOptions options;
    options.admission = std::make_shared<QueueLimitAdmission>(0);
    options.rejectRetryAfterNs = 7'000'000;
    auto server = makeEchoServer(options);
    RpcClient client(server->port());

    const uint64_t before =
        globalCounters().counter("overload.admission_rejected").get();
    auto result = client.callSync(kEcho, "x");
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(result.status().retryAfterNs(), 7'000'000);
    EXPECT_GT(globalCounters().counter("overload.admission_rejected").get(),
              before);
}

TEST(ServerSheddingTest, FullTaskQueueShedsInsteadOfBlocking)
{
    ServerOptions options;
    options.workerThreads = 1;
    options.queueCapacity = 1;
    auto server = std::make_unique<Server>(options);
    server->registerHandler(kSlow, [](ServerCallPtr call) {
        sleepForNanos(50'000'000);
        call->respondOk("");
    });
    server->start();
    RpcClient client(server->port());

    const uint64_t before =
        globalCounters().counter("overload.queue_rejected").get();
    std::atomic<int> ok{0}, shed{0}, other{0};
    CountdownLatch latch(6);
    for (int i = 0; i < 6; ++i) {
        client.call(kSlow, "",
                    [&](const Status &status, std::string_view) {
                        if (status.isOk())
                            ok.fetch_add(1);
                        else if (status.code() ==
                                 StatusCode::ResourceExhausted)
                            shed.fetch_add(1);
                        else
                            other.fetch_add(1);
                        latch.countDown();
                    });
    }
    latch.wait();
    // Whatever fits (at least the one queue slot) executes; the rest
    // are shed with an explicit RESOURCE_EXHAUSTED, never an unbounded
    // wait and never a silent drop. How many fit depends on whether
    // the burst lands in one poller drain or several.
    EXPECT_GE(ok.load(), 1);
    EXPECT_GE(shed.load(), 3);
    EXPECT_EQ(other.load(), 0);
    EXPECT_GT(globalCounters().counter("overload.queue_rejected").get(),
              before);
}

TEST(ServerSheddingTest, ExpiredInQueueRejectedWithoutExecuting)
{
    ServerOptions options;
    options.workerThreads = 1;
    auto server = std::make_unique<Server>(options);
    std::atomic<int> counted_runs{0};
    server->registerHandler(kSlow, [](ServerCallPtr call) {
        sleepForNanos(60'000'000);
        call->respondOk("");
    });
    server->registerHandler(kCounted, [&](ServerCallPtr call) {
        counted_runs.fetch_add(1);
        call->respondOk("");
    });
    server->start();
    RpcClient client(server->port());

    const uint64_t before =
        globalCounters().counter("overload.expired_in_queue").get();

    // Occupy the only worker for 60 ms...
    CountdownLatch slow_done(1);
    client.call(kSlow, "", [&](const Status &, std::string_view) {
        slow_done.countDown();
    });
    sleepForNanos(5'000'000); // Let the slow call reach the worker.

    // ...then queue a request whose 10 ms budget dies in the queue.
    CallOptions call_options;
    call_options.deadlineNs = 10'000'000;
    auto result = client.callSync(kCounted, "", call_options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);

    slow_done.wait();
    sleepForNanos(10'000'000); // Worker has drained the queue by now.
    EXPECT_EQ(counted_runs.load(), 0); // Handler never ran.
    EXPECT_GT(globalCounters().counter("overload.expired_in_queue").get(),
              before);
}

TEST(ServerSheddingTest, BudgetPropagatesAndFreshRequestsExecute)
{
    // Control case for the expiry test: with an idle worker the same
    // 10 ms budget is plenty, the handler runs, and the call succeeds.
    ServerOptions options;
    options.workerThreads = 1;
    auto server = std::make_unique<Server>(options);
    std::atomic<int> counted_runs{0};
    server->registerHandler(kCounted, [&](ServerCallPtr call) {
        counted_runs.fetch_add(1);
        EXPECT_GT(call->remainingBudgetNs(), 0);
        call->respondOk("");
    });
    server->start();
    RpcClient client(server->port());

    CallOptions call_options;
    call_options.deadlineNs = 100'000'000;
    auto result = client.callSync(kCounted, "", call_options);
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(counted_runs.load(), 1);
}

// ---------------------------------------------------------------------
// The same tiers when the server runs each request to completion on
// the poller that read it (no task queue, no workers).
// ---------------------------------------------------------------------

TEST(ServerSheddingTest, InlineExpiredBudgetRejectedWithoutExecuting)
{
    ServerOptions options;
    options.dispatchToWorkers = false;
    auto server = std::make_unique<Server>(options);
    std::atomic<int> counted_runs{0};
    server->registerHandler(kEcho, [](ServerCallPtr call) {
        call->respondOk(call->body());
    });
    server->registerHandler(kCounted, [&](ServerCallPtr call) {
        counted_runs.fetch_add(1);
        call->respondOk("");
    });
    server->start();
    RpcClient client(server->port());

    const uint64_t before =
        globalCounters().counter("overload.expired_in_queue").get();
    // A 1 ns wire budget has run out by the time the poller serves it.
    CallOptions call_options;
    call_options.deadlineNs = 1;
    auto result = client.callSync(kCounted, "", call_options);
    ASSERT_FALSE(result.isOk());
    EXPECT_EQ(result.status().code(), StatusCode::DeadlineExceeded);

    // One connection is served in order: once this echo is back, the
    // expired request has been answered too.
    ASSERT_TRUE(client.callSync(kEcho, "after").isOk());
    EXPECT_EQ(counted_runs.load(), 0); // Handler never ran.
    EXPECT_EQ(globalCounters().counter("overload.expired_in_queue").get(),
              before + 1);
}

TEST(ServerSheddingTest, InlineAdmissionCountsTheUnservedBatch)
{
    // No queue builds up inline, so admission must see the calls
    // parsed from one read but not yet served. A corked pipelined
    // burst arrives in one read; past the bound, calls are shed.
    ServerOptions options;
    options.dispatchToWorkers = false;
    options.admission = std::make_shared<QueueLimitAdmission>(2);
    options.rejectRetryAfterNs = 7'000'000;
    auto server = makeEchoServer(options);
    RpcClient client(server->port());
    ASSERT_TRUE(client.callSync(kEcho, "warm").isOk());

    constexpr int depth = 16;
    std::atomic<int> ok{0}, shed{0}, hinted{0}, other{0};
    CountdownLatch latch(depth);
    {
        ScopedWriteBatch batch(&client);
        for (int i = 0; i < depth; ++i) {
            client.call(kEcho, "x",
                        [&](const Status &status, std::string_view) {
                            if (status.isOk()) {
                                ok.fetch_add(1);
                            } else if (status.code() ==
                                       StatusCode::ResourceExhausted) {
                                shed.fetch_add(1);
                                if (status.retryAfterNs() == 7'000'000)
                                    hinted.fetch_add(1);
                            } else {
                                other.fetch_add(1);
                            }
                            latch.countDown();
                        });
        }
    }
    latch.wait();
    EXPECT_EQ(other.load(), 0);
    EXPECT_GE(ok.load(), 2);
    EXPECT_GE(shed.load(), depth / 2);
    EXPECT_EQ(hinted.load(), shed.load());
}

} // namespace
} // namespace rpc
} // namespace musuite
