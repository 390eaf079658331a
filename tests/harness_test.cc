/**
 * @file
 * Tests of the experiment harness: every service deploys and answers
 * over TCP, open-loop windows produce fully populated reports (syscall
 * counts, futex/HITM events, OS-overhead histograms), and fault
 * injection via killLeaf behaves.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>

#include "harness/deployment.h"
#include "harness/experiment.h"
#include "index/postings.h"
#include "services/setalgebra/proto.h"

namespace musuite {
namespace {

/** Small-scale options so a full deployment builds in milliseconds. */
DeploymentOptions
tinyOptions()
{
    DeploymentOptions options;
    options.leafShards = 2;
    options.routerDefaultShards = false; // 2-way Router too.
    options.gmm.numVectors = 600;
    options.gmm.dimension = 24;
    options.gmm.clusters = 8;
    options.corpus.numDocuments = 1200;
    options.corpus.vocabulary = 1500;
    options.corpus.meanDocLength = 40;
    options.ratings.users = 60;
    options.ratings.items = 50;
    options.ratings.meanRatingsPerUser = 8;
    options.kv.numKeys = 4000;
    options.prepopulateKeys = 1000;
    return options;
}

class DeploymentTest : public ::testing::TestWithParam<ServiceKind>
{};

/** A short open-loop window at a load every service keeps up with. */
WindowReport
runShortWindow(ServiceDeployment &deployment)
{
    WindowOptions window;
    window.qps = 300;
    window.durationNs = 400'000'000;
    window.seed = 7;
    return runOpenLoopWindow(deployment, window);
}

TEST_P(DeploymentTest, DeploysAndAnswersQueries)
{
    auto deployment =
        ServiceDeployment::create(GetParam(), tinyOptions());
    ASSERT_NE(deployment, nullptr);
    EXPECT_EQ(deployment->kind(), GetParam());

    rpc::RpcClient client(deployment->midTierPort());
    Rng rng(42);
    for (int q = 0; q < 20; ++q) {
        auto result =
            client.callSync(deployment->frontEndMethod(),
                            deployment->sampleRequestBody(rng));
        ASSERT_TRUE(result.isOk())
            << serviceName(GetParam()) << ": "
            << result.status().toString();
        EXPECT_TRUE(deployment->validateResponse(result.value()));
    }
}

TEST_P(DeploymentTest, OpenLoopWindowPopulatesReport)
{
    // The paper's Fig. 8 pipeline, as the figure benches run it.
    DeploymentOptions options = tinyOptions();
    options.midTierServer.dispatchToWorkers = true;
    options.leafServer.dispatchToWorkers = true;
    auto deployment = ServiceDeployment::create(GetParam(), options);
    const WindowReport report = runShortWindow(*deployment);

    EXPECT_GT(report.load.completed, 50u);
    EXPECT_EQ(report.load.errors, 0u)
        << "error rate " << report.load.errorRate();

    // The blocking/dispatch design must show futex traffic (the
    // paper's dominant syscall) and epoll waits.
    EXPECT_GT(report.syscalls[size_t(Sys::Futex)], 0u);
    EXPECT_GT(report.syscalls[size_t(Sys::EpollPwait)], 0u);
    EXPECT_GT(report.syscalls[size_t(Sys::Sendmsg)], 0u);
    EXPECT_GT(report.syscalls[size_t(Sys::Recvmsg)], 0u);

    // Wakeup latencies were recorded.
    EXPECT_GT(report.osBreakdown[size_t(OsCategory::ActiveExe)].count(),
              0u);
    EXPECT_GT(report.osBreakdown[size_t(OsCategory::Block)].count(),
              0u);
    EXPECT_GT(report.osBreakdown[size_t(OsCategory::Net)].count(), 0u);

    // Context switches happened (blocking design).
    EXPECT_GT(report.contextSwitches.total(), 0u);

    // Latency distribution is sane.
    EXPECT_GT(report.load.latency.valueAtQuantile(0.5), 0);
    EXPECT_LE(report.load.latency.valueAtQuantile(0.5),
              report.load.latency.maxValue());
}

TEST_P(DeploymentTest, RunToCompletionWindowHasNoFutexWaits)
{
    // The default deployment serves every request on the poller that
    // read it: no task-queue hand-off, so no traced futex wait at any
    // tier, while the window is still served in full.
    auto deployment =
        ServiceDeployment::create(GetParam(), tinyOptions());
    const WindowReport report = runShortWindow(*deployment);

    EXPECT_GT(report.load.completed, 50u);
    EXPECT_EQ(report.load.errors, 0u)
        << "error rate " << report.load.errorRate();
    EXPECT_EQ(report.futexWaits, 0u);
    EXPECT_EQ(report.osBreakdown[size_t(OsCategory::ActiveExe)].count(),
              0u);
}

/** Threads of this process whose name contains `part`. */
size_t
threadsNamed(const std::string &part)
{
    size_t count = 0;
    for (const auto &task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        std::ifstream comm(task.path() / "comm");
        std::string name;
        std::getline(comm, name);
        count += name.find(part) != std::string::npos;
    }
    return count;
}

TEST_P(DeploymentTest, RunToCompletionStartsNoPickUpThreads)
{
    // Leaf channels ride the mid-tier's pollers: no response pick-up
    // ("-cq") thread anywhere, and queries are still answered.
    auto deployment =
        ServiceDeployment::create(GetParam(), tinyOptions());
    EXPECT_EQ(threadsNamed("-cq"), 0u);
    rpc::RpcClient client(deployment->midTierPort());
    Rng rng(3);
    for (int q = 0; q < 5; ++q) {
        auto result =
            client.callSync(deployment->frontEndMethod(),
                            deployment->sampleRequestBody(rng));
        ASSERT_TRUE(result.isOk()) << result.status().toString();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllServices, DeploymentTest,
    ::testing::Values(ServiceKind::HdSearch, ServiceKind::Router,
                      ServiceKind::SetAlgebra, ServiceKind::Recommend),
    [](const ::testing::TestParamInfo<ServiceKind> &info) {
        std::string name = serviceName(info.param);
        name.erase(std::remove(name.begin(), name.end(), ' '),
                   name.end());
        return name;
    });

TEST(DeploymentTest2, RouterUsesSixteenShardsByDefault)
{
    DeploymentOptions options = tinyOptions();
    options.routerDefaultShards = true;
    auto deployment =
        ServiceDeployment::create(ServiceKind::Router, options);
    EXPECT_EQ(deployment->leafCount(), 16u);
}

TEST(DeploymentTest2, NonRouterUsesConfiguredShards)
{
    auto deployment =
        ServiceDeployment::create(ServiceKind::SetAlgebra,
                                  tinyOptions());
    EXPECT_EQ(deployment->leafCount(), 2u);
}

TEST(DeploymentTest2, KillLeafDegradesButDoesNotCrash)
{
    auto deployment =
        ServiceDeployment::create(ServiceKind::SetAlgebra,
                                  tinyOptions());
    deployment->killLeaf(0);

    rpc::RpcClient client(deployment->midTierPort());
    Rng rng(9);
    int ok = 0;
    for (int q = 0; q < 10; ++q) {
        auto result =
            client.callSync(deployment->frontEndMethod(),
                            deployment->sampleRequestBody(rng));
        ok += result.isOk();
    }
    // Set Algebra merges whatever shards respond: all queries answer.
    EXPECT_EQ(ok, 10);
}

TEST(DeploymentTest2, DispatchingMidTierKeepsPickUpThreads)
{
    // The Fig. 8 pipeline the figure benches pin keeps one response
    // pick-up thread per leaf channel.
    DeploymentOptions options = tinyOptions();
    options.midTierServer.dispatchToWorkers = true;
    auto deployment =
        ServiceDeployment::create(ServiceKind::SetAlgebra, options);
    EXPECT_EQ(threadsNamed("-cq"), deployment->leafCount());
}

TEST(DeploymentTest2, TeardownWithLegsInFlightCompletesEachLegOnce)
{
    // Legs issued straight on the mid-tier's leaf channels, then a
    // leaf is killed and the deployment destroyed while they are in
    // flight: no hang, and every leg completes exactly once — answered,
    // failed by the dead leaf, or cancelled when its channel goes.
    constexpr size_t legs = 400;
    std::vector<std::atomic<int>> hits(2 * legs);
    std::vector<std::shared_ptr<rpc::Channel>> channels;
    {
        auto deployment = ServiceDeployment::create(
            ServiceKind::SetAlgebra, tinyOptions());
        channels = {deployment->leafChannel(0),
                    deployment->leafChannel(1)};
        Rng rng(5);
        for (size_t i = 0; i < 2 * legs; ++i) {
            channels[i % 2]->call(
                setalgebra::kIntersect,
                deployment->sampleRequestBody(rng),
                [&hits, i](const Status &, std::string_view) {
                    hits[i].fetch_add(1);
                });
            if (i == legs)
                deployment->killLeaf(1);
        }
    }
    channels.clear(); // The last owners: pending legs are cancelled.
    size_t once = 0;
    for (const auto &hit : hits) {
        EXPECT_LE(hit.load(), 1);
        once += hit.load() == 1;
    }
    EXPECT_EQ(once, hits.size());
}

TEST(DeploymentTest2, SetAlgebraShardsAnswerLikeOneIndex)
{
    // Sharding must not change an answer: each shard drops the stop
    // list ranked over the whole corpus, so the union of the shard
    // answers is what one unsharded index answers.
    DeploymentOptions options;
    options.corpus.numDocuments = 8000;
    options.leafShards = 4;
    options.stopTerms = 16;
    auto deployment =
        ServiceDeployment::create(ServiceKind::SetAlgebra, options);

    const TextCorpus corpus(options.corpus);
    std::vector<uint32_t> ids(corpus.size());
    for (uint32_t d = 0; d < ids.size(); ++d)
        ids[d] = d;
    const InvertedIndex whole(corpus.documents(), ids, options.stopTerms);

    rpc::RpcClient client(deployment->midTierPort());
    Rng rng(29);
    for (int q = 0; q < 1000; ++q) {
        const std::string body = deployment->sampleRequestBody(rng);
        setalgebra::SearchQuery query;
        ASSERT_TRUE(decodeMessage(body, query));
        auto result = client.callSync(deployment->frontEndMethod(), body);
        ASSERT_TRUE(result.isOk()) << result.status().toString();
        setalgebra::PostingReply reply;
        ASSERT_TRUE(decodeMessage(result.value(), reply));
        EXPECT_FALSE(reply.degraded);
        ASSERT_EQ(reply.docIds, whole.intersectTerms(query.terms))
            << "query " << q;
    }
}

TEST(SaturationTest2, MeasuresPositiveThroughput)
{
    auto deployment =
        ServiceDeployment::create(ServiceKind::Router, tinyOptions());
    const double qps =
        measureSaturation(*deployment, /*max_workers=*/4,
                          /*per_step_ns=*/150'000'000);
    EXPECT_GT(qps, 100.0);
}

TEST(BannerTest, PrintsEnvironment)
{
    std::ostringstream out;
    printEnvironmentBanner(out);
    EXPECT_NE(out.str().find("processor:"), std::string::npos);
    EXPECT_NE(out.str().find("kernel:"), std::string::npos);
}

} // namespace
} // namespace musuite
