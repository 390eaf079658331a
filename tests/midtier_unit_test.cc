/**
 * @file
 * Unit tests of the four mid-tiers in isolation, using scripted fake
 * leaf channels: degraded merges when leaves fail or return garbage,
 * full-outage error propagation, and request-path routing decisions —
 * without sockets, so every failure mode is exactly controllable.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "index/lsh.h"
#include "rpc/server.h"
#include "services/hdsearch/midtier.h"
#include "services/hdsearch/proto.h"
#include "services/recommend/midtier.h"
#include "services/recommend/proto.h"
#include "services/router/midtier.h"
#include "services/router/proto.h"
#include "services/setalgebra/midtier.h"
#include "services/setalgebra/proto.h"

namespace musuite {
namespace {

/** A scripted leaf: replies with a fixed payload, error, shed (with a
 *  retry-after pacing hint), or garbage. */
class ScriptedChannel : public rpc::Channel
{
  public:
    enum class Mode { Reply, Error, Shed, Garbage };

    explicit ScriptedChannel(Mode mode, std::string payload = "",
                             int64_t retry_after_ns = 0)
        : mode(mode), payload(std::move(payload)),
          retryAfterNs(retry_after_ns)
    {}

    int calls = 0;

  protected:
    void
    transportCall(uint32_t, std::string, Callback callback) override
    {
        ++calls;
        switch (mode) {
          case Mode::Reply:
            callback(Status::ok(), payload);
            return;
          case Mode::Error:
            callback(Status(StatusCode::Unavailable, "scripted"), {});
            return;
          case Mode::Shed: {
            Status status(StatusCode::ResourceExhausted, "scripted");
            status.setRetryAfterNs(retryAfterNs);
            callback(status, {});
            return;
          }
          case Mode::Garbage:
            callback(Status::ok(), "\x80\xFF\x01garbage");
            return;
        }
    }

  private:
    Mode mode;
    std::string payload;
    int64_t retryAfterNs;
};

/** Capture a mid-tier's response synchronously via invokeLocal-style
 *  responder plumbing. */
struct CapturedResponse
{
    StatusCode code = StatusCode::Internal;
    std::string payload;
    int64_t retryAfterNs = 0;
    bool responded = false;
};

/** Run a mid-tier registered on an unstarted host; scripted leaves
 *  answer inline, so the response is in by the time this returns. */
CapturedResponse
invokeMidTier(rpc::Server &host, uint32_t method, const std::string &body)
{
    CapturedResponse out;
    host.invokeLocal(method, body,
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    return out;
}

// --------------------------------------------------------------------
// Set Algebra mid-tier.
// --------------------------------------------------------------------

std::string
postingPayload(std::vector<uint32_t> docs)
{
    setalgebra::PostingReply reply;
    reply.docIds = std::move(docs);
    return encodeMessage(reply);
}

TEST(SetAlgebraMidTierTest, UnionsHealthyLeaves)
{
    auto a = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({1, 5}));
    auto b = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({2, 5, 9}));
    setalgebra::MidTier midtier({a, b});

    setalgebra::SearchQuery query;
    query.terms = {7};
    CapturedResponse out;
    rpc::Server host; // Unstarted: handler invoked directly.
    midtier.registerWith(host);
    host.invokeLocal(setalgebra::kSearch, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    setalgebra::PostingReply merged;
    ASSERT_TRUE(decodeMessage(out.payload, merged));
    EXPECT_EQ(merged.docIds, (std::vector<uint32_t>{1, 2, 5, 9}));
    EXPECT_EQ(a->calls, 1);
    EXPECT_EQ(b->calls, 1);
}

TEST(SetAlgebraMidTierTest, DegradedWhenOneLeafFailsOrGarbles)
{
    auto good = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({3, 4}));
    auto dead = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error);
    auto garbled = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Garbage);
    setalgebra::MidTier midtier({good, dead, garbled});

    setalgebra::SearchQuery query;
    query.terms = {1};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(setalgebra::kSearch, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    // Degraded but successful: the healthy shard's results survive.
    EXPECT_EQ(out.code, StatusCode::Ok);
    setalgebra::PostingReply merged;
    ASSERT_TRUE(decodeMessage(out.payload, merged));
    EXPECT_EQ(merged.docIds, (std::vector<uint32_t>{3, 4}));
}

// --------------------------------------------------------------------
// Recommend mid-tier.
// --------------------------------------------------------------------

std::string
ratingPayload(double rating)
{
    recommend::RatingReply reply;
    reply.rating = rating;
    return encodeMessage(reply);
}

TEST(RecommendMidTierTest, AveragesOnlyHealthyLeaves)
{
    auto a = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, ratingPayload(4.0));
    auto b = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, ratingPayload(2.0));
    auto dead = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error);
    recommend::MidTier midtier({a, b, dead});

    recommend::RatingQuery query{1, 2};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(recommend::kPredict, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    recommend::RatingReply reply;
    ASSERT_TRUE(decodeMessage(out.payload, reply));
    EXPECT_DOUBLE_EQ(reply.rating, 3.0); // Mean of 4 and 2.
}

TEST(RecommendMidTierTest, TotalOutageIsUnavailable)
{
    auto dead1 = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error);
    auto dead2 = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error);
    recommend::MidTier midtier({dead1, dead2});

    recommend::RatingQuery query{0, 0};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(recommend::kPredict, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

// --------------------------------------------------------------------
// Router mid-tier.
// --------------------------------------------------------------------

std::string
kvFound(const std::string &value)
{
    router::KvReply reply;
    reply.found = true;
    reply.value = value;
    return encodeMessage(reply);
}

TEST(RouterMidTierTest, SetSucceedsIfAnyReplicaStores)
{
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    std::vector<std::shared_ptr<ScriptedChannel>> scripted;
    for (int i = 0; i < 4; ++i) {
        auto leaf = std::make_shared<ScriptedChannel>(
            i == 0 ? ScriptedChannel::Mode::Reply
                   : ScriptedChannel::Mode::Error,
            kvFound(""));
        scripted.push_back(leaf);
        leaves.push_back(leaf);
    }
    router::MidTierOptions options;
    options.replicas = 4; // All leaves in every pool.
    router::MidTier midtier(leaves, options);

    router::KvRequest request;
    request.op = router::Op::Set;
    request.key = "k";
    request.value = "v";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
}

TEST(RouterMidTierTest, SetFailsWhenNoReplicaStores)
{
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    for (int i = 0; i < 3; ++i) {
        leaves.push_back(std::make_shared<ScriptedChannel>(
            ScriptedChannel::Mode::Error));
    }
    router::MidTier midtier(leaves);

    router::KvRequest request;
    request.op = router::Op::Set;
    request.key = "k";
    request.value = "v";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

TEST(RouterMidTierTest, GetExhaustsReplicasThenFails)
{
    std::vector<std::shared_ptr<ScriptedChannel>> scripted;
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    for (int i = 0; i < 3; ++i) {
        auto leaf = std::make_shared<ScriptedChannel>(
            ScriptedChannel::Mode::Error);
        scripted.push_back(leaf);
        leaves.push_back(leaf);
    }
    router::MidTier midtier(leaves);

    router::KvRequest request;
    request.op = router::Op::Get;
    request.key = "k";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
    // Every replica in the pool was attempted exactly once.
    int attempts = 0;
    for (const auto &leaf : scripted)
        attempts += leaf->calls;
    EXPECT_EQ(attempts, 3);
    EXPECT_EQ(midtier.failovers(), 2u);
}

// --------------------------------------------------------------------
// HDSearch mid-tier.
// --------------------------------------------------------------------

TEST(HdSearchMidTierTest, DegradedMergeSkipsBrokenLeaves)
{
    // An LSH index whose buckets are so wide that both leaves are
    // always candidates.
    LshParams params;
    params.numTables = 2;
    params.hashesPerTable = 2;
    params.bucketWidth = 1000.0f;
    auto index = std::make_unique<LshIndex>(4, params);
    const std::vector<float> point(4, 0.5f);
    index->insert(point, {0, 0});
    index->insert(point, {1, 0});

    hdsearch::LeafNNResponse healthy_response;
    healthy_response.pointIds = {0};
    healthy_response.distances = {0.25f};
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply,
        encodeMessage(healthy_response));
    auto broken = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Garbage);

    hdsearch::MidTier midtier(std::move(index), {healthy, broken});

    hdsearch::NNQuery query;
    query.features = point;
    query.k = 2;
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(hdsearch::kNearestNeighbors,
                     encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    hdsearch::NNResponse response;
    ASSERT_TRUE(decodeMessage(out.payload, response));
    ASSERT_EQ(response.pointIds.size(), 1u); // Only the healthy leaf.
    EXPECT_EQ(response.pointIds[0], hdsearch::globalPointId(0, 0));
}

// --------------------------------------------------------------------
// Multi-hop propagation contract (the three deep-DAG fixes), pinned at
// the unit level: a "leaf" channel scripted to behave like a
// downstream *mid-tier* — answering degraded, or shedding with a
// retry-after hint — must have that state survive this hop.
// --------------------------------------------------------------------

TEST(SetAlgebraMidTierTest, DownstreamDegradedFlagIsOredThrough)
{
    // Both shards answer OK, but one is itself a mid-tier that merged
    // a partial result. Before the fix this hop reported
    // degraded=false upstream because its own quorum was healthy.
    setalgebra::PostingReply degraded_reply;
    degraded_reply.docIds = {8};
    degraded_reply.degraded = true;
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({1}));
    auto degraded_mid = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, encodeMessage(degraded_reply));
    setalgebra::MidTier midtier({healthy, degraded_mid});

    setalgebra::SearchQuery query;
    query.terms = {1};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(setalgebra::kSearch, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });

    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    setalgebra::PostingReply merged;
    ASSERT_TRUE(decodeMessage(out.payload, merged));
    EXPECT_EQ(merged.docIds, (std::vector<uint32_t>{1, 8}));
    EXPECT_TRUE(merged.degraded);
}

TEST(RecommendMidTierTest, ShedLeavesPropagateMaxRetryAfter)
{
    // Every leaf sheds with a pacing hint; the mid-tier must report
    // RESOURCE_EXHAUSTED upstream carrying the *largest* hint, not a
    // hint-less Unavailable that restarts the root's backoff from
    // zero (retry amplification).
    auto slow = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Shed, "", 9'000'000);
    auto fast = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Shed, "", 5'000'000);
    recommend::MidTier midtier({slow, fast});

    recommend::RatingQuery query{0, 0};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(recommend::kPredict, encodeMessage(query),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::ResourceExhausted);
    EXPECT_EQ(out.retryAfterNs, 9'000'000);
}

TEST(RouterMidTierTest, GetPoolExhaustionKeepsShedRetryAfter)
{
    // The failover walk hits one shedding replica among dead ones;
    // pool exhaustion must surface the shed (with its hint) rather
    // than flattening everything to Unavailable.
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error));
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Shed, "", 7'000'000));
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Error));
    router::MidTier midtier(leaves);

    router::KvRequest request;
    request.op = router::Op::Get;
    request.key = "k";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::ResourceExhausted);
    EXPECT_EQ(out.retryAfterNs, 7'000'000);
}

TEST(RouterMidTierTest, SetDegradedDownstreamMidTierPropagates)
{
    // All replicas store the value, but one is a downstream mid-tier
    // that itself only reached part of *its* pool.
    router::KvReply degraded_store;
    degraded_store.found = true;
    degraded_store.degraded = true;
    std::vector<std::shared_ptr<rpc::Channel>> leaves;
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, kvFound("")));
    leaves.push_back(std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, encodeMessage(degraded_store)));
    router::MidTierOptions options;
    options.replicas = 2;
    router::MidTier midtier(leaves, options);

    router::KvRequest request;
    request.op = router::Op::Set;
    request.key = "k";
    request.value = "v";
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(router::kRoute, encodeMessage(request),
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    router::KvReply reply;
    ASSERT_TRUE(decodeMessage(out.payload, reply));
    EXPECT_TRUE(reply.degraded);
}

TEST(SetAlgebraMidTierTest, ExpiredInboundBudgetFailsFastBeforeFanout)
{
    // A 1ns inbound budget is expired by the time the handler runs;
    // the mid-tier must answer DEADLINE_EXCEEDED without issuing any
    // leaf RPC (forwarding the 1ns sentinel would re-promise time the
    // root no longer has — the depth-3 re-promise bug).
    auto leaf = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({1}));
    setalgebra::MidTier midtier({leaf});

    setalgebra::SearchQuery query;
    query.terms = {1};
    CapturedResponse out;
    rpc::Server host;
    midtier.registerWith(host);
    host.invokeLocal(setalgebra::kSearch, encodeMessage(query), 1,
                     [&out](StatusCode code, std::string_view payload,
                            int64_t retry_after) {
                         out.code = code;
                         out.payload.assign(payload.data(),
                                            payload.size());
                         out.retryAfterNs = retry_after;
                         out.responded = true;
                     });
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::DeadlineExceeded);
    EXPECT_EQ(leaf->calls, 0); // Counter: fanout.expired_before_fanout.
}

// --------------------------------------------------------------------
// An OK leg whose payload does not decode lost its answer just like a
// failed leg: the merge is flagged degraded, and when no leg decoded
// the mid-tier answers the dominant failure instead of an empty OK.
// --------------------------------------------------------------------

TEST(SetAlgebraMidTierTest, GarbledLegDegradesAndAllGarbledFails)
{
    auto good = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, postingPayload({3, 4}));
    auto garbled = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Garbage);
    setalgebra::SearchQuery query;
    query.terms = {1};

    setalgebra::MidTier partial({good, garbled});
    rpc::Server host;
    partial.registerWith(host);
    CapturedResponse out =
        invokeMidTier(host, setalgebra::kSearch, encodeMessage(query));
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    setalgebra::PostingReply merged;
    ASSERT_TRUE(decodeMessage(out.payload, merged));
    EXPECT_EQ(merged.docIds, (std::vector<uint32_t>{3, 4}));
    EXPECT_TRUE(merged.degraded);

    setalgebra::MidTier hollow({garbled, garbled});
    rpc::Server hollow_host;
    hollow.registerWith(hollow_host);
    out = invokeMidTier(hollow_host, setalgebra::kSearch,
                        encodeMessage(query));
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

TEST(HdSearchMidTierTest, GarbledLegDegradesAndAllGarbledFails)
{
    // Buckets wide enough that both leaves are always candidates.
    LshParams params;
    params.numTables = 2;
    params.hashesPerTable = 2;
    params.bucketWidth = 1000.0f;
    const std::vector<float> point(4, 0.5f);
    auto wide_index = [&] {
        auto index = std::make_unique<LshIndex>(4, params);
        index->insert(point, {0, 0});
        index->insert(point, {1, 0});
        return index;
    };
    hdsearch::LeafNNResponse healthy_response;
    healthy_response.pointIds = {0};
    healthy_response.distances = {0.25f};
    auto healthy = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, encodeMessage(healthy_response));
    auto garbled = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Garbage);
    hdsearch::NNQuery query;
    query.features = point;
    query.k = 2;

    hdsearch::MidTier partial(wide_index(), {healthy, garbled});
    rpc::Server host;
    partial.registerWith(host);
    CapturedResponse out = invokeMidTier(host, hdsearch::kNearestNeighbors,
                                         encodeMessage(query));
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    hdsearch::NNResponse response;
    ASSERT_TRUE(decodeMessage(out.payload, response));
    ASSERT_EQ(response.pointIds.size(), 1u);
    EXPECT_TRUE(response.degraded);

    hdsearch::MidTier hollow(wide_index(), {garbled, garbled});
    rpc::Server hollow_host;
    hollow.registerWith(hollow_host);
    out = invokeMidTier(hollow_host, hdsearch::kNearestNeighbors,
                        encodeMessage(query));
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

TEST(RecommendMidTierTest, GarbledLegDegradesAndAllGarbledFails)
{
    recommend::RatingReply rating;
    rating.rating = 4.0;
    auto good = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Reply, encodeMessage(rating));
    auto garbled = std::make_shared<ScriptedChannel>(
        ScriptedChannel::Mode::Garbage);
    recommend::RatingQuery query;
    query.user = 1;
    query.item = 2;

    // The garbled leg is not averaged in: the prediction is the good
    // leg's alone, flagged degraded.
    recommend::MidTier partial({good, garbled});
    rpc::Server host;
    partial.registerWith(host);
    CapturedResponse out =
        invokeMidTier(host, recommend::kPredict, encodeMessage(query));
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Ok);
    recommend::RatingReply averaged;
    ASSERT_TRUE(decodeMessage(out.payload, averaged));
    EXPECT_DOUBLE_EQ(averaged.rating, 4.0);
    EXPECT_TRUE(averaged.degraded);

    recommend::MidTier hollow({garbled, garbled});
    rpc::Server hollow_host;
    hollow.registerWith(hollow_host);
    out = invokeMidTier(hollow_host, recommend::kPredict,
                        encodeMessage(query));
    ASSERT_TRUE(out.responded);
    EXPECT_EQ(out.code, StatusCode::Unavailable);
}

TEST(RecommendProtoTest, RatingReplyRejectsTrailingBytesAndNonFinite)
{
    recommend::RatingReply reply;
    reply.rating = 3.5;
    reply.degraded = true;
    recommend::RatingReply decoded;
    ASSERT_TRUE(decodeMessage(encodeMessage(reply), decoded));
    EXPECT_DOUBLE_EQ(decoded.rating, 3.5);
    EXPECT_TRUE(decoded.degraded);

    EXPECT_FALSE(decodeMessage(encodeMessage(reply) + "x", decoded));
    reply.rating = std::nan("");
    EXPECT_FALSE(decodeMessage(encodeMessage(reply), decoded));
    reply.rating = HUGE_VAL;
    EXPECT_FALSE(decodeMessage(encodeMessage(reply), decoded));
}

} // namespace
} // namespace musuite
