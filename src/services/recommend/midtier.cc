/**
 * @file
 * Implementation of the Recommend mid-tier.
 */

#include "services/recommend/midtier.h"

#include "base/logging.h"
#include "ml/matrix.h"
#include "services/common/fanout.h"
#include "services/recommend/proto.h"

namespace musuite {
namespace recommend {

MidTier::MidTier(std::vector<std::shared_ptr<rpc::Channel>> leaves_in,
                 FanoutPolicy policy)
    : leaves(std::move(leaves_in)), fanoutPolicy(policy)
{
    MUSUITE_CHECK(!leaves.empty()) << "recommend needs leaves";
}

void
MidTier::registerWith(rpc::Server &server)
{
    server.registerHandler(kPredict, [this](rpc::ServerCallPtr call) {
        handle(std::move(call));
    });
}

void
MidTier::handle(rpc::ServerCallPtr call)
{
    if (failFastIfExpired(call))
        return;
    RatingQuery query;
    if (!decodeMessage(call->body(), query)) {
        call->respond(StatusCode::InvalidArgument, "bad rating query");
        return;
    }
    served.fetch_add(1, std::memory_order_relaxed);

    // Request path: forward the pair to every leaf.
    std::vector<FanoutRequest> requests;
    requests.reserve(leaves.size());
    for (auto &leaf : leaves) {
        FanoutRequest request;
        request.channel = leaf.get();
        request.body = call->body();
        requests.push_back(std::move(request));
    }

    // Response path: average of the ratings received from leaves. May
    // run inline on this thread (fanoutCall threading contract).
    const FanoutOptions fanout_options = fanoutPolicy.resolve(
        requests.size(), call->remainingBudgetNs());
    fanoutCall(kLeafPredict, std::move(requests), fanout_options,
               [this, call](FanoutOutcome outcome) {
                   double sum = 0.0;
                   uint32_t answered = 0;
                   bool partial = outcome.degraded;
                   for (const LeafResult &result : outcome.results) {
                       if (!result.status.isOk())
                           continue;
                       RatingReply reply;
                       if (!decodeMessage(result.payload, reply)) {
                           partial = true; // An OK leg's answer lost.
                           continue;
                       }
                       sum += reply.rating;
                       ++answered;
                       // OR through a downstream mid-tier's own
                       // degraded answer (multi-hop propagation).
                       partial |= reply.degraded;
                   }
                   if (answered == 0) {
                       respondFailure(
                           call, dominantFailure(outcome.results,
                                                 "no leaf predictions"));
                       return;
                   }
                   RatingReply averaged;
                   averaged.rating = sum / double(answered);
                   averaged.degraded = partial;
                   if (averaged.degraded)
                       degraded.fetch_add(1,
                                          std::memory_order_relaxed);
                   call->respondOk(encodeMessage(averaged));
               });
}

std::vector<SparseRatings>
shardRatings(const SparseRatings &all, uint32_t num_leaves)
{
    MUSUITE_CHECK(num_leaves >= 1) << "need >= 1 leaf";
    std::vector<std::vector<Rating>> buckets(num_leaves);
    const auto &observed = all.observed();
    for (size_t i = 0; i < observed.size(); ++i)
        buckets[i % num_leaves].push_back(observed[i]);

    std::vector<SparseRatings> shards;
    shards.reserve(num_leaves);
    for (auto &bucket : buckets) {
        shards.emplace_back(all.userCount(), all.itemCount(),
                            std::move(bucket));
    }
    return shards;
}

} // namespace recommend
} // namespace musuite
