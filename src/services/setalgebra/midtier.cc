/**
 * @file
 * Implementation of the Set Algebra mid-tier.
 */

#include "services/setalgebra/midtier.h"

#include "base/logging.h"
#include "index/postings.h"
#include "services/common/fanout.h"
#include "services/setalgebra/proto.h"

namespace musuite {
namespace setalgebra {

MidTier::MidTier(std::vector<std::shared_ptr<rpc::Channel>> leaves_in,
                 FanoutPolicy policy)
    : leaves(std::move(leaves_in)), fanoutPolicy(policy)
{
    MUSUITE_CHECK(!leaves.empty()) << "set algebra needs leaves";
}

void
MidTier::registerWith(rpc::Server &server)
{
    server.registerHandler(kSearch, [this](rpc::ServerCallPtr call) {
        handle(std::move(call));
    });
}

void
MidTier::handle(rpc::ServerCallPtr call)
{
    if (failFastIfExpired(call))
        return;
    SearchQuery query;
    if (!decodeMessage(call->body(), query) || query.terms.empty()) {
        call->respond(StatusCode::InvalidArgument, "bad search query");
        return;
    }
    served.fetch_add(1, std::memory_order_relaxed);

    // Request path: forward the terms to every leaf shard.
    std::vector<FanoutRequest> requests;
    requests.reserve(leaves.size());
    for (auto &leaf : leaves) {
        FanoutRequest request;
        request.channel = leaf.get();
        request.body = call->body(); // Same SearchQuery shape.
        requests.push_back(std::move(request));
    }

    // Response path: set union over the per-shard intersections. May
    // run inline on this thread (fanoutCall threading contract).
    const FanoutOptions fanout_options = fanoutPolicy.resolve(
        requests.size(), call->remainingBudgetNs());
    fanoutCall(kIntersect, std::move(requests), fanout_options,
               [this, call](FanoutOutcome outcome) {
                   std::vector<std::vector<uint32_t>> lists;
                   lists.reserve(outcome.results.size());
                   bool partial = outcome.degraded;
                   for (const LeafResult &result : outcome.results) {
                       if (!result.status.isOk())
                           continue; // Degraded result set.
                       PostingReply reply;
                       if (!decodeMessage(result.payload, reply)) {
                           partial = true; // An OK leg's answer lost.
                           continue;
                       }
                       lists.push_back(std::move(reply.docIds));
                       // A shard that is itself a mid-tier may answer
                       // degraded; OR it through so depth-N callers
                       // see it.
                       partial |= reply.degraded;
                   }
                   if (lists.empty()) {
                       // Nothing merged: surface the dominant failure
                       // (and a shedding shard's retry-after) instead
                       // of a hollow OK.
                       respondFailure(
                           call, dominantFailure(outcome.results,
                                                 "no shard answered"));
                       return;
                   }
                   PostingReply merged;
                   merged.docIds = unionAll(lists);
                   merged.degraded = partial;
                   if (merged.degraded)
                       degraded.fetch_add(1,
                                          std::memory_order_relaxed);
                   call->respondOk(encodeMessage(merged));
               });
}

} // namespace setalgebra
} // namespace musuite
