/**
 * @file
 * Implementation of the HDSearch mid-tier.
 */

#include "services/hdsearch/midtier.h"

#include "base/logging.h"
#include "services/common/fanout.h"
#include "services/hdsearch/proto.h"

namespace musuite {
namespace hdsearch {

MidTier::MidTier(std::unique_ptr<LshIndex> index,
                 std::vector<std::shared_ptr<rpc::Channel>> leaves_in,
                 FanoutPolicy policy)
    : lsh(std::move(index)), leaves(std::move(leaves_in)),
      fanoutPolicy(policy)
{
    MUSUITE_CHECK(!leaves.empty()) << "mid-tier needs leaves";
}

void
MidTier::registerWith(rpc::Server &server)
{
    server.registerHandler(kNearestNeighbors,
                           [this](rpc::ServerCallPtr call) {
                               handle(std::move(call));
                           });
}

void
MidTier::handle(rpc::ServerCallPtr call)
{
    if (failFastIfExpired(call))
        return;
    NNQuery query;
    if (!decodeMessage(call->body(), query) || query.k == 0) {
        call->respond(StatusCode::InvalidArgument, "bad NN query");
        return;
    }
    served.fetch_add(1, std::memory_order_relaxed);

    // Request path step 1-2: LSH lookup, point ids grouped by leaf.
    auto candidates = lsh->query(query.features);
    if (candidates.empty()) {
        // No bucket hits anywhere: legitimately empty result.
        call->respondOk(encodeMessage(NNResponse{}));
        return;
    }

    // Step 3: launch asynchronous clients to the leaf microservers.
    std::vector<FanoutRequest> requests;
    requests.reserve(candidates.size());
    for (auto &[leaf, point_ids] : candidates) {
        if (leaf >= leaves.size()) {
            MUSUITE_WARN() << "LSH entry references unknown leaf "
                           << leaf;
            continue;
        }
        LeafNNRequest leaf_request;
        leaf_request.features = query.features;
        leaf_request.candidates = std::move(point_ids);
        leaf_request.k = query.k;
        FanoutRequest request;
        request.channel = leaves[leaf].get();
        request.body = encodeMessage(leaf_request);
        request.tag = leaf;
        requests.push_back(std::move(request));
    }
    if (requests.empty()) {
        call->respondOk(encodeMessage(NNResponse{}));
        return;
    }

    // Response path: merge distance-sorted leaf lists into the global
    // top-k. Runs on the thread of the completing leaf response (see
    // the fanoutCall threading contract: possibly this very thread).
    const uint32_t k = query.k;
    std::vector<uint32_t> tags;
    tags.reserve(requests.size());
    for (const FanoutRequest &request : requests)
        tags.push_back(request.tag);

    const FanoutOptions fanout_options = fanoutPolicy.resolve(
        requests.size(), call->remainingBudgetNs());
    fanoutCall(kLeafDistance, std::move(requests), fanout_options,
               [this, call, k,
                tags = std::move(tags)](FanoutOutcome outcome) {
                   std::vector<std::vector<Neighbor>> lists;
                   lists.reserve(outcome.results.size());
                   bool partial = outcome.degraded;
                   for (size_t i = 0; i < outcome.results.size(); ++i) {
                       if (!outcome.results[i].status.isOk())
                           continue; // Degraded: merge what arrived.
                       LeafNNResponse leaf_response;
                       if (!decodeMessage(outcome.results[i].payload,
                                          leaf_response)) {
                           partial = true; // An OK leg's answer lost.
                           continue;
                       }
                       // OR through a downstream mid-tier's degraded
                       // flag (multi-hop propagation).
                       partial |= leaf_response.degraded;
                       std::vector<Neighbor> list;
                       list.reserve(leaf_response.pointIds.size());
                       for (size_t j = 0;
                            j < leaf_response.pointIds.size(); ++j) {
                           list.push_back(
                               {globalPointId(tags[i],
                                              leaf_response.pointIds[j]),
                                leaf_response.distances[j]});
                       }
                       lists.push_back(std::move(list));
                   }
                   if (lists.empty()) {
                       // No shard contributed: report the dominant
                       // failure (keeping a shedder's retry-after)
                       // rather than an empty OK.
                       respondFailure(
                           call, dominantFailure(outcome.results,
                                                 "no shard answered"));
                       return;
                   }

                   const auto merged = mergeTopK(lists, k);
                   NNResponse response;
                   response.pointIds.reserve(merged.size());
                   response.distances.reserve(merged.size());
                   for (const Neighbor &neighbor : merged) {
                       response.pointIds.push_back(neighbor.id);
                       response.distances.push_back(neighbor.distance);
                   }
                   response.degraded = partial;
                   if (response.degraded)
                       degraded.fetch_add(1,
                                          std::memory_order_relaxed);
                   call->respondOk(encodeMessage(response));
               });
}

BuiltIndex
buildShardedIndex(const FeatureStore &store, uint32_t num_leaves,
                  LshParams params)
{
    MUSUITE_CHECK(num_leaves >= 1) << "need >= 1 leaf";
    BuiltIndex built;
    built.midTierIndex =
        std::make_unique<LshIndex>(store.dimension(), params);
    for (uint32_t leaf = 0; leaf < num_leaves; ++leaf)
        built.leafShards.emplace_back(store.dimension());

    for (uint64_t i = 0; i < store.size(); ++i) {
        const uint32_t leaf = uint32_t(i % num_leaves);
        const uint32_t local =
            uint32_t(built.leafShards[leaf].add(store.view(i)));
        built.midTierIndex->insert(store.view(i), {leaf, local});
    }
    return built;
}

} // namespace hdsearch
} // namespace musuite
