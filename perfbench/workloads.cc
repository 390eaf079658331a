/**
 * @file
 * Router, Set Algebra and HDSearch workloads.
 */

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <optional>

#include "base/rng.h"
#include "base/time_util.h"
#include "dataset/datasets.h"
#include "index/lsh.h"
#include "index/postings.h"
#include "kv/mucache.h"
#include "services/hdsearch/midtier.h"
#include "services/router/midtier.h"

namespace perfbench {

using namespace musuite;

double
timePerItemUs(size_t items, int reps, const std::function<void()> &fn)
{
    std::vector<double> per_item;
    for (int r = 0; r < reps; ++r) {
        const int64_t t0 = nowNanos();
        fn();
        per_item.push_back(double(nowNanos() - t0) / 1e3 /
                           double(std::max<size_t>(1, items)));
    }
    std::sort(per_item.begin(), per_item.end());
    return per_item[per_item.size() / 2];
}

void
keepResult(size_t value)
{
    static std::atomic<size_t> sink{0};
    sink.fetch_add(value, std::memory_order_relaxed);
}

void
Workload::shuffleOrder(uint64_t seed)
{
    roundOrder.resize(bodies.size());
    for (uint32_t i = 0; i < roundOrder.size(); ++i)
        roundOrder[i] = i;
    Rng rng(seed ^ 0x6F726465720A0000ull);
    std::shuffle(roundOrder.begin(), roundOrder.end(), rng);
}

namespace {

double
seconds(int64_t t0)
{
    return double(nowNanos() - t0) / 1e9;
}

template <typename Message>
Message
decodeOrDefault(std::string_view payload)
{
    Message message;
    if (!decodeMessage(payload, message))
        return Message{};
    return message;
}

// --------------------------------------------------------------------
// Router: 16 leaves x 3 replicas, YCSB-A-like 50/50 get/set over Zipf
// keys. Every key is prepopulated, so every get must hit.
// --------------------------------------------------------------------

class RouterWorkload : public Workload
{
  public:
    static constexpr size_t kKeys = 100'000;
    static constexpr size_t kPool = 2000;

    RouterWorkload()
    {
        opts.kv.numKeys = kKeys;
        opts.prepopulateKeys = kKeys;
    }

    ServiceKind kind() const override { return ServiceKind::Router; }
    uint32_t leafMethod() const override { return router::kLeafOp; }
    double openLoopQps() const override { return 5000.0; }

    void
    prepare(uint64_t seed) override
    {
        const int64_t t0 = nowNanos();
        const KvWorkload workload(opts.kv);
        for (size_t i = 0; i < workload.keyCount(); ++i)
            (void)workload.valueFor(workload.keyAt(i));
        generateS = seconds(t0);

        Rng rng(seed);
        for (size_t i = 0; i < kPool; ++i) {
            const KvOp op = workload.sampleOp(rng);
            router::KvRequest request;
            request.op = op.isGet ? router::Op::Get : router::Op::Set;
            request.key = op.key;
            request.value = op.value;
            bodies.push_back(encodeMessage(request));
            keys.push_back(op.key);
            gets.push_back(op.isGet);
            expected.push_back(expectedKvValue(op.key, opts.kv.valueBytes));
        }
        shuffleOrder(seed);
        std::cout << "pool: " << kPool << " ops over " << kKeys
                  << " prepopulated keys, "
                  << std::count(gets.begin(), gets.end(), true)
                  << " gets\n";
    }

    void
    attach(ServiceDeployment &deployment) override
    {
        // Only the replica-pool arithmetic is used, which needs the
        // leaf count and no channel; holding none keeps the
        // deployment's clients from outliving it.
        routing.emplace(std::vector<std::shared_ptr<rpc::Channel>>(
                            deployment.leafCount()),
                        opts.routerMidTier);
    }

    Check
    check(size_t i, std::string_view payload) const override
    {
        router::KvReply reply;
        if (!decodeMessage(payload, reply))
            return Check::wrong("undecodable reply");
        return gets[i] ? checkKvGet(expected[i], reply) : checkKvSet(reply);
    }

    bool isGet(size_t i) const override { return gets[i]; }

    std::vector<Leg>
    legs(size_t i) const override
    {
        const std::vector<uint32_t> pool = routing->replicaPool(keys[i]);
        std::vector<Leg> out;
        for (size_t r = 0; r < (gets[i] ? 1 : pool.size()); ++r)
            out.push_back({pool[r], bodies[i]});
        return out;
    }

    void
    probeLayers(const std::vector<std::string> &responses,
                Metrics &out) override
    {
        out["dataset.generate_s"] = generateS;

        MuCache cache;
        const KvWorkload workload(opts.kv);
        for (size_t i = 0; i < workload.keyCount(); ++i) {
            const std::string key = workload.keyAt(i);
            cache.set(key, workload.valueFor(key));
        }
        std::vector<size_t> get_ids, set_ids;
        for (size_t i = 0; i < kPool; ++i)
            (gets[i] ? get_ids : set_ids).push_back(i);
        size_t sink = 0;
        out["kv.get_us"] = timePerItemUs(get_ids.size(), 5, [&] {
            for (size_t i : get_ids)
                sink += cache.get(keys[i]).has_value();
        });
        out["kv.set_us"] = timePerItemUs(set_ids.size(), 5, [&] {
            for (size_t i : set_ids)
                sink += cache.set(keys[i], expected[i]);
        });
        out["hash.route_us"] = timePerItemUs(kPool, 5, [&] {
            for (size_t i = 0; i < kPool; ++i)
                sink += routing->replicaPool(keys[i]).size();
        });

        size_t hits = 0;
        for (size_t i : get_ids)
            hits += decodeOrDefault<router::KvReply>(responses[i]).found;
        out["kv.get_hit_ratio"] = double(hits) / double(get_ids.size());

        std::vector<router::KvRequest> requests(kPool);
        for (size_t i = 0; i < kPool; ++i)
            (void)decodeMessage(bodies[i], requests[i]);
        out["serde.encode_us"] = timePerItemUs(kPool, 5, [&] {
            for (const auto &request : requests)
                sink += encodeMessage(request).size();
        });
        out["serde.decode_us"] = timePerItemUs(kPool, 5, [&] {
            router::KvReply reply;
            for (const std::string &payload : responses)
                sink += decodeMessage(payload, reply);
        });
        keepResult(sink);
    }

  private:
    double generateS = 0.0;
    std::vector<std::string> keys;
    std::vector<bool> gets;
    std::vector<std::string> expected;
    std::optional<router::MidTier> routing;
};

// --------------------------------------------------------------------
// Set Algebra: 4 shards over a corpus large enough that posting-list
// intersection dominates a request. The pool is drawn with a fixed
// seed, so the queries hit by the stop-list fault are the same in
// every run; the run's seed only orders them.
// --------------------------------------------------------------------

class SetAlgebraWorkload : public Workload
{
  public:
    static constexpr size_t kPool = 1000;
    static constexpr uint64_t kPoolSeed = 0x5E7A16EB;

    SetAlgebraWorkload()
    {
        // 20000 docs of ~200 terms: set-up is index work, answers are
        // hundreds of doc ids, and with a 64-term stop list the shards
        // still disagree on a few boundary terms.
        opts.corpus.numDocuments = 20000;
        opts.corpus.meanDocLength = 200;
        opts.stopTerms = 64;
    }

    ServiceKind kind() const override { return ServiceKind::SetAlgebra; }
    uint32_t leafMethod() const override { return setalgebra::kIntersect; }
    double openLoopQps() const override { return 3000.0; }

    void
    prepare(uint64_t seed) override
    {
        const int64_t t0 = nowNanos();
        corpus.emplace(opts.corpus);
        generateS = seconds(t0);
        const CorpusOracle oracle(corpus->documents(), opts.leafShards,
                                  opts.stopTerms);

        Rng rng(kPoolSeed);
        size_t faulty = 0, empty = 0;
        for (size_t i = 0; i < kPool; ++i) {
            setalgebra::SearchQuery query;
            query.terms = corpus->sampleQuery(rng);
            bodies.push_back(encodeMessage(query));
            expected.push_back(oracle.expect(query.terms));
            terms.push_back(std::move(query.terms));
            faulty += expected.back().exact != expected.back().perShard;
            empty += expected.back().exact.empty();
        }
        shuffleOrder(seed);
        std::cout << "pool: " << kPool << " queries over "
                  << opts.corpus.numDocuments << " docs, " << empty
                  << " with empty answers, " << faulty
                  << " hit by the per-shard stop-list fault ("
                  << oracle.disputedStopTerms() << " disputed stop terms)\n";
    }

    Check
    check(size_t i, std::string_view payload) const override
    {
        setalgebra::PostingReply reply;
        if (!decodeMessage(payload, reply))
            return Check::wrong("undecodable reply");
        return checkSearch(expected[i], reply);
    }

    std::vector<Leg>
    legs(size_t i) const override
    {
        std::vector<Leg> out;
        for (uint32_t s = 0; s < opts.leafShards; ++s)
            out.push_back({s, bodies[i]});
        return out;
    }

    void
    probeLayers(const std::vector<std::string> &responses,
                Metrics &out) override
    {
        out["dataset.generate_s"] = generateS;

        // The deployment's sharding: documents round-robin, global ids.
        const uint32_t shards = opts.leafShards;
        std::vector<std::vector<std::vector<uint32_t>>> shard_docs(shards);
        std::vector<std::vector<uint32_t>> shard_ids(shards);
        const auto &docs = corpus->documents();
        for (uint32_t d = 0; d < docs.size(); ++d) {
            shard_docs[d % shards].push_back(docs[d]);
            shard_ids[d % shards].push_back(d);
        }
        const int64_t t0 = nowNanos();
        std::vector<std::unique_ptr<InvertedIndex>> index;
        for (uint32_t s = 0; s < shards; ++s) {
            index.push_back(std::make_unique<InvertedIndex>(
                shard_docs[s], shard_ids[s], opts.stopTerms));
        }
        out["index.build_s"] = seconds(t0);

        size_t sink = 0;
        std::vector<std::vector<std::vector<uint32_t>>> partial(kPool);
        out["index.intersect_us"] = timePerItemUs(kPool, 3, [&] {
            for (size_t i = 0; i < kPool; ++i) {
                partial[i].clear();
                for (const auto &shard : index)
                    partial[i].push_back(shard->intersectTerms(terms[i]));
            }
        });
        out["index.union_us"] = timePerItemUs(kPool, 3, [&] {
            for (size_t i = 0; i < kPool; ++i)
                sink += unionAll(partial[i]).size();
        });
        double docs_total = 0;
        for (const std::string &payload : responses)
            docs_total += double(
                decodeOrDefault<setalgebra::PostingReply>(payload).docIds.size());
        out["index.result_docs_per_req"] = docs_total / double(kPool);

        std::vector<setalgebra::SearchQuery> queries(kPool);
        for (size_t i = 0; i < kPool; ++i)
            queries[i].terms = terms[i];
        out["serde.encode_us"] = timePerItemUs(kPool, 5, [&] {
            for (const auto &query : queries)
                sink += encodeMessage(query).size();
        });
        out["serde.decode_us"] = timePerItemUs(kPool, 5, [&] {
            setalgebra::PostingReply reply;
            for (const std::string &payload : responses)
                sink += decodeMessage(payload, reply);
        });
        keepResult(sink);
    }

  private:
    double generateS = 0.0;
    std::optional<TextCorpus> corpus;
    std::vector<std::vector<uint32_t>> terms;
    std::vector<SearchExpectation> expected;
};

// --------------------------------------------------------------------
// HDSearch: 4 shards. The mid-tier runs an LSH lookup, then fans the
// query vector out with each leaf's candidate ids; leaves scan them.
// --------------------------------------------------------------------

class HdSearchWorkload : public Workload
{
  public:
    static constexpr size_t kPool = 500;
    static constexpr size_t kRecallQueries = 100;

    HdSearchWorkload()
    {
        // 20000 x 128 with 6 hashes per table: ~400 candidates per
        // query and recall near 0.9. The default 10 hashes leave ~14
        // candidates and recall near 0.2 at this size.
        opts.gmm.numVectors = 20000;
        opts.lsh.hashesPerTable = 6;
    }

    ServiceKind kind() const override { return ServiceKind::HdSearch; }
    uint32_t leafMethod() const override { return hdsearch::kLeafDistance; }
    double openLoopQps() const override { return 1200.0; }

    void
    prepare(uint64_t seed) override
    {
        int64_t t0 = nowNanos();
        data.emplace(opts.gmm);
        generateS = seconds(t0);
        t0 = nowNanos();
        built = hdsearch::buildShardedIndex(data->vectors(), opts.leafShards,
                                            opts.lsh);
        buildS = seconds(t0);

        Rng rng(seed);
        size_t total_candidates = 0;
        for (size_t i = 0; i < kPool; ++i) {
            hdsearch::NNQuery query;
            query.features = data->sampleQuery(rng);
            query.k = opts.searchK;
            bodies.push_back(encodeMessage(query));
            candidates.push_back(built.midTierIndex->query(query.features));
            expected.push_back(exactTopK(data->vectors(), opts.leafShards,
                                         query.features, candidates.back(),
                                         opts.searchK));
            for (const auto &[leaf, ids] : candidates.back())
                total_candidates += ids.size();
            queries.push_back(std::move(query.features));
        }
        meanCandidates = double(total_candidates) / double(kPool);
        shuffleOrder(seed);
        std::cout << "pool: " << kPool << " queries over "
                  << opts.gmm.numVectors << "x" << opts.gmm.dimension
                  << " vectors, " << meanCandidates
                  << " LSH candidates per query\n";
    }

    Check
    check(size_t i, std::string_view payload) const override
    {
        hdsearch::NNResponse reply;
        if (!decodeMessage(payload, reply))
            return Check::wrong("undecodable reply");
        return checkNN(data->vectors(), opts.leafShards, queries[i],
                       expected[i], reply);
    }

    std::vector<Leg>
    legs(size_t i) const override
    {
        std::vector<Leg> out;
        for (const auto &[leaf, ids] : candidates[i]) {
            hdsearch::LeafNNRequest request;
            request.features = queries[i];
            request.candidates = ids;
            request.k = opts.searchK;
            out.push_back({leaf, encodeMessage(request)});
        }
        return out;
    }

    void
    probeLayers(const std::vector<std::string> &responses,
                Metrics &out) override
    {
        out["dataset.generate_s"] = generateS;
        out["index.build_s"] = buildS;
        out["index.candidates_per_req"] = meanCandidates;

        size_t sink = 0;
        out["index.lsh_query_us"] = timePerItemUs(kPool, 3, [&] {
            for (const auto &query : queries)
                sink += built.midTierIndex->query(query).size();
        });
        std::vector<BruteForceScanner> scanners;
        for (const FeatureStore &shard : built.leafShards)
            scanners.emplace_back(shard);
        out["index.topk_us"] = timePerItemUs(kPool, 3, [&] {
            for (size_t i = 0; i < kPool; ++i) {
                for (const auto &[leaf, ids] : candidates[i])
                    sink += scanners[leaf]
                                .topKOf(queries[i], ids, opts.searchK)
                                .size();
            }
        });

        // Recall of the service's answers against a full scan.
        const FeatureStore &vectors = data->vectors();
        double found = 0, wanted = 0;
        for (size_t i = 0; i < kRecallQueries; ++i) {
            std::vector<std::pair<float, uint64_t>> all;
            for (uint64_t row = 0; row < vectors.size(); ++row)
                all.push_back({referenceSquaredL2(queries[i], vectors.view(row)), row});
            const size_t k = std::min<size_t>(opts.searchK, all.size());
            std::partial_sort(all.begin(), all.begin() + k, all.end());
            const auto reply = decodeOrDefault<hdsearch::NNResponse>(responses[i]);
            for (size_t j = 0; j < k; ++j) {
                for (uint64_t id : reply.pointIds)
                    found += datasetRow(id, opts.leafShards) == all[j].second;
            }
            wanted += double(k);
        }
        out["index.recall_at_k"] = found / wanted;

        std::vector<hdsearch::NNQuery> requests(kPool);
        for (size_t i = 0; i < kPool; ++i)
            (void)decodeMessage(bodies[i], requests[i]);
        out["serde.encode_us"] = timePerItemUs(kPool, 5, [&] {
            for (const auto &request : requests)
                sink += encodeMessage(request).size();
        });
        out["serde.decode_us"] = timePerItemUs(kPool, 5, [&] {
            hdsearch::NNResponse reply;
            for (const std::string &payload : responses)
                sink += decodeMessage(payload, reply);
        });
        keepResult(sink);
    }

  private:
    double generateS = 0.0;
    double buildS = 0.0;
    double meanCandidates = 0.0;
    std::optional<GmmDataset> data;
    hdsearch::BuiltIndex built;
    std::vector<std::vector<float>> queries;
    std::vector<std::unordered_map<uint32_t, std::vector<uint32_t>>> candidates;
    std::vector<NNExpectation> expected;
};

} // namespace

std::unique_ptr<Workload>
Workload::make(std::string_view name)
{
    if (name == "router")
        return std::make_unique<RouterWorkload>();
    if (name == "setalgebra")
        return std::make_unique<SetAlgebraWorkload>();
    if (name == "hdsearch")
        return std::make_unique<HdSearchWorkload>();
    return nullptr;
}

} // namespace perfbench
