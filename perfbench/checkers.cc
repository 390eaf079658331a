/**
 * @file
 * Answer checkers and their self-test.
 */

#include "checkers.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace perfbench {

using musuite::FeatureStore;
namespace router = musuite::router;
namespace setalgebra = musuite::setalgebra;
namespace hdsearch = musuite::hdsearch;

// --------------------------------------------------------------------
// Router
// --------------------------------------------------------------------

std::string
expectedKvValue(std::string_view key, size_t value_bytes)
{
    uint64_t state = 0xCBF29CE484222325ull; // FNV-1a offset basis.
    for (char c : key)
        state = (state ^ uint8_t(c)) * 0x100000001B3ull;
    std::string value(value_bytes, '\0');
    for (char &letter : value) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        letter = char('a' + state % 26);
    }
    return value;
}

Check
checkKvGet(std::string_view expected, const router::KvReply &reply)
{
    if (!reply.found)
        return Check::wrong("prepopulated key not found");
    if (reply.value != expected)
        return Check::wrong("get returned a wrong value");
    if (reply.degraded)
        return Check::wrong("get flagged degraded");
    return Check::ok();
}

Check
checkKvSet(const router::KvReply &reply)
{
    if (!reply.found)
        return Check::wrong("set not stored");
    if (reply.degraded)
        return Check::wrong("set stored on fewer than all replicas");
    return Check::ok();
}

// --------------------------------------------------------------------
// Set Algebra
// --------------------------------------------------------------------

CorpusOracle::CorpusOracle(
    const std::vector<std::vector<uint32_t>> &documents, uint32_t shards,
    size_t stop_terms)
    : words((documents.size() + 63) / 64), allDocs(words, 0),
      shardDocs(shards, Bitmap(words, 0)), shardStop(shards)
{
    std::vector<const std::vector<uint32_t> *> all;
    std::vector<std::vector<const std::vector<uint32_t> *>> by_shard(shards);
    for (size_t d = 0; d < documents.size(); ++d) {
        const uint64_t bit = uint64_t(1) << (d % 64);
        for (uint32_t term : documents[d]) {
            Bitmap &row = incidence[term];
            row.resize(words, 0);
            row[d / 64] |= bit;
        }
        allDocs[d / 64] |= bit;
        shardDocs[d % shards][d / 64] |= bit;
        all.push_back(&documents[d]);
        by_shard[d % shards].push_back(&documents[d]);
    }
    corpusStop = topTerms(all, stop_terms);
    for (uint32_t s = 0; s < shards; ++s)
        shardStop[s] = topTerms(by_shard[s], stop_terms);
}

CorpusOracle::StopList
CorpusOracle::topTerms(const std::vector<const std::vector<uint32_t> *> &docs,
                       size_t stop_terms)
{
    // Occurrence counts; ties go to the larger term id.
    std::map<uint32_t, uint64_t> count;
    for (const auto *doc : docs) {
        for (uint32_t term : *doc)
            ++count[term];
    }
    std::vector<std::pair<uint64_t, uint32_t>> ranked;
    for (const auto &[term, n] : count)
        ranked.push_back({n, term});
    std::sort(ranked.rbegin(), ranked.rend());
    StopList out;
    for (size_t i = 0; i < std::min(stop_terms, ranked.size()); ++i)
        out.insert(ranked[i].second);
    return out;
}

CorpusOracle::Bitmap
CorpusOracle::match(std::span<const uint32_t> terms, const StopList &stop,
                    const Bitmap &scope) const
{
    Bitmap acc = scope;
    bool selective = false;
    for (uint32_t term : terms) {
        if (stop.count(term))
            continue;
        selective = true;
        const auto it = incidence.find(term);
        for (size_t w = 0; w < words; ++w)
            acc[w] &= it == incidence.end() ? 0 : it->second[w];
    }
    if (!selective)
        acc.assign(words, 0); // Only stop words: no selectivity, no answer.
    return acc;
}

std::vector<uint32_t>
CorpusOracle::docsOf(const Bitmap &bits)
{
    std::vector<uint32_t> out;
    for (size_t w = 0; w < bits.size(); ++w) {
        for (uint64_t word = bits[w]; word != 0; word &= word - 1)
            out.push_back(uint32_t(w * 64 + size_t(__builtin_ctzll(word))));
    }
    return out;
}

SearchExpectation
CorpusOracle::expect(std::span<const uint32_t> terms) const
{
    Bitmap per_shard(words, 0);
    for (size_t s = 0; s < shardDocs.size(); ++s) {
        const Bitmap part = match(terms, shardStop[s], shardDocs[s]);
        for (size_t w = 0; w < words; ++w)
            per_shard[w] |= part[w];
    }
    return {docsOf(match(terms, corpusStop, allDocs)), docsOf(per_shard)};
}

size_t
CorpusOracle::disputedStopTerms() const
{
    std::unordered_set<uint32_t> disputed;
    for (const StopList &stop : shardStop) {
        for (uint32_t term : stop) {
            if (!corpusStop.count(term))
                disputed.insert(term);
        }
        for (uint32_t term : corpusStop) {
            if (!stop.count(term))
                disputed.insert(term);
        }
    }
    return disputed.size();
}

Check
checkSearch(const SearchExpectation &expected,
            const setalgebra::PostingReply &reply)
{
    if (reply.degraded)
        return Check::wrong("search flagged degraded");
    if (reply.docIds == expected.exact)
        return Check::ok();
    if (reply.docIds == expected.perShard)
        return {Verdict::Fault, "per-shard stop lists disagree"};
    std::ostringstream why;
    why << "search returned " << reply.docIds.size() << " docs, expected "
        << expected.exact.size();
    return Check::wrong(why.str());
}

// --------------------------------------------------------------------
// HDSearch
// --------------------------------------------------------------------

float
referenceSquaredL2(std::span<const float> a, std::span<const float> b)
{
    float sum = 0.0f;
    for (size_t i = 0; i < a.size(); ++i) {
        const float d = a[i] - b[i];
        sum += d * d;
    }
    return sum;
}

uint64_t
datasetRow(uint64_t global_id, uint32_t shards)
{
    const uint64_t leaf = global_id >> 32;
    const uint64_t local = global_id & 0xFFFFFFFFull;
    return local * shards + leaf;
}

NNExpectation
exactTopK(const FeatureStore &data, uint32_t shards,
          std::span<const float> query,
          const std::unordered_map<uint32_t, std::vector<uint32_t>> &candidates,
          size_t k)
{
    std::vector<std::pair<float, uint64_t>> scored;
    for (const auto &[leaf, locals] : candidates) {
        for (uint32_t local : locals) {
            const uint64_t id = hdsearch::globalPointId(leaf, local);
            const uint64_t row = datasetRow(id, shards);
            if (row < data.size())
                scored.push_back({referenceSquaredL2(query, data.view(row)), id});
        }
    }
    std::sort(scored.begin(), scored.end());
    NNExpectation out;
    for (size_t i = 0; i < std::min(k, scored.size()); ++i) {
        out.ids.push_back(scored[i].second);
        out.distances.push_back(scored[i].first);
    }
    return out;
}

Check
checkNN(const FeatureStore &data, uint32_t shards, std::span<const float> query,
        const NNExpectation &expected, const hdsearch::NNResponse &reply)
{
    if (reply.degraded)
        return Check::wrong("search flagged degraded");
    if (reply.pointIds.size() != reply.distances.size())
        return Check::wrong("ids and distances differ in length");
    for (size_t i = 0; i < reply.pointIds.size(); ++i) {
        const uint64_t row = datasetRow(reply.pointIds[i], shards);
        if (row >= data.size())
            return Check::wrong("point id outside the data set");
        if (reply.distances[i] != referenceSquaredL2(query, data.view(row)))
            return Check::wrong("distance differs from the recomputed one");
        if (i > 0 && reply.distances[i] < reply.distances[i - 1])
            return Check::wrong("neighbours not sorted by distance");
    }
    if (reply.pointIds != expected.ids || reply.distances != expected.distances)
        return Check::wrong("not the exact top-k of the LSH candidates");
    return Check::ok();
}

// --------------------------------------------------------------------
// Self-test: every checker must reject every corruption.
// --------------------------------------------------------------------

namespace {

struct SelfTest
{
    std::ostringstream log;
    int failures = 0;

    void
    expect(const char *name, const Check &got, Verdict want)
    {
        const bool pass = got.verdict == want;
        failures += pass ? 0 : 1;
        log << (pass ? "  pass  " : "  FAIL  ") << name;
        if (!got.why.empty())
            log << "  (" << got.why << ")";
        log << "\n";
    }
};

void
routerCases(SelfTest &t)
{
    const std::string key = "user1000000042";
    const std::string value = expectedKvValue(key, 32);
    router::KvReply good;
    good.found = true;
    good.value = value;
    t.expect("kv get: right value", checkKvGet(value, good), Verdict::Ok);

    router::KvReply bad = good;
    bad.value[5] = bad.value[5] == 'a' ? 'b' : 'a';
    t.expect("kv get: wrong value", checkKvGet(value, bad), Verdict::Wrong);
    bad = good;
    bad.value.pop_back();
    t.expect("kv get: short value", checkKvGet(value, bad), Verdict::Wrong);
    bad = good;
    bad.found = false;
    bad.value.clear();
    t.expect("kv get: missing key", checkKvGet(value, bad), Verdict::Wrong);
    bad = good;
    bad.degraded = true;
    t.expect("kv get: degraded", checkKvGet(value, bad), Verdict::Wrong);

    router::KvReply stored;
    stored.found = true;
    t.expect("kv set: stored", checkKvSet(stored), Verdict::Ok);
    stored.found = false;
    t.expect("kv set: not stored", checkKvSet(stored), Verdict::Wrong);
}

void
searchCases(SelfTest &t)
{
    // Two shards (even / odd doc ids), one stop word each. Term 9 is
    // the corpus-wide stop word; shard 1 counts term 8 more often.
    const std::vector<std::vector<uint32_t>> docs = {
        {1, 2, 9, 9, 9}, {1, 2, 8, 8, 8, 8}, {1, 3, 9, 9}, {1, 2, 8},
        {2, 3, 9, 9},    {1, 2, 3, 8},       {1, 2, 9},    {4, 9, 8},
    };
    const CorpusOracle oracle(docs, 2, 1);
    const uint32_t q1[] = {1, 2};
    const SearchExpectation e1 = oracle.expect(q1);
    t.expect("oracle: {1,2} -> docs 0 1 3 5 6",
             e1.exact == std::vector<uint32_t>{0, 1, 3, 5, 6} ? Check::ok()
                                                            : Check::wrong("oracle"),
             Verdict::Ok);

    setalgebra::PostingReply good;
    good.docIds = e1.exact;
    t.expect("search: right docs", checkSearch(e1, good), Verdict::Ok);
    setalgebra::PostingReply bad = good;
    bad.docIds.erase(bad.docIds.begin() + 2);
    t.expect("search: dropped doc id", checkSearch(e1, bad), Verdict::Wrong);
    bad = good;
    bad.docIds.push_back(7);
    t.expect("search: extra doc id", checkSearch(e1, bad), Verdict::Wrong);
    bad = good;
    std::swap(bad.docIds[0], bad.docIds[1]);
    t.expect("search: unsorted doc ids", checkSearch(e1, bad), Verdict::Wrong);
    bad = good;
    bad.degraded = true;
    t.expect("search: degraded", checkSearch(e1, bad), Verdict::Wrong);

    // Term 9 is the stop word corpus-wide and on shard 0, but shard 1
    // stops term 8 instead, so shard 1 requires 9 and answers nothing
    // for {1, 9}: the fault's signature.
    const uint32_t q2[] = {1, 9};
    const SearchExpectation e2 = oracle.expect(q2);
    setalgebra::PostingReply faulty;
    faulty.docIds = e2.perShard;
    t.expect("search: per-shard stop-list answer",
             e2.exact != e2.perShard ? checkSearch(e2, faulty)
                                     : Check::wrong("fixture shows no fault"),
             Verdict::Fault);
}

void
nnCases(SelfTest &t)
{
    const uint32_t shards = 2;
    FeatureStore data(3);
    for (int i = 0; i < 10; ++i) {
        const float row[3] = {float(i), float(i * i % 7), 0.5f * float(i)};
        data.add(row);
    }
    const float query[3] = {3.2f, 2.0f, 1.4f};
    // Candidates: every row, as leaf -> local ids (row = local*2+leaf).
    std::unordered_map<uint32_t, std::vector<uint32_t>> candidates;
    for (uint32_t row = 0; row < 10; ++row)
        candidates[row % shards].push_back(row / shards);
    const NNExpectation e = exactTopK(data, shards, query, candidates, 3);

    hdsearch::NNResponse good;
    good.pointIds = e.ids;
    good.distances = e.distances;
    t.expect("nn: exact top-k", checkNN(data, shards, query, e, good), Verdict::Ok);

    hdsearch::NNResponse bad = good;
    bad.distances[1] += 0.001f;
    t.expect("nn: wrong distance", checkNN(data, shards, query, e, bad),
             Verdict::Wrong);
    bad = good;
    std::swap(bad.pointIds[0], bad.pointIds[2]);
    std::swap(bad.distances[0], bad.distances[2]);
    t.expect("nn: unsorted list", checkNN(data, shards, query, e, bad),
             Verdict::Wrong);
    // A real point with its true distance, but not among the nearest.
    const NNExpectation all = exactTopK(data, shards, query, candidates, 10);
    bad = good;
    bad.pointIds.back() = all.ids.back();
    bad.distances.back() = all.distances.back();
    t.expect("nn: not the top-k", checkNN(data, shards, query, e, bad),
             Verdict::Wrong);
    bad = good;
    bad.pointIds.pop_back();
    bad.distances.pop_back();
    t.expect("nn: dropped neighbour", checkNN(data, shards, query, e, bad),
             Verdict::Wrong);
    bad = good;
    bad.degraded = true;
    t.expect("nn: degraded", checkNN(data, shards, query, e, bad), Verdict::Wrong);
}

} // namespace

int
runCheckerSelfTest(std::string &log)
{
    SelfTest t;
    routerCases(t);
    searchCases(t);
    nnCases(t);
    log = t.log.str();
    return t.failures;
}

} // namespace perfbench
