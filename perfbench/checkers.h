/**
 * @file
 * Answer checkers for the end-to-end benchmark.
 *
 * Every expected answer here is computed apart from the program: the
 * Router value is recomputed from the data-set definition, Set Algebra
 * answers come from a brute-force scan of the unsharded corpus, and
 * HDSearch distances are recomputed from the data-set vectors. The
 * program's own index, cache and merge code is never asked what the
 * answer should be. The one exception is HDSearch's candidate set: the
 * exact top-k is taken over the candidates `LshIndex::query` yields,
 * because the service is approximate by design.
 */

#ifndef PERFBENCH_CHECKERS_H
#define PERFBENCH_CHECKERS_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "index/vectors.h"
#include "services/hdsearch/proto.h"
#include "services/router/proto.h"
#include "services/setalgebra/proto.h"

namespace perfbench {

/** What checking one answer found. */
enum class Verdict {
    Ok,    //!< The answer is right.
    Fault, //!< Wrong in the way the named stop-list fault predicts.
    Wrong, //!< Wrong in any other way: the run is not correct.
};

struct Check
{
    Verdict verdict = Verdict::Ok;
    std::string why; //!< Empty when Ok.

    static Check ok() { return {}; }
    static Check wrong(std::string why) { return {Verdict::Wrong, why}; }
};

// --------------------------------------------------------------------
// Router
// --------------------------------------------------------------------

/**
 * The value every Router key holds: FNV-1a over the key bytes seeds a
 * xorshift64 stream, one lower-case letter per step. Written here from
 * the data-set definition rather than called from it.
 */
std::string expectedKvValue(std::string_view key, size_t value_bytes);

/** A get must find `expected` (every key is prepopulated). */
Check checkKvGet(std::string_view expected, const musuite::router::KvReply &reply);

/** A set must be stored on every replica (no degraded flag). */
Check checkKvSet(const musuite::router::KvReply &reply);

// --------------------------------------------------------------------
// Set Algebra
// --------------------------------------------------------------------

/** The two answers a Set Algebra query can legitimately be compared to. */
struct SearchExpectation
{
    /** Brute-force scan with the corpus-wide stop list: the answer. */
    std::vector<uint32_t> exact;
    /**
     * The same scan with each shard's own stop list (shard = doc id
     * modulo the shard count). Where it differs from `exact`, an answer
     * equal to it is the per-shard stop-list fault, counted as failed.
     */
    std::vector<uint32_t> perShard;
};

/**
 * Brute-force conjunctive search over an unsharded copy of the corpus:
 * a term-by-document incidence bitmap built from the raw documents, so
 * a query is the AND of its required terms' rows.
 */
class CorpusOracle
{
  public:
    CorpusOracle(const std::vector<std::vector<uint32_t>> &documents,
                 uint32_t shards, size_t stop_terms);

    SearchExpectation expect(std::span<const uint32_t> terms) const;

    /** Number of terms that are stop words on some shard but not
     *  corpus-wide, or the other way round. */
    size_t disputedStopTerms() const;

  private:
    using StopList = std::unordered_set<uint32_t>;
    using Bitmap = std::vector<uint64_t>;

    static StopList topTerms(const std::vector<const std::vector<uint32_t> *> &docs,
                             size_t stop_terms);
    /** Docs in `scope` holding every term of `terms` not in `stop`. */
    Bitmap match(std::span<const uint32_t> terms, const StopList &stop,
                 const Bitmap &scope) const;
    static std::vector<uint32_t> docsOf(const Bitmap &bits);

    size_t words;                     //!< 64-doc words per bitmap row.
    std::unordered_map<uint32_t, Bitmap> incidence; //!< term -> docs.
    Bitmap allDocs;
    std::vector<Bitmap> shardDocs;    //!< doc id modulo shard count.
    StopList corpusStop;
    std::vector<StopList> shardStop;
};

Check checkSearch(const SearchExpectation &expected,
                  const musuite::setalgebra::PostingReply &reply);

// --------------------------------------------------------------------
// HDSearch
// --------------------------------------------------------------------

/** Squared L2 summed in index order, as the data-set definition states. */
float referenceSquaredL2(std::span<const float> a, std::span<const float> b);

/** Data-set row of a global point id (leaf << 32 | local). */
uint64_t datasetRow(uint64_t global_id, uint32_t shards);

struct NNExpectation
{
    std::vector<uint64_t> ids;     //!< Global ids, nearest first.
    std::vector<float> distances;  //!< Aligned with ids.
};

/**
 * Exact top-k of `candidates` (leaf -> local ids) by distance to
 * `query`, ties broken by global id.
 */
NNExpectation exactTopK(
    const musuite::FeatureStore &data, uint32_t shards,
    std::span<const float> query,
    const std::unordered_map<uint32_t, std::vector<uint32_t>> &candidates,
    size_t k);

/**
 * Every distance equals the recomputed squared L2 of its data-set row,
 * the list is sorted, and it is the expected exact top-k.
 */
Check checkNN(const musuite::FeatureStore &data, uint32_t shards,
              std::span<const float> query, const NNExpectation &expected,
              const musuite::hdsearch::NNResponse &reply);

/**
 * Feed every checker a right answer and a set of corrupted ones.
 * Returns the number of cases where a checker's verdict was not the
 * one expected; a line per case goes to `log`.
 */
int runCheckerSelfTest(std::string &log);

} // namespace perfbench

#endif // PERFBENCH_CHECKERS_H
