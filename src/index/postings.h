/**
 * @file
 * Posting lists with skips and the inverted index for Set Algebra.
 *
 * Per the paper (§III-C): the posting list of each term is a sorted
 * list of document identifiers stored with skip pointers i→j that
 * jump over skip-size documents; leaves intersect lists with a linear
 * merge (the "merge" step of merge sort) accelerated by skips, and
 * the mid-tier unions the per-shard results. The index builder also
 * derives a stop list from collection frequency and discards stop
 * words during indexing.
 */

#ifndef MUSUITE_INDEX_POSTINGS_H
#define MUSUITE_INDEX_POSTINGS_H

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace musuite {

/**
 * Sorted document-id list with evenly spaced skip pointers (the
 * array-backed equivalent of the paper's skip list: the skip sequence
 * S_t plus the dense ids C_t).
 */
class PostingList
{
  public:
    PostingList() = default;

    /** Build from sorted, unique doc ids. @param skip_size 0 = auto. */
    explicit PostingList(std::vector<uint32_t> sorted_docs,
                         uint32_t skip_size = 0);

    const std::vector<uint32_t> &docs() const { return ids; }
    size_t size() const { return ids.size(); }
    bool empty() const { return ids.empty(); }
    uint32_t skipSize() const { return skip; }

    /**
     * Index of the first element >= target, starting from `from`,
     * fast-forwarded through the skip sequence.
     */
    size_t seek(uint32_t target, size_t from) const;

    /** Membership test via skips + local scan. */
    bool contains(uint32_t doc) const;

  private:
    std::vector<uint32_t> ids;
    /** skips[k] = ids[(k+1) * skip], the skip targets. */
    std::vector<uint32_t> skipTargets;
    uint32_t skip = 0;
};

/** Intersection by plain linear merge: O(|a| + |b|). */
std::vector<uint32_t> intersectLinear(const PostingList &a,
                                      const PostingList &b);

/**
 * Intersection that drives the smaller list and seeks the larger via
 * skips; wins when sizes are lopsided.
 */
std::vector<uint32_t> intersectWithSkips(const PostingList &a,
                                         const PostingList &b);

/** Intersect many lists, smallest-first for early exit. */
std::vector<uint32_t> intersectAll(
    const std::vector<const PostingList *> &lists, bool use_skips = true);

/** Union of sorted id lists (the mid-tier merge). */
std::vector<uint32_t> unionAll(
    const std::vector<std::vector<uint32_t>> &lists);

/**
 * The `count` terms with the most occurrences across `documents`,
 * ties to the larger term id: the collection-frequency stop list.
 */
std::unordered_set<uint32_t> rankStopTerms(
    const std::vector<std::vector<uint32_t>> &documents, size_t count);

/**
 * Inverted index over a document shard: term id -> posting list, with
 * collection-frequency-derived stop list.
 */
class InvertedIndex
{
  public:
    /**
     * Build from tokenized documents.
     * @param documents documents[d] = term ids appearing in doc d
     *        (duplicates fine).
     * @param doc_ids Global id of each document (shard mapping).
     * @param stop_terms Number of most-frequent terms to discard,
     *        ranked over these documents alone.
     */
    InvertedIndex(const std::vector<std::vector<uint32_t>> &documents,
                  const std::vector<uint32_t> &doc_ids,
                  size_t stop_terms = 0);

    /**
     * Build with a stop list chosen elsewhere. A sharded index passes
     * every shard the list ranked over the whole corpus: lists ranked
     * per shard disagree near the cut-off, and the union of the shard
     * answers then differs from an unsharded index's answer.
     */
    InvertedIndex(const std::vector<std::vector<uint32_t>> &documents,
                  const std::vector<uint32_t> &doc_ids,
                  std::unordered_set<uint32_t> stop_list);

    /** Posting list for a term; null if absent or stopped. */
    const PostingList *postings(uint32_t term) const;

    /** Docs containing every query term (stop words ignored). */
    std::vector<uint32_t> intersectTerms(
        std::span<const uint32_t> terms) const;

    bool isStopWord(uint32_t term) const
    {
        return stopList.count(term) > 0;
    }

    size_t termCount() const { return lists.size(); }
    size_t stopListSize() const { return stopList.size(); }

  private:
    std::unordered_map<uint32_t, PostingList> lists;
    std::unordered_set<uint32_t> stopList;
};

} // namespace musuite

#endif // MUSUITE_INDEX_POSTINGS_H
