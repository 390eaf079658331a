/**
 * @file
 * Implementation of posting lists, intersections, and the inverted
 * index.
 */

#include "index/postings.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"

namespace musuite {

PostingList::PostingList(std::vector<uint32_t> sorted_docs,
                         uint32_t skip_size)
    : ids(std::move(sorted_docs))
{
    MUSUITE_CHECK(std::is_sorted(ids.begin(), ids.end()))
        << "posting list must be sorted";
    if (ids.empty())
        return;
    skip = skip_size ? skip_size
                     : std::max<uint32_t>(
                           2, uint32_t(std::sqrt(double(ids.size()))));
    for (size_t pos = skip; pos < ids.size(); pos += skip)
        skipTargets.push_back(ids[pos]);
}

size_t
PostingList::seek(uint32_t target, size_t from) const
{
    if (ids.empty())
        return 0;
    // Fast-forward over whole skip blocks whose end is still too
    // small, then finish with a local scan inside one block.
    size_t block = from / skip;
    while (block < skipTargets.size() && skipTargets[block] < target)
        ++block;
    size_t pos = std::max(from, block * skip);
    const size_t block_end =
        std::min(ids.size(), (block + 1) * size_t(skip));
    while (pos < block_end && ids[pos] < target)
        ++pos;
    return pos;
}

bool
PostingList::contains(uint32_t doc) const
{
    if (ids.empty())
        return false;
    const size_t pos = seek(doc, 0);
    return pos < ids.size() && ids[pos] == doc;
}

std::vector<uint32_t>
intersectLinear(const PostingList &a, const PostingList &b)
{
    const auto &x = a.docs();
    const auto &y = b.docs();
    std::vector<uint32_t> out;
    out.reserve(std::min(x.size(), y.size()));
    size_t i = 0, j = 0;
    while (i < x.size() && j < y.size()) {
        if (x[i] < y[j]) {
            ++i;
        } else if (y[j] < x[i]) {
            ++j;
        } else {
            out.push_back(x[i]);
            ++i;
            ++j;
        }
    }
    return out;
}

std::vector<uint32_t>
intersectWithSkips(const PostingList &a, const PostingList &b)
{
    // Drive from the smaller list, seeking in the larger via skips.
    const PostingList &small = a.size() <= b.size() ? a : b;
    const PostingList &large = a.size() <= b.size() ? b : a;
    std::vector<uint32_t> out;
    out.reserve(small.size());
    size_t cursor = 0;
    for (uint32_t doc : small.docs()) {
        cursor = large.seek(doc, cursor);
        if (cursor >= large.size())
            break;
        if (large.docs()[cursor] == doc)
            out.push_back(doc);
    }
    return out;
}

std::vector<uint32_t>
intersectAll(const std::vector<const PostingList *> &lists, bool use_skips)
{
    if (lists.empty())
        return {};
    for (const PostingList *list : lists) {
        if (!list || list->empty())
            return {};
    }
    std::vector<const PostingList *> order(lists);
    std::sort(order.begin(), order.end(),
              [](const PostingList *a, const PostingList *b) {
                  return a->size() < b->size();
              });

    PostingList accumulated(
        std::vector<uint32_t>(order[0]->docs()));
    for (size_t i = 1; i < order.size() && !accumulated.empty(); ++i) {
        std::vector<uint32_t> next =
            use_skips ? intersectWithSkips(accumulated, *order[i])
                      : intersectLinear(accumulated, *order[i]);
        accumulated = PostingList(std::move(next));
    }
    return accumulated.docs();
}

std::vector<uint32_t>
unionAll(const std::vector<std::vector<uint32_t>> &lists)
{
    // Iterative pairwise merge; shard counts are small (4-16).
    std::vector<uint32_t> out;
    for (const auto &list : lists) {
        MUSUITE_CHECK(std::is_sorted(list.begin(), list.end()))
            << "union input must be sorted";
        std::vector<uint32_t> merged;
        merged.reserve(out.size() + list.size());
        std::set_union(out.begin(), out.end(), list.begin(), list.end(),
                       std::back_inserter(merged));
        out = std::move(merged);
    }
    return out;
}

std::unordered_set<uint32_t>
rankStopTerms(const std::vector<std::vector<uint32_t>> &documents,
              size_t count)
{
    std::unordered_set<uint32_t> stop;
    if (count == 0)
        return stop;
    // Collection frequency: total occurrences of each term.
    std::unordered_map<uint32_t, uint64_t> frequency;
    for (const auto &terms : documents) {
        for (uint32_t term : terms)
            frequency[term]++;
    }
    std::vector<std::pair<uint64_t, uint32_t>> ranked;
    ranked.reserve(frequency.size());
    for (const auto &[term, occurrences] : frequency)
        ranked.push_back({occurrences, term});
    const size_t keep = std::min(count, ranked.size());
    std::partial_sort(ranked.begin(), ranked.begin() + keep,
                      ranked.end(), std::greater<>());
    for (size_t i = 0; i < keep; ++i)
        stop.insert(ranked[i].second);
    return stop;
}

InvertedIndex::InvertedIndex(
    const std::vector<std::vector<uint32_t>> &documents,
    const std::vector<uint32_t> &doc_ids, size_t stop_terms)
    : InvertedIndex(documents, doc_ids,
                    rankStopTerms(documents, stop_terms))
{}

InvertedIndex::InvertedIndex(
    const std::vector<std::vector<uint32_t>> &documents,
    const std::vector<uint32_t> &doc_ids,
    std::unordered_set<uint32_t> stop_list)
    : stopList(std::move(stop_list))
{
    MUSUITE_CHECK(documents.size() == doc_ids.size())
        << "documents/doc_ids size mismatch";

    // Gather per-term doc sets, skipping stop words during indexing.
    std::unordered_map<uint32_t, std::vector<uint32_t>> gathered;
    for (size_t d = 0; d < documents.size(); ++d) {
        for (uint32_t term : documents[d]) {
            if (stopList.count(term))
                continue;
            auto &docs = gathered[term];
            if (docs.empty() || docs.back() != doc_ids[d])
                docs.push_back(doc_ids[d]);
        }
    }
    for (auto &[term, docs] : gathered) {
        std::sort(docs.begin(), docs.end());
        docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
        lists.emplace(term, PostingList(std::move(docs)));
    }
}

const PostingList *
InvertedIndex::postings(uint32_t term) const
{
    auto it = lists.find(term);
    return it == lists.end() ? nullptr : &it->second;
}

std::vector<uint32_t>
InvertedIndex::intersectTerms(std::span<const uint32_t> terms) const
{
    std::vector<const PostingList *> gathered;
    gathered.reserve(terms.size());
    for (uint32_t term : terms) {
        if (stopList.count(term))
            continue; // Stop words carry no selectivity.
        const PostingList *list = postings(term);
        if (!list)
            return {}; // Term absent from shard: empty intersection.
        gathered.push_back(list);
    }
    if (gathered.empty())
        return {}; // All terms were stop words.
    return intersectAll(gathered);
}

} // namespace musuite
