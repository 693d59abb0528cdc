// Solver-lifetime dominance-filtered cut pool for directed Steiner cuts.
//
// Every cut the separation engine emits is a 0/1 row "sum of arc vars >= 1".
// For two such rows P and C with support(P) a subset of support(C), P implies
// C (any nonnegative point with sum over P >= 1 has sum over C >= 1), so C is
// redundant whenever P is present. The engine's per-round `seen` list only
// dedups within one beginRound; across rounds and nodes the LP used to grow
// append-only. This pool is the cross-round memory:
//
//   - exact duplicates of a pooled cut are rejected (Verdict::Duplicate);
//   - an incoming cut whose support is a strict superset of a pooled cut's
//     support is rejected (Verdict::Dominated);
//   - a pooled cut whose support is a strict superset of an incoming cut's
//     support is evicted (the caller retires its LP row — replacing a weaker
//     row by a stronger one can only tighten the relaxation).
//
// The pool is keyed by the sorted support signature and maintains a support
// index (var -> pooled cut ids), so one offer() costs
// O(|support| + sum of index-list lengths touched), i.e. proportional to the
// candidates actually sharing a variable instead of the whole pool.
//
// Lifecycle contract with the owner (StpConshdlr): the pool mirrors exactly
// the cuts currently alive in the cip::Solver (pending or in the LP). When
// the solver ages a cut out of its LP pool it reports the cut's token back,
// and the owner must call remove() so a later re-violated cut can be
// re-admitted. Only globally valid cuts may be pooled — node-local rows
// (vertex-branching cuts) are only valid while their vertex is required and
// must never dominate a global cut.
// Cross-solver sharing: every admission is stamped and logged, and
// exportNewAdmitted() drains the log into a ug::CutBundle (delta-encoded
// var-id sets + RHS class — the solver-independent form that crosses rank
// boundaries). cutbundle.hpp is header-only, so the steiner library encodes
// bundles without linking the ug library.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ug/cutbundle.hpp"

namespace steiner {

/// Lifetime counters of one CutPool (lifetime of one cip::Solver).
struct CutPoolStats {
    std::int64_t offered = 0;            ///< offer() calls
    std::int64_t admitted = 0;           ///< cuts registered in the pool
    std::int64_t dupRejected = 0;        ///< exact duplicates rejected
    std::int64_t dominatedRejected = 0;  ///< supersets of a pooled cut rejected
    std::int64_t dominatedEvicted = 0;   ///< pooled cuts evicted by a subset cut
    std::int64_t untracked = 0;          ///< empty supports, not pooled
};

class CutPool {
public:
    enum class Verdict {
        Admitted,   ///< registered; id() assigned, dominated entries evicted
        Duplicate,  ///< identical support already pooled
        Dominated,  ///< a pooled cut's support is a subset — incoming is weaker
        Untracked,  ///< empty support; nothing to pool
    };

    explicit CutPool(int numVars) : index_(numVars > 0 ? numVars : 0) {}

    /// Offer a cut's support (model variable ids, any order, duplicates
    /// tolerated). On Admitted, `*id` (if non-null) receives the pool id and
    /// `*evicted` (if non-null) the ids of pooled cuts the new cut dominates
    /// — those are already removed from the pool; the caller must retire
    /// their LP rows. On any rejection, `*id` is left untouched and
    /// `*evicted` comes back empty.
    Verdict offer(const std::vector<int>& support, int* id = nullptr,
                  std::vector<int>* evicted = nullptr);

    /// Drop a pooled cut (the solver aged its LP row out). Id may be reused
    /// by later admissions.
    void remove(int id);

    bool contains(int id) const {
        return id >= 0 && id < static_cast<int>(cuts_.size()) &&
               cuts_[static_cast<std::size_t>(id)].alive;
    }
    /// Sorted support of a pooled cut; only valid while contains(id).
    const std::vector<int>& support(int id) const {
        return cuts_[static_cast<std::size_t>(id)].vars;
    }
    std::size_t size() const { return alive_; }
    const CutPoolStats& stats() const { return stats_; }

    /// Serialize cuts admitted since the last call into `bundle` (consuming
    /// cursor over the admission log; at most `maxCuts` per call, the rest
    /// stays queued). Cuts evicted or removed before export are skipped —
    /// only supports still alive in the pool are worth shipping. Every
    /// pooled cut is a globally valid "sum >= 1" row, so everything exported
    /// is safe to share across ranks. Returns the number appended.
    int exportNewAdmitted(ug::CutBundle& bundle, int maxCuts);

private:
    struct Entry {
        std::vector<int> vars;  ///< sorted, unique support signature
        std::uint64_t stamp = 0;  ///< admission stamp (detects id reuse)
        bool alive = false;
    };

    void unindex(int id);

    std::vector<Entry> cuts_;
    std::vector<std::vector<int>> index_;  ///< var -> alive cut ids
    std::vector<int> freeIds_;             ///< recyclable entry slots
    // offer() scratch: per-cut-id touch counters, reset via touched_ after
    // each call so no O(pool) clearing happens per offer.
    std::vector<int> touchCount_;
    std::vector<int> touched_;
    std::vector<int> sorted_;  ///< reusable sorted-support buffer
    /// Admission log for exportNewAdmitted: (id, stamp) per admission; the
    /// stamp disambiguates recycled ids (an id re-admitted after eviction
    /// must not re-export the old entry's position twice).
    std::vector<std::pair<int, std::uint64_t>> admitLog_;
    std::size_t shareCursor_ = 0;
    std::uint64_t admitClock_ = 0;
    std::size_t alive_ = 0;
    CutPoolStats stats_;
};

}  // namespace steiner
