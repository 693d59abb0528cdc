// Solver-lifetime dominance-filtered cut pool for directed Steiner cuts.
//
// Every cut the separation engine emits is a 0/1 row "sum of arc vars >= 1",
// so support inclusion is dominance. The engine's per-round `seen` list only
// dedups within one beginRound; this pool is the cross-round memory. It runs
// on cip::SupportPool (duplicate and subset-dominance rejection, retroactive
// superset eviction; see src/cip/README.md) with every row in RHS class 1,
// and adds what is Steiner-specific: support normalisation, verdict counters
// and the export log for cross-solver sharing.
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

#include "cip/supportpool.hpp"
#include "ug/cutbundle.hpp"

namespace steiner {

/// Lifetime counters of one CutPool (lifetime of one cip::Solver).
struct CutPoolStats {
    std::int64_t offered = 0;            ///< offer() calls
    std::int64_t admitted = 0;           ///< cuts registered in the pool
    std::int64_t dupRejected = 0;        ///< exact duplicates rejected
    std::int64_t dominatedRejected = 0;  ///< supersets of a pooled cut rejected
    std::int64_t dominatedEvicted = 0;   ///< pooled cuts evicted by a subset cut
    std::int64_t untracked = 0;  ///< empty or negative-id supports, not pooled
};

class CutPool {
public:
    enum class Verdict {
        Admitted,   ///< registered; id() assigned, dominated entries evicted
        Duplicate,  ///< identical support already pooled
        Dominated,  ///< a pooled cut's support is a subset — incoming is weaker
        Untracked,  ///< empty support or a negative id; nothing to pool
    };

    /// Offer a cut's support (model variable ids, any order, duplicates
    /// tolerated). On Admitted, `*id` (if non-null) receives the pool id and
    /// `*evicted` (if non-null) the ids of pooled cuts the new cut dominates
    /// — those are already removed from the pool; the caller must retire
    /// their LP rows. On any other verdict, `*id` is left untouched and
    /// `*evicted` comes back empty.
    Verdict offer(const std::vector<int>& support, int* id = nullptr,
                  std::vector<int>* evicted = nullptr);

    /// Drop a pooled cut (the solver aged its LP row out). Id may be reused
    /// by later admissions.
    void remove(int id) { pool_.remove(id); }

    bool contains(int id) const { return pool_.contains(id); }
    /// Sorted support of a pooled cut; only valid while contains(id).
    const std::vector<int>& support(int id) const { return pool_.vars(id); }
    std::size_t size() const { return static_cast<std::size_t>(pool_.size()); }
    const CutPoolStats& stats() const { return stats_; }

    /// Serialize cuts admitted since the last call into `bundle` (consuming
    /// cursor over the admission log; at most `maxCuts` per call, the rest
    /// stays queued). Cuts evicted or removed before export are skipped —
    /// only supports still alive in the pool are worth shipping. Every
    /// pooled cut is a globally valid "sum >= 1" row, so everything exported
    /// is safe to share across ranks. Returns the number appended.
    int exportNewAdmitted(ug::CutBundle& bundle, int maxCuts);

private:
    cip::SupportPool pool_;
    std::vector<int> sorted_;  ///< reusable sorted-support buffer
    /// Admission stamp per pool id. The export log holds (id, stamp) per
    /// admission; the stamp disambiguates recycled ids (an id re-admitted
    /// after eviction must not re-export the old entry's position twice).
    std::vector<std::uint64_t> stamp_;
    std::vector<std::pair<int, std::uint64_t>> admitLog_;
    std::size_t shareCursor_ = 0;
    std::uint64_t admitClock_ = 0;
    CutPoolStats stats_;
};

}  // namespace steiner
