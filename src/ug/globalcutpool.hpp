// LoadCoordinator-side global cut pool (cross-solver cut sharing).
//
// Solvers piggyback the supports newly admitted to their cut store on
// Status/Terminated/RacingFinished messages; the LoadCoordinator merges them
// here. Dominance filtering (duplicate rejection, subset-dominance
// rejection, retroactive superset eviction within an RHS class) is
// cip::SupportPool's, the engine under each cip::Solver's cut store too;
// see src/cip/README.md. This class keeps the sharing record per
// pooled support and attaches a relevance-filtered bundle to every
// Subproblem / RacingSubproblem assignment, so a receiving solver starts
// from the fleet's accumulated root cuts instead of an empty pool.
//
// Per-entry "already knows" rank bitsets prevent echoing a cut back to the
// solver that reported it (or re-sending one already shipped); a touch clock
// (bumped on admission, duplicate re-report, and send) drives oldest-first
// eviction once the pool exceeds capacity. All state lives in plain vectors
// and every operation iterates in deterministic order, so SimEngine runs are
// bit-reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "cip/node.hpp"
#include "cip/supportpool.hpp"
#include "ug/cutbundle.hpp"

namespace ug {

class GlobalCutPool {
public:
    /// `numRanks` is the highest solver rank + 1 (ranks are 1-based, rank 0
    /// is the coordinator); `capacity` bounds the number of live supports.
    GlobalCutPool(int numRanks, int capacity);

    struct MergeStats {
        int reported = 0;  ///< supports decoded from the bundle
        int pooled = 0;    ///< newly admitted (survived the dominance filter)
        bool decodeFailed = false;  ///< bundle framing was corrupt (dropped
                                    ///< whole); feeds the sender quarantine
    };

    /// Merges a solver-reported bundle. The origin rank is marked as knowing
    /// every support it reported (admitted or duplicate), so the pool never
    /// echoes a cut back to its source. A corrupt bundle is dropped whole.
    MergeStats merge(const CutBundle& bundle, int origin);

    /// Builds the priming bundle for an assignment to `receiver`: up to
    /// `maxCuts` live supports the receiver does not already know, skipping
    /// supports made trivially satisfied by the subproblem (any support var
    /// fixed to 1 — the row cannot separate anything there). Popular
    /// supports — independently admitted by >= 2 solvers' local dominance
    /// pools — go first (they proved useful across subtrees, so they are the
    /// best bet for yet another receiver), newest-touched within each class;
    /// everything sent is marked known to the receiver and touch-refreshed
    /// (a cut in active circulation should not age out).
    CutBundle bundleFor(int receiver, const cip::SubproblemDesc& desc,
                        int maxCuts);

    int size() const { return pool_.size(); }

    /// All live supports in deterministic (id) order — test/oracle hook.
    std::vector<CutSupport> snapshot() const;

    /// Supports dropped by oldest-touched eviction over capacity.
    std::int64_t capacityEvicted() const { return capacityEvicted_; }

private:
    /// Sharing record of one pooled support, indexed by its pool id.
    struct Share {
        std::uint64_t touch = 0;            ///< last-use stamp (monotone)
        std::vector<std::uint64_t> known;   ///< rank bitset: already has it
        std::vector<std::uint64_t> reporters;  ///< rank bitset: admitted it
                                               ///< into its local pool
        int admits = 0;  ///< distinct ranks that reported (re-found) the cut
    };

    bool knows(const Share& s, int rank) const {
        return (s.known[static_cast<std::size_t>(rank) >> 6] >>
                (static_cast<unsigned>(rank) & 63u)) & 1u;
    }
    void markKnown(Share& s, int rank) {
        s.known[static_cast<std::size_t>(rank) >> 6] |=
            std::uint64_t{1} << (static_cast<unsigned>(rank) & 63u);
    }
    /// Count `rank` as a distinct reporter of `s` (a solver whose local pool
    /// admitted the cut); feeds the popularity ordering of bundleFor().
    void markReported(Share& s, int rank) {
        std::uint64_t& w = s.reporters[static_cast<std::size_t>(rank) >> 6];
        const std::uint64_t bit = std::uint64_t{1}
                                  << (static_cast<unsigned>(rank) & 63u);
        if (!(w & bit)) {
            w |= bit;
            ++s.admits;
        }
    }

    /// Offers one decoded support; returns true iff admitted.
    bool offer(const CutSupport& cs, int origin);
    void evictOldestOver(int keepId);

    int knownWords_ = 1;
    int capacity_ = 0;
    std::uint64_t clock_ = 0;

    cip::SupportPool pool_;
    std::vector<Share> shares_;  ///< pool id -> sharing record
    std::vector<char> fixedOne_;  ///< scratch: var fixed to 1 in desc
    std::vector<int> order_;      ///< scratch: candidate ordering

    std::int64_t capacityEvicted_ = 0;
};

}  // namespace ug
