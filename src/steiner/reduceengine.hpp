// Persistent per-solver reduction engine for in-tree Steiner propagation.
//
// The previous propagator rebuilt the node-induced subgraph from scratch at
// every pass (full graph copy + cold dual ascent). This engine keeps ONE
// working graph for the solver's lifetime and syncs it to the current node
// by edge delete/restore diffs derived from the local variable bounds, so a
// pass at an unchanged node costs a single sweep and no dual ascent at all.
//
// Dual-ascent caching. Wong's dual ascent produces reduced costs and a lower
// bound that remain valid for every graph whose usable edge set is a SUBSET
// of the ascent graph's and whose terminal set is a SUPERSET of the ascent
// terminals (same root): deletions only shrink raised cuts, extra terminals
// only add unsatisfied constraints. The engine therefore snapshots the
// active-edge set and extra-terminal set at ascent time and keeps the ascent
// as a warm start while the node moves *down* the tree; a jump to another
// subtree (an edge restored or a required-terminal dropped relative to the
// snapshot) falls back to a lazily computed root-graph ascent, which is a
// valid warm start for every node.
//
// Cut harvest. Cuts raised by the ascent are mapped to model-variable
// supports and handed to the caller as candidate separation rows; they are
// activated through the constraint handler's primed-cut path, whose
// violation check + global certification gate makes node-local supports
// harmless (invalid ones are dropped before ever reaching the LP).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "steiner/dualascent.hpp"
#include "steiner/graph.hpp"
#include "steiner/heuristics.hpp"
#include "steiner/stpmodel.hpp"

namespace steiner {

struct ReduceEngineStats {
    std::int64_t runs = 0;           ///< passes that ran the reduction tests
    std::int64_t syncDeletions = 0;  ///< edges deleted while syncing to bounds
    std::int64_t syncRestorations = 0;  ///< edges restored while syncing
    std::int64_t daWarmStarts = 0;   ///< warm-started ascents (prev or root)
    std::int64_t daColdStarts = 0;   ///< cold root-graph ascents
    std::int64_t lbSkips = 0;        ///< cached ascent reused, no recompute
    std::int64_t boundDeleted = 0;   ///< bound-based deletions (inheritable)
    std::int64_t altDeleted = 0;     ///< alternative-path/peel deletions
    std::int64_t cutsHarvested = 0;  ///< ascent cuts queued for separation
};

class ReduceEngine {
public:
    explicit ReduceEngine(const SapInstance& inst);

    struct RunResult {
        bool ran = false;         ///< false: clean skip, nothing changed
        bool infeasible = false;  ///< no improving solution below this node
        /// Edges newly deleted by cutoff-derived tests. Valid in the whole
        /// subtree: any solution using them is no better than the incumbent.
        /// The caller may record the corresponding arc fixings into the
        /// node's subproblem description (children inherit them).
        std::vector<int> inheritedDeleted;
        /// Edges newly deleted by optimality-preserving-only tests
        /// (alternative paths, dangling chains). Only sound node-locally: a
        /// later branching may remove the witness, so these must NOT be
        /// inherited.
        std::vector<int> localDeleted;
        double lowerBound = 0.0;  ///< graph-space dual-ascent bound (0 if none)
        std::int64_t cost = 0;    ///< deterministic work units for this call
    };

    /// Invoked when the in-pass heuristic beats the current pruning bound:
    /// receives the heuristic tree (engine-graph edge ids + cost) and
    /// returns the graph-space pruning bound to use for the bound-based test
    /// afterwards — typically the caller submits the solution and returns
    /// the updated cutoff, which is what makes the bound-test deletions
    /// inheritable. May be empty: the heuristic cost is used directly.
    using HeuristicSink = std::function<double(const HeuristicSolution&)>;

    /// Sync the working graph to (ub, requiredFlag) and run the reduction
    /// pass unless nothing changed since the previous call.
    ///  - ub: current local upper bounds over model variables,
    ///  - requiredFlag: vertex branch state (-1/0/1 per vertex; empty = no
    ///    vertex branches),
    ///  - cutoffGraph: graph-space pruning bound (model pruning cutoff minus
    ///    the model objective offset; kInfCost while no incumbent exists),
    ///  - useExtended: apply the extension-strengthened bound test.
    RunResult run(const std::vector<double>& ub,
                  const std::vector<signed char>& requiredFlag,
                  double cutoffGraph, bool useExtended,
                  const HeuristicSink& onImprovingHeuristic);

    /// Model-variable supports of dual-ascent cuts harvested since the last
    /// call (consuming read). Each is sorted + deduplicated; global validity
    /// is NOT guaranteed — feed them through a certification gate.
    std::vector<std::vector<int>> takePendingCutVars();

    const ReduceEngineStats& stats() const { return stats_; }
    /// The synced working graph (tests/diagnostics).
    const Graph& workGraph() const { return work_; }
    /// True while the cached ascent is valid for the working graph.
    bool ascentCached() const { return daValid_; }

private:
    struct SyncDelta {
        int deletions = 0;
        int restorations = 0;
        int termAdds = 0;
        int termDrops = 0;
        bool any() const {
            return deletions || restorations || termAdds || termDrops;
        }
    };

    SyncDelta sync(const std::vector<double>& ub,
                   const std::vector<signed char>& requiredFlag);
    void snapshotAscentState();
    void harvest(const std::vector<std::vector<int>>& arcCuts);
    void captureActive(std::vector<char>& out) const;
    void appendNewlyDeleted(const std::vector<char>& before,
                            std::vector<int>& out);

    const SapInstance& inst_;
    Graph work_;                       ///< persistent node-synced subgraph
    std::vector<signed char> extraTerm_;  ///< branch-required terminal flags
    int deletedCount_ = 0;  ///< edges deleted in work_ beyond the base graph
    int extraTermCount_ = 0;

    // Cached ascent for the working graph + its validity snapshot.
    DualAscentResult da_;
    bool daValid_ = false;
    std::vector<char> daActive_;        ///< edge-active set at ascent time
    std::vector<signed char> daExtra_;  ///< extra terminals at ascent time

    // Root-graph ascent: a valid warm start for every node (lazy).
    DualAscentResult rootDa_;
    bool rootDaValid_ = false;

    double lastBound_ = kInfCost;  ///< pruning bound used by the last pass
    std::vector<std::vector<int>> pendingCutVars_;
    ReduceEngineStats stats_;
    std::vector<char> activeScratch_;
};

}  // namespace steiner
