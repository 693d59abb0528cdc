// SCIP-Jack-style user plugins for the CIP framework:
//   StpConshdlr          — lazy separation of directed Steiner cuts (4) via
//                          max-flow, plus node-local rows for vertex
//                          branching ("make v a terminal");
//   StpVertexBranching   — constraint branching on vertices: v-in-solution /
//                          v-deleted children, transferred between
//                          ParaSolvers as CustomBranch payloads (the
//                          ug-0.8.6 feature the paper highlights);
//   StpHeuristic         — LP-guided TM + local search, mapped back to model
//                          space;
//   StpSubproblemReducer — layered presolving: re-runs the (deletion-only)
//                          reduction tests on each received subproblem's
//                          modified graph, where the extended tests often
//                          fire even when root presolving could not (paper
//                          section 4.1).
#pragma once

#include <unordered_map>
#include <vector>

#include "cip/plugins.hpp"
#include "cip/solver.hpp"
#include "steiner/cutpool.hpp"
#include "steiner/cutsep.hpp"
#include "steiner/reduceengine.hpp"
#include "steiner/stpmodel.hpp"

namespace steiner {

/// Plugin name shared by all STP custom-branch payloads.
inline constexpr const char* kStpPluginName = "stp";

/// Node-local vertex state parsed from custom branches: +1 in-solution,
/// 0 deleted, absent = unbranched.
struct VertexBranchState {
    std::vector<signed char> flag;  ///< -1 unbranched, 0 deleted, 1 required
    explicit VertexBranchState(int n) : flag(n, -1) {}
};

VertexBranchState parseVertexBranches(const SapInstance& inst,
                                      const std::vector<cip::CustomBranch>& cbs);

class StpConshdlr : public cip::ConstraintHandler {
public:
    explicit StpConshdlr(const SapInstance& inst);

    bool check(cip::Solver& solver, const std::vector<double>& x) override;
    int separate(cip::Solver& solver, const std::vector<double>& x) override;
    int enforce(cip::Solver& solver, const std::vector<double>& x,
                cip::BranchDecision& decision) override;
    void nodeActivated(cip::Solver& solver) override;

    /// The separation engine (exposed for tests and benchmarks).
    const CutSeparationEngine& engine() const { return engine_; }

    // -- Cross-solver cut sharing ------------------------------------------
    /// Queue shared supports received with the assignment. Nothing enters
    /// the LP here: each support is violation-checked against the current
    /// relaxation and certified valid (removing its arcs must disconnect
    /// some terminal from the root) during separate() before activation, so
    /// a corrupt or stale bundle can never inject an invalid row.
    void primeSharedCuts(cip::Solver& solver, const ug::CutBundle& cuts);
    /// Serialize up to `maxCuts` newly pool-admitted supports (consuming
    /// cursor; see CutPool::exportNewAdmitted) for piggybacking on
    /// Status/Terminated messages.
    ug::CutBundle takeShareableCuts(int maxCuts);
    /// Number of received-but-not-yet-activated shared supports (tests).
    std::size_t primedPending() const { return primed_.size(); }

    /// Queue locally generated candidate supports (e.g. dual-ascent cuts
    /// from the ReduceEngine). They ride the same violation-check +
    /// certification gate as shared supports but are kept out of the
    /// cross-solver sharing statistics: their admission/rejection says
    /// nothing about the coordinator's bundles.
    void primeLocalSupports(std::vector<std::vector<int>> supports);

private:
    CutSepaConfig sepaConfig(const cip::Solver& solver) const;
    std::vector<std::pair<int, double>> inArcCoefs(int v) const;
    /// Drop cuts the solver aged out of its LP pool from the dominance pool
    /// (consumes Solver::takeRetiredCutTokens), so they can be re-admitted.
    void syncRetiredCuts(cip::Solver& solver);
    /// Add the dominance pool's counters since the last report (and its
    /// current size) to the solver statistics.
    void reportPoolStats(cip::Solver& solver);
    /// Certification oracle for shared supports: true iff deleting the
    /// support's arcs leaves some terminal unreachable from the root, i.e.
    /// "sum of support arcs >= 1" holds for every feasible arborescence.
    bool certifySupport(const std::vector<int>& vars);
    /// Add "sum of vars >= 1" as an LP cut. With `dominance`, the support
    /// first passes the solver-lifetime pool (false: a duplicate or a
    /// dominated support, nothing added) and pooled supersets are retired.
    bool admitCut(cip::Solver& solver, const std::vector<int>& vars,
                  bool dominance);
    /// Activate violated+certified primed supports through admitCut;
    /// returns the number added, records shared-cut stats.
    int activatePrimedCuts(cip::Solver& solver, const std::vector<double>& x,
                           double violationTol, bool dominance);

    const SapInstance& inst_;
    CutSeparationEngine engine_;
    CutSepaStats reported_;  ///< engine stats already pushed to the solver
    std::vector<signed char> required_;  ///< current node: extra terminals
    std::unordered_map<int, int> vertexRow_;  ///< v -> managed indeg>=1 row
    std::vector<std::pair<int, int>> localCuts_;  ///< (vertex, row handle)

    // Solver-lifetime dominance pool over the *global* terminal cuts (the
    // node-local vertex cuts above are only valid while their vertex is
    // required and must never enter it). Maps keep the pool ids and the
    // solver's cut tokens in 1:1 correspondence.
    CutPool pool_;
    CutPoolStats reportedPool_;  ///< pool stats already pushed to the solver
    std::unordered_map<int, std::int64_t> tokenOf_;   ///< pool id -> token
    std::unordered_map<std::int64_t, int> poolIdOf_;  ///< token -> pool id
    std::vector<int> evictScratch_;
    std::vector<std::int64_t> retireScratch_;

    // Shared/local supports waiting for activation. cert: 0 = not yet
    // certified, 1 = certified valid (certification runs once; invalid
    // supports are dropped — and, for shared ones, counted — the moment
    // certification fails). local: 1 = generated by this solver (ascent
    // harvest), excluded from shared-cut statistics.
    struct PrimedCut {
        std::vector<int> vars;
        signed char cert = 0;
        signed char local = 0;
    };
    std::vector<PrimedCut> primed_;
    std::vector<char> arcMask_;  ///< certifySupport scratch: arcs removed
};

/// The solver's StpConshdlr (installed under kStpPluginName), or null.
StpConshdlr* findStpConshdlr(cip::Solver& solver);

class StpVertexBranching : public cip::Branchrule {
public:
    explicit StpVertexBranching(const SapInstance& inst);
    cip::BranchDecision branch(cip::Solver& solver,
                               const std::vector<double>& x) override;

private:
    const SapInstance& inst_;
};

class StpHeuristic : public cip::Heuristic {
public:
    explicit StpHeuristic(const SapInstance& inst);
    std::optional<cip::Solution> run(cip::Solver& solver,
                                     const std::vector<double>& x) override;

private:
    const SapInstance& inst_;
};

class StpSubproblemReducer : public cip::Presolver {
public:
    explicit StpSubproblemReducer(const SapInstance& inst);
    cip::ReduceResult presolve(cip::Solver& solver) override;

private:
    const SapInstance& inst_;
    bool ran_ = false;
};

/// In-tree reductions ("reduction techniques are extremely important both
/// in presolving and domain propagation", paper section 3.1), run as domain
/// propagation at depths divisible by "stp/redprop/freq" (default 4) and
/// additionally whenever the primal bound improved since the last pass.
/// freq <= 0 turns the propagator off, propagateLp included; so does a
/// variant instance (SapInstance::gadgetGraph), as it does the layered
/// presolve (StpSubproblemReducer).
///
/// The pass runs on a persistent ReduceEngine: the node subgraph is synced
/// by bound-change deltas, the dual ascent is warm-started from the cached
/// parent/root state, unchanged nodes skip the pass entirely, and harvested
/// ascent cuts are fed to the constraint handler's primed-cut path.
/// Bound-derived fixings are recorded into the node description so
/// children inherit them.
///
/// propagateLp adds LP-reduced-cost arc fixing strengthened by the
/// flow-balance extension argument: an arc into a non-required non-terminal
/// must be extended by an outgoing arc, so its exclusion test may add the
/// cheapest outgoing reduced cost. Only arcs at zero in the current LP
/// optimum are fixed (the propagateLp contract: the LP point stays
/// feasible, no re-solve needed).
class StpReductionPropagator : public cip::Propagator {
public:
    StpReductionPropagator(const SapInstance& inst, StpConshdlr* conshdlr);
    cip::ReduceResult propagate(cip::Solver& solver) override;
    cip::ReduceResult propagateLp(cip::Solver& solver) override;

    /// The persistent reduction engine (tests/diagnostics).
    const ReduceEngine& engine() const { return engine_; }

private:
    /// "stp/redprop/freq", or 0 (off) on a gadget graph.
    int frequency(const cip::Solver& solver) const;

    const SapInstance& inst_;
    StpConshdlr* conshdlr_;  ///< sink for harvested ascent cuts (may be null)
    ReduceEngine engine_;
    std::int64_t lastNode_ = -1;
    double lastPrimal_ = cip::kInf;  ///< primal bound at the last engine pass
    ReduceEngineStats reported_;     ///< engine stats already pushed upstream
    // propagateLp dedup: the last (node, LP objective, cutoff) processed —
    // identical state cannot yield new fixings.
    std::int64_t lastLpNode_ = -1;
    double lastLpObj_ = -cip::kInf;
    double lastLpCutoff_ = cip::kInf;
};

/// Deletion-only reduction pass (layered presolving) on the subgraph
/// induced by the solver's current local bounds + vertex-branching state;
/// fixes deleted edges' arcs to zero via tightenUb.
cip::ReduceResult reduceSubgraphAndFix(cip::Solver& solver,
                                       const SapInstance& inst,
                                       bool extended);

/// Install the full SCIP-Jack-style plugin set into a solver and set its
/// cip overrides: diving off, 3 separation rounds per tree node (20 at the
/// root unless the caller set separating/maxroundsroot) and a 250-cut LP
/// pool. misc/objintegral is left to the caller (SapInstance::integralCosts).
void installStpPlugins(cip::Solver& solver, const SapInstance& inst);

}  // namespace steiner
