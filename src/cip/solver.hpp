// Branch-cut-and-propagate CIP solver with a plugin architecture and a
// stepping API.
//
// The stepping API (initSolve()/step()) exists for the UG layer: a
// ParaSolver drives its embedded base solver one B&B node at a time,
// exchanging messages between steps (Algorithm 2 of the paper), and the
// discrete-event SimComm engine charges each step's reported cost to the
// rank's virtual clock.
//
// Determinism: given the same model, parameters and permutation seed the
// solver's trace is bit-reproducible; all "time" limits are expressed in
// deterministic work units (LP iterations), which is what makes the
// simulated parallel experiments of the benchmark suite repeatable.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include "cip/model.hpp"
#include "cip/node.hpp"
#include "cip/params.hpp"
#include "cip/plugins.hpp"
#include "cip/stats.hpp"
#include "lp/simplex.hpp"

namespace cip {

enum class Status {
    Unsolved,
    Optimal,
    Infeasible,
    Unbounded,
    NodeLimit,
    CostLimit,
    GapLimit,
    Interrupted,
};

const char* toString(Status s);

class Solver {
public:
    Solver();
    ~Solver();
    Solver(const Solver&) = delete;
    Solver& operator=(const Solver&) = delete;

    // -- setup ---------------------------------------------------------------
    void setModel(Model m);
    Model& model() { return model_; }
    const Model& model() const { return model_; }
    ParamSet& params() { return params_; }
    const ParamSet& params() const { return params_; }

    void addPresolver(std::unique_ptr<Presolver> p);
    void addPropagator(std::unique_ptr<Propagator> p);
    void addSeparator(std::unique_ptr<Separator> p);
    void addHeuristic(std::unique_ptr<Heuristic> p);
    void addBranchrule(std::unique_ptr<Branchrule> p);
    void addConstraintHandler(std::unique_ptr<ConstraintHandler> p);
    void addEventHandler(std::unique_ptr<EventHandler> p);
    void setRelaxator(std::unique_ptr<Relaxator> r);
    ConstraintHandler* findConstraintHandler(const std::string& name);

    /// Load a transferred subproblem (apply before initSolve()).
    void loadSubproblem(SubproblemDesc desc) { rootDesc_ = std::move(desc); }
    /// The subproblem this solver instance was created for (root: empty).
    /// Constraint handlers use this during presolve, before a node exists.
    const SubproblemDesc& rootSubproblem() const { return rootDesc_; }

    // -- solving -------------------------------------------------------------
    /// Sequential convenience: init + step to completion.
    Status solve();

    /// Presolve and create the root node. Idempotent.
    void initSolve();

    /// Process one B&B node; returns the work units consumed. Call until
    /// finished(). Safe to interleave with the UG accessors below.
    std::int64_t step();

    bool finished() const;
    Status status() const { return status_; }

    // -- results / UG integration ---------------------------------------------
    const Solution& incumbent() const { return incumbent_; }
    double primalBound() const;
    /// Global dual bound: min over open node bounds (equals primal at opt).
    double dualBound() const;
    double gap() const;
    const Stats& stats() const { return stats_; }
    /// Plugins add their counter deltas to named fields (see cip/stats.hpp).
    Stats& stats() { return stats_; }
    int numOpenNodes() const { return static_cast<int>(open_.size()); }

    /// Inject an externally found incumbent (from the LoadCoordinator).
    /// Adopted only if better than the current one; enables cutoff pruning,
    /// propagation and heuristics exactly as the paper describes for hc10p.
    void injectSolution(const Solution& sol);

    /// Remove and return the most promising open subproblem for transfer
    /// (collect mode). Prefers "heavy" nodes: best bound, then lowest depth.
    std::optional<SubproblemDesc> extractOpenNode();

    /// Invoked whenever a new incumbent is accepted.
    void setIncumbentCallback(std::function<void(const Solution&)> cb) {
        incumbentCallback_ = std::move(cb);
    }
    /// Cooperative interruption (UG termination messages).
    void setInterruptFlag(const std::atomic<bool>* flag) { interrupt_ = flag; }

    // -- services for plugins (valid inside plugin callbacks) -----------------
    const std::vector<double>& localLb() const { return curLb_; }
    const std::vector<double>& localUb() const { return curUb_; }
    /// Tighten bounds of the current node (or globally during presolve).
    /// Returns Infeasible if the domain becomes empty.
    ReduceResult tightenLb(int var, double v);
    ReduceResult tightenUb(int var, double v);
    /// Add a globally valid cutting plane (flushed once per separation
    /// round). Returns a solver-lifetime token identifying the cut; plugins
    /// that track cuts (dominance pools) use it to retire the cut later and
    /// to recognize it among takeRetiredCutTokens().
    std::int64_t addCut(Row row);
    /// Retire cuts by token: a still-pending cut is dropped immediately, a
    /// pooled cut is removed at the next manageCutPool() (its LP row goes
    /// away with the scheduled rebuild). Used when a newly admitted cut
    /// dominates older ones. Unknown tokens are ignored.
    void retireCuts(const std::vector<std::int64_t>& tokens);
    /// Tokens of cuts the solver itself dropped from its LP pool (aging or
    /// overflow pruning) since the last call. Consuming read: pooling
    /// plugins must unregister these so a later re-violated cut can be
    /// re-admitted instead of being rejected as a duplicate.
    std::vector<std::int64_t> takeRetiredCutTokens();
    /// Register a *managed* row: a row whose side bounds the owning plugin
    /// switches per node (constraint branching, e.g. SCIP-Jack's vertex
    /// branching). The row starts inactive (free). Returns a handle.
    int addManagedRow(Row row);
    /// Activate/deactivate a managed row for the current node; typically
    /// called from ConstraintHandler::nodeActivated().
    void setManagedRowBounds(int handle, double lhs, double rhs);
    /// Validate and possibly accept a candidate solution; true if accepted.
    bool submitSolution(Solution sol);
    /// Extra deterministic work units (relaxator iterations etc.).
    void addCost(std::int64_t units) { pendingCost_ += units; }
    /// Record the variable's *current* local bounds into the node's
    /// subproblem description so children inherit them. Only sound for
    /// reductions valid in the entire subtree — e.g. cutoff-derived fixings
    /// (reduced-cost or bound-based): any solution they exclude is worse
    /// than the incumbent, and the cutoff only tightens below this node.
    /// Optimality-preserving-only reductions (alternative-path tests) must
    /// NOT be recorded: a later branching may remove the witness path.
    void recordInheritedBound(int var) {
        if (!processing_) return;
        processing_->desc.boundChanges.push_back(
            {var, curLb_[var], curUb_[var]});
    }
    const Node* currentNode() const { return processing_.get(); }
    std::mt19937_64& rng() { return rng_; }

    // -- cut-pool introspection (tests, diagnostics) ---------------------------
    /// Cuts currently held in the solver's LP cut pool (excl. pending ones).
    std::size_t cutPoolCount() const { return cutPool_.size(); }
    /// Cuts emitted this round but not yet flushed into the LP.
    std::size_t pendingCutCount() const { return pendingCuts_.size(); }
    /// Checks the pool/LP binding invariant: with a built LP every pool
    /// cut's lpIndex is a distinct valid LP row; without one every lpIndex
    /// is -1 (the pre-fix code left stale pre-prune row ids behind here).
    bool cutLpBindingConsistent() const;
    /// LP data from the most recent relaxation solve at this node.
    double lpObjective() const { return lpObj_; }
    const std::vector<double>& lpDuals() const;
    const std::vector<double>& lpRedcosts() const;
    const std::vector<double>& lpPrimal() const;
    /// The effective pruning bound: a node (or a forced variable assignment)
    /// whose lower bound reaches this value cannot lead to an improving
    /// solution. Includes the integral-objective strengthening. +inf while
    /// no incumbent exists.
    double pruningCutoff() const { return cutoff_ - cutoffSlack(); }
    bool inPresolve() const { return phase_ == Phase::Presolving; }

private:
    enum class Phase { Setup, Presolving, Solving, Done };

    struct NodeOrder;  // nodesel comparison

    Model model_;
    ParamSet params_;

    std::vector<std::unique_ptr<Presolver>> presolvers_;
    std::vector<std::unique_ptr<Propagator>> propagators_;
    std::vector<std::unique_ptr<Separator>> separators_;
    std::vector<std::unique_ptr<Heuristic>> heuristics_;
    std::vector<std::unique_ptr<Branchrule>> branchrules_;
    std::vector<std::unique_ptr<ConstraintHandler>> conshdlrs_;
    std::vector<std::unique_ptr<EventHandler>> eventhdlrs_;
    std::unique_ptr<Relaxator> relaxator_;

    SubproblemDesc rootDesc_;
    Phase phase_ = Phase::Setup;
    Status status_ = Status::Unsolved;

    // Bounds: root (post-presolve, post-desc) and current-node local copies.
    std::vector<double> rootLb_, rootUb_;
    std::vector<double> curLb_, curUb_;

    // LP machinery.
    lp::SimplexSolver lp_;
    bool lpBuilt_ = false;
    std::vector<double> lpLb_, lpUb_;  ///< bounds currently loaded in the LP

    /// One globally valid cut living in the solver's LP cut pool. The row,
    /// its token, its LP position and its age travel together — the parallel
    /// cutPool_/cutLpIndex_/cutAge_ arrays this replaces could (and did)
    /// fall out of sync when pruning touched only some of them.
    /// Invariant: lpIndex is a valid row index of lp_ iff lpBuilt_ is true;
    /// every pool mutation that cannot patch the indices sets lpIndex = -1
    /// on all entries and schedules a rebuild (lpBuilt_ = false).
    struct PoolCut {
        Row row;
        std::int64_t token = -1;  ///< stable id handed out by addCut()
        int lpIndex = -1;         ///< LP row position (see invariant above)
        int age = 0;              ///< consecutive zero-dual checks
        bool retired = false;     ///< dominance-retired; drop at next manage
        double lastDual = -1.0;   ///< |dual| at the last fresh-dual check
                                  ///< (-1: never priced with fresh duals);
                                  ///< keeps overflow scoring on the
                                  ///< magnitude+orthogonality rule even when
                                  ///< the current duals are stale
    };
    std::vector<PoolCut> cutPool_;
    std::vector<Row> pendingCuts_;               ///< rows awaiting LP flush
    std::vector<std::int64_t> pendingCutTokens_; ///< parallel to pendingCuts_
    std::int64_t nextCutToken_ = 0;
    std::vector<std::int64_t> retiredTokens_;    ///< drops not yet taken
    struct ManagedRow {
        Row row;        ///< coefficients; stored bounds = currently set ones
        int lpIndex = -1;
    };
    std::vector<ManagedRow> managedRows_;
    double lpObj_ = -kInf;
    bool lpSolutionValid_ = false;
    /// True only while lp_.duals() stems from an Optimal (re)solve; guards
    /// cut aging against stale duals after a failed/NumericalTrouble LP.
    bool lpDualsFresh_ = false;
    /// "lp/pricing" = auto (default): exact dual steepest-edge for any
    /// bound-changed resolve (it beats devex's restarted reference weights
    /// at every measured change depth), devex for cold solves where the
    /// dual rule is irrelevant anyway.
    bool lpPricingAuto_ = true;

    // Tree.
    std::vector<NodePtr> open_;
    NodePtr processing_;
    std::int64_t nextNodeId_ = 0;

    Solution incumbent_;
    double cutoff_ = kInf;

    Stats stats_;
    std::int64_t pendingCost_ = 0;
    std::mt19937_64 rng_;
    const std::atomic<bool>* interrupt_ = nullptr;
    std::function<void(const Solution&)> incumbentCallback_;

    // Pseudocosts.
    struct PseudoCost {
        double upSum = 0.0, downSum = 0.0;
        int upCount = 0, downCount = 0;
    };
    std::vector<PseudoCost> pseudo_;

    // -- helpers -------------------------------------------------------------
    void runPresolve();
    void buildLp();
    lp::SolveStatus flushPendingCutsToLp();
    /// Cut-pool upkeep, run at node entry: age cuts against fresh duals,
    /// remove dominance-retired cuts, and on overflow past
    /// "separating/maxpoolsize" select the keep-set by greedy dual-magnitude
    /// + orthogonality scoring (falling back to oldest-non-binding-first
    /// when the stored duals are stale). Any removal invalidates all lpIndex
    /// entries and schedules an LP rebuild.
    void manageCutPool();
    /// Discard pending (unflushed) cuts, reporting their tokens as retired.
    void dropPendingCuts();
    /// Push changed variable bounds into the LP (rebuilding it when no LP
    /// exists). Returns the number of bound changes applied — solveLp() uses
    /// the count as the pricing-rule depth signal under "lp/pricing" = auto.
    int syncLpBounds();
    lp::SolveStatus solveLp();
    /// Mirror the LP engine's monotone counters into stats_. The counters
    /// survive lp_.load() (buildLp rebuilds), so plain assignment is exact.
    void syncLpStats();
    void applyNodeBounds(const Node& node);
    ReduceResult propagateRounds();
    ReduceResult linearPropagation();
    ReduceResult reducedCostFixing();
    bool isIntegral(const std::vector<double>& x) const;
    int mostFractionalVar(const std::vector<double>& x) const;
    int pseudocostVar(const std::vector<double>& x) const;
    /// Strong branching ("branching" = "strong"): probe the most fractional
    /// candidates with bound-tightened LP resolves, restoring the pre-probe
    /// basis after each probe instead of re-solving the node LP. Observed
    /// gains feed the pseudocosts. Returns -1 if probing is impossible.
    int strongBranchingVar(const std::vector<double>& x);
    bool checkSolutionFeasible(const std::vector<double>& x, double* objOut);
    void runHeuristics(const std::vector<double>& relaxSol);
    std::optional<Solution> roundingHeuristic(const std::vector<double>& x);
    std::optional<Solution> divingHeuristic(const std::vector<double>& x);
    void branchOn(const BranchDecision& dec, const std::vector<double>& x);
    NodePtr popNextNode();
    void pruneOpenNodes();
    void finishIfDone();
    void updatePseudocost(const Node& node, double lpObj);
    double childEstimate(double parentObj, int var, double frac, bool up) const;
    bool integralObjective() const;
    double cutoffSlack() const;
};

}  // namespace cip
