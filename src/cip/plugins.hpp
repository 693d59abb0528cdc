// Plugin interfaces of the CIP framework.
//
// The paper's central software-architecture claim is that SCIP-style
// customized solvers are built purely as plugins; SCIP-Jack and SCIP-SDP are
// sets of such plugins. These interfaces reproduce the plugin taxonomy used
// there: presolver, propagator, separator, heuristic, branching rule,
// relaxator, constraint handler and event handler.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cip/model.hpp"
#include "cip/node.hpp"

namespace cip {

class Solver;  // forward; the context handed to every plugin

/// Outcome of a presolving or propagation round.
enum class ReduceResult {
    Unchanged,   ///< nothing reduced
    Reduced,     ///< bounds tightened / structures reduced
    Infeasible,  ///< subproblem proven infeasible
};

/// Plugin base: named, with a priority (higher runs earlier).
class Plugin {
public:
    Plugin(std::string name, int priority) : name_(std::move(name)), priority_(priority) {}
    virtual ~Plugin() = default;
    const std::string& name() const { return name_; }
    int priority() const { return priority_; }

private:
    std::string name_;
    int priority_;
};

/// Global presolving, run once before the tree search (and again inside each
/// ParaSolver on received subproblems — the paper's "layered presolving").
class Presolver : public Plugin {
public:
    using Plugin::Plugin;
    virtual ReduceResult presolve(Solver& solver) = 0;
};

/// Node-local domain propagation on the current local bounds.
class Propagator : public Plugin {
public:
    using Plugin::Plugin;
    virtual ReduceResult propagate(Solver& solver) = 0;

    /// LP-aware propagation, called inside the relaxation loop after every
    /// Optimal LP solve once the built-in reduced-cost fixing has run: fresh
    /// duals/reduced costs are available via solver.lpRedcosts() and the
    /// incumbent cutoff is finite. Contract: implementations may only apply
    /// reductions that keep the *current LP optimum* feasible (reduced-cost
    /// style fixings of nonbasic variables) — this is what lets the solver
    /// skip the LP re-solve after a Reduced result. Reductions that could
    /// cut off the LP point belong in propagate().
    virtual ReduceResult propagateLp(Solver& solver) {
        (void)solver;
        return ReduceResult::Unchanged;
    }
};

/// Cutting-plane separator: inspect the relaxation solution, add rows.
/// Returns the number of cuts added.
class Separator : public Plugin {
public:
    using Plugin::Plugin;
    virtual int separate(Solver& solver, const std::vector<double>& x) = 0;
};

/// Primal heuristic: try to produce a feasible solution.
class Heuristic : public Plugin {
public:
    using Plugin::Plugin;
    /// Frequency: run at nodes with depth % freq == 0 (freq<=0: root only).
    virtual std::optional<Solution> run(Solver& solver,
                                        const std::vector<double>& relaxSol) = 0;
};

/// A branching decision: either variable branching (var/point) or a list of
/// child subproblem extensions carrying custom constraint-branching data.
struct BranchDecision {
    // Variable branching:
    int var = -1;
    double point = 0.0;
    // Constraint branching: explicit children (bound changes + payload).
    struct Child {
        std::vector<BoundChange> boundChanges;
        std::vector<CustomBranch> customBranches;
    };
    std::vector<Child> children;

    bool isVarBranch() const { return var >= 0; }
    bool empty() const { return var < 0 && children.empty(); }
};

class Branchrule : public Plugin {
public:
    using Plugin::Plugin;
    virtual BranchDecision branch(Solver& solver,
                                  const std::vector<double>& relaxSol) = 0;
};

/// Result of a relaxator solve at a node (e.g. the SDP relaxation in the
/// MISDP solver's nonlinear branch-and-bound mode).
struct RelaxResult {
    enum class Status { Solved, Infeasible, Failed } status = Status::Failed;
    double bound = -kInf;       ///< valid dual (lower) bound for the node
    std::vector<double> x;      ///< relaxation solution (may be fractional)
};

/// Alternative relaxation replacing the LP at every node.
class Relaxator : public Plugin {
public:
    using Plugin::Plugin;
    virtual RelaxResult solveRelaxation(Solver& solver) = 0;
};

/// Constraint handler: represents all constraints of one nonlinear class.
class ConstraintHandler : public Plugin {
public:
    using Plugin::Plugin;

    /// Exact feasibility check of a candidate (integral) solution.
    virtual bool check(Solver& solver, const std::vector<double>& x) = 0;

    /// Separate the current relaxation point; returns #cuts added via
    /// solver.addCut() or solver.addCoveringCut(). Called for fractional
    /// and integral points.
    virtual int separate(Solver& solver, const std::vector<double>& x) = 0;

    /// Enforce an integral relaxation solution that violates this handler's
    /// constraints and could not be separated: either add a cut (return >0)
    /// or provide a branching decision via `decision`.
    virtual int enforce(Solver& solver, const std::vector<double>& x,
                        BranchDecision& decision) {
        (void)solver;
        (void)x;
        (void)decision;
        return 0;
    }

    /// Re-apply a constraint-branching payload when a transferred subproblem
    /// is reconstructed inside another ParaSolver.
    virtual void applyBranchData(Solver& solver,
                                 const std::vector<std::int64_t>& data) {
        (void)solver;
        (void)data;
    }

    /// Hook for node-local state reset when the solver jumps to a different
    /// open node (handlers caching node state must re-derive it).
    virtual void nodeActivated(Solver& solver) { (void)solver; }
};

/// Event observer (statistics, UG bound reporting, logging).
class EventHandler : public Plugin {
public:
    using Plugin::Plugin;
    virtual void onIncumbent(Solver& solver, const Solution& sol) {
        (void)solver;
        (void)sol;
    }
    virtual void onNodeProcessed(Solver& solver) { (void)solver; }
};

}  // namespace cip
