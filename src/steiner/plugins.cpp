#include "steiner/plugins.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>

#include "steiner/dualascent.hpp"
#include "steiner/heuristics.hpp"
#include "steiner/reductions.hpp"
#include "steiner/shortest.hpp"

namespace steiner {

VertexBranchState parseVertexBranches(
    const SapInstance& inst, const std::vector<cip::CustomBranch>& cbs) {
    VertexBranchState st(inst.graph.numVertices());
    for (const cip::CustomBranch& cb : cbs) {
        if (cb.plugin != kStpPluginName || cb.data.size() != 2) continue;
        const int v = static_cast<int>(cb.data[0]);
        if (v < 0 || v >= inst.graph.numVertices()) continue;
        st.flag[v] = static_cast<signed char>(cb.data[1]);
    }
    return st;
}

StpConshdlr* findStpConshdlr(cip::Solver& solver) {
    return dynamic_cast<StpConshdlr*>(
        solver.findConstraintHandler(kStpPluginName));
}

namespace {

/// Breadth-first search from the root over the arcs `open(a)` admits
/// (a = 2e + dir, tail -> head); true iff it reaches every terminal.
template <class Open>
bool reachesAllTerminals(const SapInstance& inst, Open open) {
    const Graph& g = inst.graph;
    std::vector<bool> seen(g.numVertices(), false);
    std::queue<int> q;
    q.push(inst.root);
    seen[inst.root] = true;
    while (!q.empty()) {
        const int v = q.front();
        q.pop();
        for (int e : g.incident(v)) {
            if (g.edge(e).deleted) continue;
            const int a = (g.edge(e).u == v) ? 2 * e : 2 * e + 1;  // v -> w
            if (!open(a)) continue;
            const int w = g.edge(e).other(v);
            if (!seen[w]) {
                seen[w] = true;
                q.push(w);
            }
        }
    }
    for (int t : g.terminals())
        if (!seen[t]) return false;
    return true;
}

/// The subproblem's graph: edges the local bounds forbid are deleted and
/// branching-required vertices become terminals (deleteEdge never changes
/// vertexAlive, so the two steps commute).
Graph nodeGraph(const cip::Solver& solver, const SapInstance& inst) {
    Graph h = inst.graph;
    const auto& ub = solver.localUb();
    for (int e = 0; e < h.numEdges(); ++e)
        if (!h.edge(e).deleted && !inst.edgeUsable(ub, e)) h.deleteEdge(e);
    const cip::Node* node = solver.currentNode();
    const VertexBranchState st = parseVertexBranches(
        inst, node ? node->desc.customBranches
                   : solver.rootSubproblem().customBranches);
    for (int v = 0; v < h.numVertices(); ++v)
        if (st.flag[v] == 1 && h.vertexAlive(v)) h.setTerminal(v, true);
    return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// StpConshdlr
// ---------------------------------------------------------------------------

StpConshdlr::StpConshdlr(const SapInstance& inst)
    : ConstraintHandler(kStpPluginName, 0),
      inst_(inst),
      engine_(inst),
      required_(inst.graph.numVertices(), 0) {}

void StpConshdlr::primeSharedCuts(cip::Solver& solver,
                                  const ug::CutBundle& cuts) {
    if (cuts.empty()) return;
    std::vector<ug::CutSupport> decoded;
    if (!cuts.decode(decoded)) {
        // Corrupt framing: nothing in the bundle is trustworthy. The decode
        // failure itself is counted so the coordinator can quarantine the
        // link that keeps delivering corrupt bundles.
        cip::Stats& st = solver.stats();
        st.shareCutsReceived += cuts.count();
        st.shareCutsInvalid += cuts.count();
        ++st.shareCutsDecodeFailures;
        return;
    }
    std::int64_t invalid = 0;
    const int numVars = inst_.model.numVars();
    for (ug::CutSupport& cs : decoded) {
        // Structural screen: only "sum >= 1" rows over known model vars may
        // even be queued; graph-level certification happens at activation.
        bool ok = (cs.rhsClass == 1);
        if (ok)
            for (int var : cs.vars)
                if (var < 0 || var >= numVars) {
                    ok = false;
                    break;
                }
        if (!ok) {
            ++invalid;
            continue;
        }
        primed_.push_back({std::move(cs.vars), 0, 0});
    }
    solver.stats().shareCutsReceived +=
        static_cast<std::int64_t>(decoded.size());
    solver.stats().shareCutsInvalid += invalid;
}

void StpConshdlr::primeLocalSupports(std::vector<std::vector<int>> supports) {
    const int numVars = inst_.model.numVars();
    for (std::vector<int>& vars : supports) {
        bool ok = !vars.empty();
        if (ok)
            for (int var : vars)
                if (var < 0 || var >= numVars) {
                    ok = false;
                    break;
                }
        if (!ok) continue;
        primed_.push_back({std::move(vars), 0, 1});
    }
}

ug::CutBundle StpConshdlr::takeShareableCuts(int maxCuts) {
    ug::CutBundle bundle;
    if (solver_)
        solver_->takeAdmittedCuts(
            maxCuts, [&](const std::vector<int>& vars, int rhsClass) {
                return bundle.append(vars, rhsClass);
            });
    return bundle;
}

bool StpConshdlr::certifySupport(const std::vector<int>& vars) {
    const Graph& g = inst_.graph;
    const int arcSpace = 2 * g.numEdges();
    arcMask_.assign(static_cast<std::size_t>(arcSpace), 0);
    for (int var : vars) {
        if (var < 0 || var >= static_cast<int>(inst_.varArc.size()))
            return false;
        const int a = inst_.varArc[static_cast<std::size_t>(var)];
        if (a < 0 || a >= arcSpace) return false;
        arcMask_[static_cast<std::size_t>(a)] = 1;
    }
    // "sum of support arcs >= 1" is valid iff every feasible arborescence
    // uses a support arc, iff removing the support disconnects some terminal
    // from the root.
    return !reachesAllTerminals(inst_, [&](int a) {
        return inst_.arcVar[static_cast<std::size_t>(a)] >= 0 &&
               !arcMask_[static_cast<std::size_t>(a)];
    });
}

bool StpConshdlr::admitCut(cip::Solver& solver, const std::vector<int>& vars,
                           bool dominance) {
    if (dominance) return solver.addCoveringCut(vars);
    solver.addCut(cip::coveringRow(vars));
    return true;
}

int StpConshdlr::activatePrimedCuts(cip::Solver& solver,
                                    const std::vector<double>& x,
                                    double violationTol, bool dominance) {
    if (primed_.empty()) return 0;
    int added = 0;
    std::int64_t sharedAdded = 0;
    std::int64_t invalid = 0;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < primed_.size(); ++i) {
        PrimedCut pc = std::move(primed_[i]);
        double sum = 0.0;
        for (int var : pc.vars) sum += x[static_cast<std::size_t>(var)];
        if (sum >= 1.0 - violationTol) {
            // Satisfied by the current relaxation: keep it queued — a later
            // LP solution may violate it (certification is also deferred, so
            // never-violated supports cost no BFS at all).
            primed_[keep++] = std::move(pc);
            continue;
        }
        if (pc.cert == 0) {
            if (!certifySupport(pc.vars)) {
                // Stale/corrupt/node-local support: dropped, never a row.
                // Only shared supports count as invalid — a locally
                // harvested ascent cut failing the gate is the expected
                // fate of subtree-specific cuts, not a sharing defect.
                if (!pc.local) ++invalid;
                continue;
            }
            pc.cert = 1;
        }
        if (!admitCut(solver, pc.vars, dominance)) continue;
        ++added;
        if (!pc.local) ++sharedAdded;
    }
    primed_.resize(keep);
    solver.stats().shareCutsAdmitted += sharedAdded;
    solver.stats().shareCutsInvalid += invalid;
    return added;
}

CutSepaConfig StpConshdlr::sepaConfig(const cip::Solver& solver) const {
    const cip::ParamSet& p = solver.params();
    CutSepaConfig cfg;
    cfg.nestedCuts = p.getBool("stp/sepa/nestedcuts", cfg.nestedCuts);
    cfg.backCuts = p.getBool("stp/sepa/backcuts", cfg.backCuts);
    cfg.creepFlow = p.getBool("stp/sepa/creepflow", cfg.creepFlow);
    cfg.warmStart = p.getBool("stp/sepa/warmstart", cfg.warmStart);
    cfg.maxCuts = p.getInt("stp/sepa/maxcuts", cfg.maxCuts);
    cfg.violationTol = p.getReal("stp/sepa/violationtol", cfg.violationTol);
    return cfg;
}

std::vector<std::pair<int, double>> StpConshdlr::inArcCoefs(int v) const {
    std::vector<std::pair<int, double>> coefs;
    for (int e : inst_.graph.incident(v)) {
        if (inst_.graph.edge(e).deleted) continue;
        const int a = (inst_.graph.edge(e).u == v) ? 2 * e + 1 : 2 * e;
        if (inst_.arcVar[a] >= 0) coefs.emplace_back(inst_.arcVar[a], 1.0);
    }
    return coefs;
}

void StpConshdlr::nodeActivated(cip::Solver& solver) {
    const cip::Node* node = solver.currentNode();
    if (!node) return;
    VertexBranchState st = parseVertexBranches(inst_, node->desc.customBranches);
    std::fill(required_.begin(), required_.end(), 0);
    for (int v = 0; v < inst_.graph.numVertices(); ++v)
        if (st.flag[v] == 1) required_[v] = 1;

    // In-degree >= 1 rows for required vertices (create lazily).
    for (int v = 0; v < inst_.graph.numVertices(); ++v) {
        if (required_[v] && vertexRow_.find(v) == vertexRow_.end()) {
            auto coefs = inArcCoefs(v);
            if (coefs.empty()) continue;
            vertexRow_[v] =
                solver.addManagedRow(cip::Row(std::move(coefs), 1.0, cip::kInf));
        }
    }
    for (auto& [v, handle] : vertexRow_) {
        if (required_[v])
            solver.setManagedRowBounds(handle, 1.0, cip::kInf);
        else
            solver.setManagedRowBounds(handle, -cip::kInf, cip::kInf);
    }
    // Node-local Steiner cuts separated for required vertices.
    for (auto& [v, handle] : localCuts_) {
        if (required_[v])
            solver.setManagedRowBounds(handle, 1.0, cip::kInf);
        else
            solver.setManagedRowBounds(handle, -cip::kInf, cip::kInf);
    }
}

bool StpConshdlr::check(cip::Solver&, const std::vector<double>& x) {
    // Global feasibility: every *real* terminal reachable from the root by
    // arcs with value 1 (vertex-branching requirements are node-local and
    // deliberately not part of the global check).
    return reachesAllTerminals(inst_, [&](int a) {
        const int var = inst_.arcVar[a];
        return var >= 0 && x[var] >= 0.5;
    });
}

int StpConshdlr::separate(cip::Solver& solver, const std::vector<double>& x) {
    const auto t0 = std::chrono::steady_clock::now();
    const Graph& g = inst_.graph;
    const CutSepaConfig cfg = sepaConfig(solver);
    const bool dominance =
        solver.params().getBool("stp/sepa/pooldominance", true);
    solver_ = &solver;

    // Shared supports received from the coordinator activate first: they are
    // free (no max-flow solve), already filtered for relevance, and each one
    // that fires replaces separation work the donor already paid for. When
    // any fire, the round ends here — the LP must absorb the donor's rows
    // before it is worth paying max-flow solves on a fractional point those
    // rows are about to cut off; the engine separates the re-solved point on
    // the next round.
    const int primedAdded =
        activatePrimedCuts(solver, x, cfg.violationTol, dominance);
    if (primedAdded > 0) {
        solver.addCost(1);  // deterministic round charge, same as below
        return primedAdded;
    }
    engine_.beginRound(x, cfg);

    std::vector<int> terms;
    for (int t : g.terminals())
        if (t != inst_.root) terms.push_back(t);
    std::vector<int> verts;
    for (int v = 0; v < g.numVertices(); ++v)
        if (required_[v] && !g.isTerminal(v)) verts.push_back(v);

    // Fair budget split: branching-required vertices get a share of the
    // round budget proportional to their count (at least one when any
    // exist), so terminal cuts can no longer starve the node-local managed
    // cuts at deep nodes. Whatever the terminals leave unused rolls over.
    const int total = std::max(1, cfg.maxCuts);
    int vertReserve = 0;
    if (!verts.empty()) {
        const std::size_t pool = terms.size() + verts.size();
        vertReserve = std::max<int>(
            1, static_cast<int>((static_cast<std::size_t>(total) *
                                 verts.size()) / std::max<std::size_t>(1, pool)));
        vertReserve = std::min(vertReserve, total);
    }

    // One target may not eat the whole round: nested/back cuts multiply the
    // cuts per target, and without a per-target cap the first (deepest
    // deficit) targets would starve the rest, leaving most terminals
    // unseparated for the round and weakening the bound progress.
    const int perTarget = std::max(1, (total - vertReserve) / 4);

    std::vector<SteinerCut> cuts;
    int termCuts = 0;
    int termBudget = total - vertReserve;
    for (int t : engine_.orderByDeficit(terms)) {
        if (termBudget <= 0) break;
        cuts.clear();
        engine_.separateTarget(t, std::min(termBudget, perTarget), cuts);
        int added = 0;
        for (const SteinerCut& c : cuts)
            if (admitCut(solver, c.vars, dominance)) ++added;
        // Budget accounting runs on cuts actually handed to the LP: rounds
        // with many pool rejections are free to probe more targets without
        // growing the LP past the round budget.
        termBudget -= added;
        termCuts += added;
    }
    int vertBudget = total - termCuts;
    int vertCuts = 0;
    for (int v : engine_.orderByDeficit(verts)) {
        if (vertBudget <= 0) break;
        cuts.clear();
        const int k =
            engine_.separateTarget(v, std::min(vertBudget, perTarget), cuts);
        for (const SteinerCut& c : cuts) {
            const int handle = solver.addManagedRow(cip::coveringRow(c.vars));
            solver.setManagedRowBounds(handle, 1.0, cip::kInf);
            localCuts_.emplace_back(v, handle);
        }
        vertBudget -= k;
        vertCuts += k;
    }

    // Charge deterministic work and thread the engine's counters (deltas
    // since the last report) through the solver statistics.
    const CutSepaStats& es = engine_.stats();
    solver.addCost(1 + (es.augmentations - reported_.augmentations));
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    cip::Stats& st = solver.stats();
    st.sepaFlowSolves += es.flowSolves - reported_.flowSolves;
    st.sepaCutsFound += es.cutsFound - reported_.cutsFound;
    st.sepaNestedCuts += es.nestedCuts - reported_.nestedCuts;
    st.sepaBackCuts += es.backCuts - reported_.backCuts;
    st.sepaMaxNestedDepth = std::max(st.sepaMaxNestedDepth, es.maxNestedDepth);
    st.sepaSeconds += seconds;
    reported_ = es;
    return termCuts + vertCuts;
}

int StpConshdlr::enforce(cip::Solver& solver, const std::vector<double>& x,
                         cip::BranchDecision&) {
    return separate(solver, x);
}

// ---------------------------------------------------------------------------
// StpVertexBranching
// ---------------------------------------------------------------------------

StpVertexBranching::StpVertexBranching(const SapInstance& inst)
    : Branchrule("stp_branch", 100), inst_(inst) {}

cip::BranchDecision StpVertexBranching::branch(cip::Solver& solver,
                                               const std::vector<double>& x) {
    cip::BranchDecision dec;
    if (!solver.params().getBool("stp/vertexbranching", true)) return dec;
    const cip::Node* node = solver.currentNode();
    if (!node) return dec;
    VertexBranchState st = parseVertexBranches(inst_, node->desc.customBranches);
    const Graph& g = inst_.graph;

    int bestV = -1;
    double bestScore = 0.1;  // minimum fractionality to prefer vertex branch
    for (int v = 0; v < g.numVertices(); ++v) {
        if (!g.vertexAlive(v) || g.isTerminal(v) || v == inst_.root) continue;
        if (st.flag[v] != -1) continue;
        double inflow = 0.0;
        bool anyArc = false;
        for (int e : g.incident(v)) {
            if (g.edge(e).deleted) continue;
            const int a = (g.edge(e).u == v) ? 2 * e + 1 : 2 * e;
            const int var = inst_.arcVar[a];
            if (var < 0) continue;
            anyArc = true;
            inflow += x[var];
        }
        if (!anyArc) continue;
        const double score = std::min(inflow, 1.0 - inflow);
        if (score > bestScore) {
            bestScore = score;
            bestV = v;
        }
    }
    if (bestV < 0) return dec;  // fall back to arc variable branching

    // Child A: bestV must be part of the solution (in-degree >= 1 managed
    // row + terminal status for layered presolving/heuristics).
    cip::BranchDecision::Child inChild;
    inChild.customBranches.push_back({kStpPluginName, {bestV, 1}});
    // Child B: bestV deleted — all incident arcs fixed to zero.
    cip::BranchDecision::Child outChild;
    for (int e : inst_.graph.incident(bestV)) {
        if (inst_.graph.edge(e).deleted) continue;
        for (int dir = 0; dir < 2; ++dir) {
            const int var = inst_.arcVar[2 * e + dir];
            if (var >= 0) outChild.boundChanges.push_back({var, 0.0, 0.0});
        }
    }
    outChild.customBranches.push_back({kStpPluginName, {bestV, 0}});
    dec.children.push_back(std::move(inChild));
    dec.children.push_back(std::move(outChild));
    return dec;
}

// ---------------------------------------------------------------------------
// StpHeuristic
// ---------------------------------------------------------------------------

StpHeuristic::StpHeuristic(const SapInstance& inst)
    : Heuristic("stp_tm", 0), inst_(inst) {}

std::optional<cip::Solution> StpHeuristic::run(cip::Solver& solver,
                                               const std::vector<double>& x) {
    const Graph h = nodeGraph(solver, inst_);
    std::vector<double> override(h.numEdges(), kInfCost);
    for (int e = 0; e < h.numEdges(); ++e) {
        if (h.edge(e).deleted) continue;
        const int v0 = inst_.arcVar[2 * e];
        const int v1 = inst_.arcVar[2 * e + 1];
        double frac = 0.0;
        if (v0 >= 0) frac += x[v0];
        if (v1 >= 0) frac += x[v1];
        frac = std::min(1.0, frac);
        override[e] = h.edge(e).cost * (1.0 - frac) + 1e-6;
    }
    HeuristicSolution sol = primalHeuristic(h, 4, &override);
    if (!sol.valid()) return std::nullopt;
    // Strip branching-required leaves: globally only real terminals matter.
    std::vector<int> pruned = pruneTree(inst_.graph, sol.edges);
    cip::Solution out;
    out.x = treeToModelSolution(inst_, pruned);
    return out;
}

// ---------------------------------------------------------------------------
// StpSubproblemReducer (layered presolving)
// ---------------------------------------------------------------------------

StpSubproblemReducer::StpSubproblemReducer(const SapInstance& inst)
    : Presolver("stp_reduce", 10), inst_(inst) {}

cip::ReduceResult StpSubproblemReducer::presolve(cip::Solver& solver) {
    if (ran_) return cip::ReduceResult::Unchanged;
    ran_ = true;
    if (inst_.gadgetGraph ||
        !solver.params().getBool("stp/layeredpresolve", true))
        return cip::ReduceResult::Unchanged;
    const bool extended = solver.params().getBool("stp/extended", true);
    return reduceSubgraphAndFix(solver, inst_, extended);
}

int StpReductionPropagator::frequency(const cip::Solver& solver) const {
    return inst_.gadgetGraph ? 0
                             : solver.params().getInt("stp/redprop/freq", 4);
}

StpReductionPropagator::StpReductionPropagator(const SapInstance& inst,
                                               StpConshdlr* conshdlr)
    : Propagator("stp_redprop", 10),
      inst_(inst),
      conshdlr_(conshdlr),
      engine_(inst) {}

cip::ReduceResult StpReductionPropagator::propagate(cip::Solver& solver) {
    const cip::Node* node = solver.currentNode();
    const int freq = frequency(solver);
    if (!node || node->id == lastNode_ || freq <= 0)  // once per node
        return cip::ReduceResult::Unchanged;
    // Run at frequency-selected depths (including the root, which seeds the
    // ascent cache) and whenever the primal bound improved since the last
    // pass — a better incumbent re-arms the bound-based test at any depth.
    const double primal = solver.primalBound();
    const bool primalImproved = primal < lastPrimal_ - 1e-9;
    if (node->depth % freq != 0 && !primalImproved)
        return cip::ReduceResult::Unchanged;
    lastNode_ = node->id;
    lastPrimal_ = primal;

    VertexBranchState st = parseVertexBranches(inst_, node->desc.customBranches);
    const double offset = inst_.model.objOffset;
    const double pruning = solver.pruningCutoff();
    const double cutoffGraph =
        pruning < cip::kInf ? pruning - offset : kInfCost;
    // Submitting the in-pass heuristic solution (when it improves the
    // incumbent) is what makes the bound-based deletions below inheritable:
    // afterwards every solution they exclude is worse than the incumbent.
    const auto sink = [&](const HeuristicSolution& heur) -> double {
        std::vector<int> pruned = pruneTree(inst_.graph, heur.edges);
        cip::Solution cand;
        cand.x = treeToModelSolution(inst_, pruned);
        solver.submitSolution(std::move(cand));
        const double pc = solver.pruningCutoff();
        return pc < cip::kInf ? pc - offset : heur.cost;
    };
    const bool extended = solver.params().getBool("stp/extended", true);
    ReduceEngine::RunResult res =
        engine_.run(solver.localUb(), st.flag, cutoffGraph, extended, sink);
    solver.addCost(res.cost);

    std::int64_t arcsFixed = 0;
    std::int64_t cutsFed = 0;
    bool reduced = false;
    bool infeasible = res.infeasible;
    if (res.ran && !infeasible) {
        const auto& ub = solver.localUb();
        const auto fixEdges = [&](const std::vector<int>& edges,
                                  bool inheritable) {
            for (int e : edges) {
                for (int dir = 0; dir < 2; ++dir) {
                    const int var =
                        inst_.arcVar[2 * static_cast<std::size_t>(e) + dir];
                    if (var < 0 || ub[static_cast<std::size_t>(var)] <= 0.5)
                        continue;
                    const cip::ReduceResult r = solver.tightenUb(var, 0.0);
                    if (r == cip::ReduceResult::Infeasible) {
                        infeasible = true;
                        return;
                    }
                    if (r == cip::ReduceResult::Reduced) {
                        reduced = true;
                        ++arcsFixed;
                        if (inheritable) solver.recordInheritedBound(var);
                    }
                }
            }
        };
        fixEdges(res.inheritedDeleted, true);
        if (!infeasible) fixEdges(res.localDeleted, false);
    }
    if (conshdlr_) {
        std::vector<std::vector<int>> cuts = engine_.takePendingCutVars();
        if (!cuts.empty()) {
            cutsFed = static_cast<std::int64_t>(cuts.size());
            conshdlr_->primeLocalSupports(std::move(cuts));
        }
    }
    const ReduceEngineStats& es = engine_.stats();
    cip::Stats& stats = solver.stats();
    stats.redpropRuns += es.runs - reported_.runs;
    stats.redpropArcsFixed += arcsFixed;
    stats.redpropDaWarmStarts += es.daWarmStarts - reported_.daWarmStarts;
    stats.redpropLbSkips += es.lbSkips - reported_.lbSkips;
    stats.redpropDaCutsFed += cutsFed;
    reported_ = es;
    if (infeasible) return cip::ReduceResult::Infeasible;
    return reduced ? cip::ReduceResult::Reduced
                   : cip::ReduceResult::Unchanged;
}

cip::ReduceResult StpReductionPropagator::propagateLp(cip::Solver& solver) {
    const cip::Node* node = solver.currentNode();
    if (!node || frequency(solver) <= 0) return cip::ReduceResult::Unchanged;
    const double cutoff = solver.pruningCutoff();
    if (cutoff >= cip::kInf) return cip::ReduceResult::Unchanged;
    const double lpObj = solver.lpObjective();
    const double gap = cutoff - lpObj;
    if (gap <= 0) return cip::ReduceResult::Unchanged;  // pruned anyway
    if (node->id == lastLpNode_ && std::fabs(lpObj - lastLpObj_) <= 1e-12 &&
        std::fabs(cutoff - lastLpCutoff_) <= 1e-12)
        return cip::ReduceResult::Unchanged;  // same state, nothing new
    lastLpNode_ = node->id;
    lastLpObj_ = lpObj;
    lastLpCutoff_ = cutoff;

    const auto& rc = solver.lpRedcosts();
    const auto& x = solver.lpPrimal();
    const auto& lb = solver.localLb();
    const auto& ub = solver.localUb();
    const Graph& g = inst_.graph;
    VertexBranchState st = parseVertexBranches(inst_, node->desc.customBranches);
    const auto isTerm = [&](int v) {
        return g.isTerminal(v) || st.flag[static_cast<std::size_t>(v)] == 1;
    };
    // Cheapest nonnegative reduced cost of a usable modeled arc leaving
    // `vertex` without returning to `fromVertex` (kInfCost: none exists).
    const auto minExtension = [&](int vertex, int fromVertex) -> double {
        double best = kInfCost;
        for (int e : g.incident(vertex)) {
            if (g.edge(e).deleted) continue;
            const int w = g.edge(e).other(vertex);
            if (w == fromVertex) continue;
            const int a = (g.edge(e).u == vertex) ? 2 * e : 2 * e + 1;
            const int var = inst_.arcVar[static_cast<std::size_t>(a)];
            if (var < 0 || static_cast<std::size_t>(var) >= rc.size() ||
                ub[static_cast<std::size_t>(var)] <= 0.5)
                continue;
            best = std::min(best, std::max(0.0, rc[static_cast<std::size_t>(var)]));
            if (best <= 0.0) break;
        }
        return best;
    };

    bool reduced = false;
    std::int64_t fixed = 0;
    for (int e = 0; e < g.numEdges(); ++e) {
        if (g.edge(e).deleted) continue;
        for (int dir = 0; dir < 2; ++dir) {
            const int var =
                inst_.arcVar[2 * static_cast<std::size_t>(e) + dir];
            if (var < 0 || static_cast<std::size_t>(var) >= rc.size())
                continue;
            if (ub[static_cast<std::size_t>(var)] <= 0.5 ||
                lb[static_cast<std::size_t>(var)] >= 0.5)
                continue;  // already fixed either way
            // Only arcs at zero in the LP optimum may be fixed (the
            // propagateLp contract: the LP point must stay feasible).
            if (x[static_cast<std::size_t>(var)] > 1e-6) continue;
            const double r = rc[static_cast<std::size_t>(var)];
            if (r <= 1e-9) continue;
            const int head = dir == 0 ? g.edge(e).v : g.edge(e).u;
            const int tail = dir == 0 ? g.edge(e).u : g.edge(e).v;
            double needed = r;
            if (!isTerm(head)) {
                // Flow balance: an arc into a non-required non-terminal
                // must be extended by an outgoing arc, whose reduced cost
                // any improving solution pays on top.
                const double ext = minExtension(head, tail);
                needed = ext >= kInfCost ? kInfCost : r + ext;
            }
            if (needed > gap + 1e-9) {
                const cip::ReduceResult rr = solver.tightenUb(var, 0.0);
                if (rr == cip::ReduceResult::Infeasible) return rr;
                if (rr == cip::ReduceResult::Reduced) {
                    reduced = true;
                    ++fixed;
                    solver.recordInheritedBound(var);
                }
            }
        }
    }
    solver.stats().redpropArcsFixed += fixed;
    return reduced ? cip::ReduceResult::Reduced : cip::ReduceResult::Unchanged;
}

cip::ReduceResult reduceSubgraphAndFix(cip::Solver& solver,
                                       const SapInstance& inst_,
                                       bool extended) {
    Graph h = nodeGraph(solver, inst_);

    // Deletion-only reduction loop (no contractions: the variable space is
    // fixed). Because branching has deleted vertices and added terminals,
    // these tests frequently fire even when root presolving could not.
    ReductionStats stats;
    for (int round = 0; round < 2; ++round) {
        const long long before = stats.edgesDeleted;
        std::vector<int> peeled;
        peelDanglingChains(h, peeled);
        stats.edgesDeleted += static_cast<long long>(peeled.size());
        sdTest(h, stats);
        if (h.numTerminals() > 1) {
            HeuristicSolution heur = primalHeuristic(h, 4);
            if (heur.valid())
                boundBasedTest(h, stats, heur.cost, extended);
        }
        if (stats.edgesDeleted == before) break;
    }

    // Charge deterministic work for the reduction pass.
    solver.addCost(1 + h.numActiveEdges() / 8);

    // Translate deletions into local arc fixings.
    const auto& ub = solver.localUb();
    bool reduced = false;
    for (int e = 0; e < h.numEdges(); ++e) {
        if (!h.edge(e).deleted || inst_.graph.edge(e).deleted) continue;
        for (int dir = 0; dir < 2; ++dir) {
            const int var = inst_.arcVar[2 * e + dir];
            if (var < 0 || ub[var] <= 0.5) continue;
            const cip::ReduceResult r = solver.tightenUb(var, 0.0);
            if (r == cip::ReduceResult::Infeasible) return r;
            reduced |= (r == cip::ReduceResult::Reduced);
        }
    }
    return reduced ? cip::ReduceResult::Reduced
                   : cip::ReduceResult::Unchanged;
}

void installStpPlugins(cip::Solver& solver, const SapInstance& inst) {
    auto conshdlr = std::make_unique<StpConshdlr>(inst);
    StpConshdlr* conshdlrPtr = conshdlr.get();
    solver.addConstraintHandler(std::move(conshdlr));
    solver.addBranchrule(std::make_unique<StpVertexBranching>(inst));
    solver.addHeuristic(std::make_unique<StpHeuristic>(inst));
    solver.addPresolver(std::make_unique<StpSubproblemReducer>(inst));
    solver.addPropagator(
        std::make_unique<StpReductionPropagator>(inst, conshdlrPtr));
    // The generic LP diving heuristic rounds arc variables into meaningless
    // non-trees; the TM heuristic replaces it.
    solver.params().setBool("heuristics/diving/enabled", false);
    // Separate Steiner cuts heavily at the root, sparingly in the tree, and
    // keep the dense LP lean through the cut pool.
    if (!solver.params().has("separating/maxroundsroot"))
        solver.params().setInt("separating/maxroundsroot", 20);
    solver.params().setInt("separating/maxrounds", 3);
    solver.params().setInt("separating/maxpoolsize", 250);
    // No stp/ key is written here: each default lives in its one reader
    // (CutSepaConfig, separate(), and the ug layer for stp/share/enable).
}

}  // namespace steiner
