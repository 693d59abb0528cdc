#include "steiner/reduceengine.hpp"

#include <algorithm>

#include "steiner/reductions.hpp"

namespace steiner {

namespace {
constexpr std::size_t kMaxPendingCuts = 64;
}  // namespace

ReduceEngine::ReduceEngine(const SapInstance& inst)
    : inst_(inst),
      work_(inst.graph),
      extraTerm_(inst.graph.numVertices(), 0) {}

ReduceEngine::SyncDelta ReduceEngine::sync(
    const std::vector<double>& ub,
    const std::vector<signed char>& requiredFlag) {
    SyncDelta d;
    const Graph& base = inst_.graph;
    for (int e = 0; e < base.numEdges(); ++e) {
        if (base.edge(e).deleted) continue;  // gone before the model existed
        const bool usable = inst_.edgeUsable(ub, e);
        const bool active = !work_.edge(e).deleted;
        if (active && !usable) {
            work_.deleteEdge(e);
            ++deletedCount_;
            ++d.deletions;
        } else if (!active && usable) {
            work_.restoreEdge(e);
            --deletedCount_;
            ++d.restorations;
            // The cached ascent never saw this edge: its reduced costs do
            // not constrain it, so the dual state is no longer feasible.
            if (daValid_ &&
                (daActive_.size() <= static_cast<std::size_t>(e) ||
                 !daActive_[static_cast<std::size_t>(e)]))
                daValid_ = false;
        }
    }
    const bool haveFlags = !requiredFlag.empty();
    for (int v = 0; v < base.numVertices(); ++v) {
        const bool want = haveFlags && base.vertexAlive(v) &&
                          !base.isTerminal(v) &&
                          requiredFlag[static_cast<std::size_t>(v)] == 1;
        const bool have = extraTerm_[static_cast<std::size_t>(v)] != 0;
        if (want && !have) {
            work_.setTerminal(v, true);
            extraTerm_[static_cast<std::size_t>(v)] = 1;
            ++extraTermCount_;
            ++d.termAdds;
        } else if (!want && have) {
            work_.setTerminal(v, false);
            extraTerm_[static_cast<std::size_t>(v)] = 0;
            --extraTermCount_;
            ++d.termDrops;
            // Cuts raised to satisfy this terminal may no longer be valid
            // Steiner cuts: the cached bound cannot be trusted.
            if (daValid_ && daExtra_.size() > static_cast<std::size_t>(v) &&
                daExtra_[static_cast<std::size_t>(v)])
                daValid_ = false;
        }
    }
    stats_.syncDeletions += d.deletions;
    stats_.syncRestorations += d.restorations;
    return d;
}

void ReduceEngine::snapshotAscentState() {
    daActive_.assign(static_cast<std::size_t>(work_.numEdges()), 0);
    for (int e = 0; e < work_.numEdges(); ++e)
        if (!work_.edge(e).deleted) daActive_[static_cast<std::size_t>(e)] = 1;
    daExtra_ = extraTerm_;
}

void ReduceEngine::harvest(const std::vector<std::vector<int>>& arcCuts) {
    std::vector<int> vars;
    for (const std::vector<int>& cut : arcCuts) {
        vars.clear();
        for (int a : cut) {
            // Unmodeled arcs are identically zero in the model; dropping
            // them from the support keeps the row's meaning.
            const int var = inst_.arcVar[static_cast<std::size_t>(a)];
            if (var >= 0) vars.push_back(var);
        }
        if (vars.empty()) continue;
        std::sort(vars.begin(), vars.end());
        vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
        if (pendingCutVars_.size() >= kMaxPendingCuts)
            pendingCutVars_.erase(pendingCutVars_.begin());
        pendingCutVars_.push_back(vars);
        ++stats_.cutsHarvested;
    }
}

std::vector<std::vector<int>> ReduceEngine::takePendingCutVars() {
    std::vector<std::vector<int>> out;
    out.swap(pendingCutVars_);
    return out;
}

void ReduceEngine::captureActive(std::vector<char>& out) const {
    out.assign(static_cast<std::size_t>(work_.numEdges()), 0);
    for (int e = 0; e < work_.numEdges(); ++e)
        if (!work_.edge(e).deleted) out[static_cast<std::size_t>(e)] = 1;
}

void ReduceEngine::appendNewlyDeleted(const std::vector<char>& before,
                                      std::vector<int>& out) {
    for (int e = 0; e < work_.numEdges(); ++e)
        if (before[static_cast<std::size_t>(e)] && work_.edge(e).deleted)
            out.push_back(e);
}

ReduceEngine::RunResult ReduceEngine::run(
    const std::vector<double>& ub,
    const std::vector<signed char>& requiredFlag, double cutoffGraph,
    bool useExtended, const HeuristicSink& onImprovingHeuristic) {
    RunResult out;
    const SyncDelta d = sync(ub, requiredFlag);
    out.cost = 1;
    const bool boundImproved = cutoffGraph < lastBound_ - 1e-9;
    if (!d.any() && daValid_ && !boundImproved) {
        // Same subgraph, same terminals, no better incumbent: the previous
        // pass already reached its fixpoint here, so re-running the tests
        // (and the ascent) cannot find anything new.
        ++stats_.lbSkips;
        out.lowerBound = da_.lowerBound;
        return out;
    }
    ++stats_.runs;
    out.ran = true;
    out.cost += work_.numActiveEdges() / 8;

    const bool multiTerminal = work_.numTerminals() > 1 && inst_.root >= 0;
    if (multiTerminal) {
        if (d.any() || !daValid_) {
            if (!daValid_) {
                if (!rootDaValid_) {
                    rootDa_ = dualAscent(inst_.graph, inst_.root);
                    rootDaValid_ = true;
                    ++stats_.daColdStarts;
                    out.cost += inst_.graph.numActiveEdges() / 8;
                    // The model's initial rows were capped; late ascent cuts
                    // beyond the cap are new. Already-present duplicates are
                    // never violated, so the primed gate skips them for free.
                    harvest(rootDa_.cuts);
                }
                da_ = dualAscentWarm(work_, rootDa_.redCost,
                                     rootDa_.lowerBound, inst_.root);
            } else {
                da_ = dualAscentWarm(work_, da_.redCost, da_.lowerBound,
                                     inst_.root);
            }
            ++stats_.daWarmStarts;
            daValid_ = true;
            snapshotAscentState();
            out.cost += work_.numActiveEdges() / 16;
            harvest(da_.cuts);
        } else {
            // Only the incumbent moved: the cached ascent is still a valid
            // bound for this subgraph — rerun the tests, skip the ascent.
            ++stats_.lbSkips;
        }
        out.lowerBound = da_.lowerBound;
        if (da_.disconnected ||
            (cutoffGraph < kInfCost &&
             da_.lowerBound >= cutoffGraph + 1e-6)) {
            out.infeasible = true;
            lastBound_ = cutoffGraph;
            return out;
        }
    }

    double bound = cutoffGraph;
    if (multiTerminal) {
        HeuristicSolution heur = primalHeuristic(work_, 4);
        out.cost += work_.numActiveEdges() / 16;
        if (heur.valid() && heur.cost < bound - 1e-9)
            bound = std::min(onImprovingHeuristic
                                 ? onImprovingHeuristic(heur)
                                 : heur.cost,
                             heur.cost);
    }

    ReductionStats rstats;
    for (int round = 0; round < 2; ++round) {
        const std::size_t before =
            out.inheritedDeleted.size() + out.localDeleted.size();
        peelDanglingChains(work_, out.localDeleted);
        captureActive(activeScratch_);
        sdTest(work_, rstats);
        appendNewlyDeleted(activeScratch_, out.localDeleted);
        if (multiTerminal && daValid_ && bound < kInfCost) {
            captureActive(activeScratch_);
            boundBasedTestWithDa(work_, rstats, bound, useExtended, da_);
            appendNewlyDeleted(activeScratch_, out.inheritedDeleted);
        }
        if (out.inheritedDeleted.size() + out.localDeleted.size() == before)
            break;
    }
    deletedCount_ += static_cast<int>(out.inheritedDeleted.size() +
                                      out.localDeleted.size());
    stats_.boundDeleted +=
        static_cast<std::int64_t>(out.inheritedDeleted.size());
    stats_.altDeleted += static_cast<std::int64_t>(out.localDeleted.size());
    lastBound_ = std::min(cutoffGraph, bound);
    return out;
}

}  // namespace steiner
