#include "cip/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cip {

namespace {
constexpr double kIntTol = 1e-6;
constexpr double kBoundTol = 1e-9;
constexpr double kFeasTol = 1e-6;
constexpr int kPresolveMaxRounds = 10;
constexpr int kDivingMaxDepth = 20;         ///< LP diving depth limit
constexpr int kStrongMaxCands = 8;          ///< candidates probed per node
constexpr long kStrongProbeIterLimit = 200; ///< simplex iterations per probe
}  // namespace

const char* toString(Status s) {
    switch (s) {
        case Status::Unsolved: return "unsolved";
        case Status::Optimal: return "optimal";
        case Status::Infeasible: return "infeasible";
        case Status::Unbounded: return "unbounded";
        case Status::NodeLimit: return "nodelimit";
        case Status::CostLimit: return "costlimit";
        case Status::GapLimit: return "gaplimit";
        case Status::Interrupted: return "interrupted";
    }
    return "?";
}

Solver::Solver() : params_(ParamSet::emphasis("default")) {}
Solver::~Solver() = default;

void Solver::setModel(Model m) {
    model_ = std::move(m);
    phase_ = Phase::Setup;
    status_ = Status::Unsolved;
}

void Solver::addPresolver(std::unique_ptr<Presolver> p) {
    presolvers_.push_back(std::move(p));
}
void Solver::addPropagator(std::unique_ptr<Propagator> p) {
    propagators_.push_back(std::move(p));
}
void Solver::addSeparator(std::unique_ptr<Separator> p) {
    separators_.push_back(std::move(p));
}
void Solver::addHeuristic(std::unique_ptr<Heuristic> p) {
    heuristics_.push_back(std::move(p));
}
void Solver::addBranchrule(std::unique_ptr<Branchrule> p) {
    branchrules_.push_back(std::move(p));
    std::stable_sort(branchrules_.begin(), branchrules_.end(),
                     [](const auto& a, const auto& b) {
                         return a->priority() > b->priority();
                     });
}
void Solver::addConstraintHandler(std::unique_ptr<ConstraintHandler> p) {
    conshdlrs_.push_back(std::move(p));
}
void Solver::addEventHandler(std::unique_ptr<EventHandler> p) {
    eventhdlrs_.push_back(std::move(p));
}
void Solver::setRelaxator(std::unique_ptr<Relaxator> r) {
    relaxator_ = std::move(r);
}

ConstraintHandler* Solver::findConstraintHandler(const std::string& name) {
    for (auto& h : conshdlrs_)
        if (h->name() == name) return h.get();
    return nullptr;
}

bool Solver::integralObjective() const {
    if (!params_.getBool("misc/objintegral", false)) return false;
    return true;
}

double Solver::cutoffSlack() const {
    // With an integral objective, any improving solution is better by >= 1.
    return integralObjective() ? 1.0 - 1e-6 : 1e-9;
}

double Solver::primalBound() const {
    return incumbent_.valid() ? incumbent_.obj : kInf;
}

double Solver::dualBound() const {
    if (phase_ == Phase::Done &&
        (status_ == Status::Optimal || status_ == Status::Infeasible))
        return primalBound();
    double bound = kInf;
    bool any = false;
    for (const auto& n : open_) {
        bound = std::min(bound, n->lowerBound);
        any = true;
    }
    if (processing_) {
        bound = std::min(bound, processing_->lowerBound);
        any = true;
    }
    if (!any) return primalBound();
    if (integralObjective() && bound > -kInf) bound = std::ceil(bound - 1e-6);
    return std::min(bound, primalBound());
}

double Solver::gap() const {
    const double p = primalBound();
    const double d = dualBound();
    if (p >= kInf || d <= -kInf) return kInf;
    if (std::fabs(p - d) < 1e-9) return 0.0;
    return std::fabs(p - d) / std::max(1e-9, std::fabs(p));
}

// ---------------------------------------------------------------------------
// Setup / presolve
// ---------------------------------------------------------------------------

void Solver::initSolve() {
    if (phase_ != Phase::Setup) return;
    const int n = model_.numVars();
    rootLb_.resize(n);
    rootUb_.resize(n);
    for (int j = 0; j < n; ++j) {
        rootLb_[j] = model_.var(j).lb;
        rootUb_[j] = model_.var(j).ub;
    }
    // Apply transferred bound changes before presolving: this is what makes
    // layered presolving effective deep in the tree.
    for (const BoundChange& bc : rootDesc_.boundChanges) {
        if (bc.var < 0 || bc.var >= n) continue;
        rootLb_[bc.var] = std::max(rootLb_[bc.var], bc.lb);
        rootUb_[bc.var] = std::min(rootUb_[bc.var], bc.ub);
    }
    rng_.seed(static_cast<std::uint64_t>(
        params_.getInt("randomization/permutationseed", 0)));
    pseudo_.assign(n, {});
    cutPool_.clear();
    dropPendingCuts();
    managedRows_.clear();
    lpBuilt_ = false;
    lpDualsFresh_ = false;
    incumbent_ = {};
    cutoff_ = kInf;
    stats_ = {};
    open_.clear();
    processing_.reset();
    nextNodeId_ = 0;

    phase_ = Phase::Presolving;
    curLb_ = rootLb_;
    curUb_ = rootUb_;
    bool infeasible = false;
    for (int j = 0; j < n && !infeasible; ++j)
        if (curLb_[j] > curUb_[j] + kBoundTol) infeasible = true;
    if (!infeasible && params_.getBool("presolving/enabled", true)) {
        runPresolve();
        if (status_ == Status::Infeasible) {
            phase_ = Phase::Done;
            return;
        }
    }
    rootLb_ = curLb_;
    rootUb_ = curUb_;
    if (infeasible) {
        status_ = Status::Infeasible;
        phase_ = Phase::Done;
        return;
    }

    auto root = std::make_unique<Node>();
    root->id = nextNodeId_++;
    root->desc = rootDesc_;
    root->lowerBound = rootDesc_.lowerBound;
    root->estimate = rootDesc_.lowerBound;
    open_.push_back(std::move(root));
    ++stats_.nodesCreated;
    phase_ = Phase::Solving;
}

void Solver::runPresolve() {
    for (int round = 0; round < kPresolveMaxRounds; ++round) {
        bool reduced = false;
        // Built-in linear bound tightening participates in presolving.
        ReduceResult r = linearPropagation();
        if (r == ReduceResult::Infeasible) {
            status_ = Status::Infeasible;
            return;
        }
        reduced |= (r == ReduceResult::Reduced);
        for (auto& p : presolvers_) {
            r = p->presolve(*this);
            if (r == ReduceResult::Infeasible) {
                status_ = Status::Infeasible;
                return;
            }
            reduced |= (r == ReduceResult::Reduced);
        }
        if (!reduced) break;
    }
}

// ---------------------------------------------------------------------------
// LP management
// ---------------------------------------------------------------------------

void Solver::buildLp() {
    lp::LpModel lpm;
    const int n = model_.numVars();
    for (int j = 0; j < n; ++j)
        lpm.addCol(model_.var(j).obj, curLb_[j], curUb_[j]);
    for (int i = 0; i < model_.numRows(); ++i) lpm.addRow(model_.row(i));
    for (PoolCut& pc : cutPool_) pc.lpIndex = lpm.addRow(pc.row);
    for (ManagedRow& mr : managedRows_)
        mr.lpIndex = lpm.addRow(mr.row);
    // Dual pricing rule: "auto" (default) uses exact dual steepest-edge for
    // bound-changed resolves and devex for cold solves (see solveLp);
    // "devex"/"dse" pin the rule for comparison runs.
    const std::string pricing = params_.getString("lp/pricing", "auto");
    lpPricingAuto_ = (pricing == "auto");
    lp_.setPricing(pricing == "dse" ? lp::Pricing::DSE : lp::Pricing::Devex);
    lp_.load(lpm);
    lpLb_ = curLb_;
    lpUb_ = curUb_;
    lpBuilt_ = true;
    lpSolutionValid_ = false;
    lpDualsFresh_ = false;
}

lp::SolveStatus Solver::flushPendingCutsToLp() {
    if (pendingCuts_.empty()) return lp::SolveStatus::Optimal;
    const int base = lp_.numRows();
    const long before = lp_.iterations();
    const lp::SolveStatus st = lp_.addRowsAndResolve(pendingCuts_);
    stats_.lpIterations += lp_.iterations() - before;
    syncLpStats();
    pendingCost_ += lp_.iterations() - before;
    lpDualsFresh_ = (st == lp::SolveStatus::Optimal);
    for (std::size_t k = 0; k < pendingCuts_.size(); ++k) {
        PoolCut pc;
        pc.row = std::move(pendingCuts_[k]);
        pc.supportId = pendingSupportIds_[k];
        pc.lpIndex = base + static_cast<int>(k);
        cutPool_.push_back(std::move(pc));
    }
    pendingCuts_.clear();
    pendingSupportIds_.clear();
    return st;
}

void Solver::manageCutPool() {
    if (cutPool_.empty()) return;
    // Age cuts using the duals of the last optimal LP basis: a cut with a
    // (near-)zero dual multiplier was not binding. Aging needs both a built
    // LP (so lpIndex values are row positions, see the PoolCut invariant)
    // and fresh duals — if the last (re)solve failed (NumericalTrouble,
    // iteration limit, infeasible probe), the stored duals are stale
    // garbage and must not drive cut deletion. Dominance retirement below
    // is independent of either condition.
    if (lpBuilt_ && lpDualsFresh_) {
        const auto& duals = lp_.duals();
        for (PoolCut& pc : cutPool_) {
            if (pc.lpIndex < 0 || pc.lpIndex >= static_cast<int>(duals.size()))
                continue;
            // Cache the magnitude for overflow scoring: when a later prune
            // runs with stale duals, the last fresh price is still a far
            // better importance signal than falling back to aging.
            pc.lastDual = std::fabs(duals[pc.lpIndex]);
            if (pc.lastDual > 1e-9)
                pc.age = 0;
            else
                ++pc.age;
        }
    }

    bool anyRetired = false;
    for (const PoolCut& pc : cutPool_)
        if (pc.retired) {
            anyRetired = true;
            break;
        }

    // Overflow pruning down to "separating/maxpoolsize". The keep-set is
    // chosen by greedy dual-magnitude + orthogonality selection: a cut's
    // base score |y_i| * ||a_i||_2 measures how hard the last optimal basis
    // leaned on it (scale-invariant: scaling a row scales its dual
    // inversely), and the orthogonality term keeps the survivors from being
    // near-parallel copies of one strong cut — a bundle of parallel binding
    // rows prices like one row but costs many. The dual magnitudes come
    // from each cut's cached last-fresh price (PoolCut::lastDual, refreshed
    // by the aging loop above whenever the duals are fresh), so the rule
    // stays active even when the *current* duals are stale — the old code
    // degraded to age-based eviction then. Only when no cut has ever been
    // priced by a fresh basis (lastDual < 0 everywhere) does the fallback
    // drop long-non-binding cuts (age >= 2, oldest first), as many as
    // needed.
    const int maxPool = params_.getInt("separating/maxpoolsize", 300);
    const int overflow = static_cast<int>(cutPool_.size()) - maxPool;
    std::vector<char> drop(cutPool_.size(), 0);
    int toDrop = 0;
    bool anyDualSeen = false;
    if (overflow > 0)
        for (const PoolCut& pc : cutPool_)
            if (!pc.retired && pc.lastDual >= 0.0) {
                anyDualSeen = true;
                break;
            }
    if (overflow > 0 && anyDualSeen) {
        std::vector<std::size_t> cand;   // non-retired pool indices
        std::vector<double> norm, base;  // ||a_i||_2, |y_i| * ||a_i||_2
        for (std::size_t i = 0; i < cutPool_.size(); ++i) {
            const PoolCut& pc = cutPool_[i];
            if (pc.retired) continue;
            double n2 = 0.0;
            for (const auto& [j, a] : pc.row.coefs) n2 += a * a;
            const double nrm = std::sqrt(std::max(n2, 1e-30));
            const double y = std::max(pc.lastDual, 0.0);
            cand.push_back(i);
            norm.push_back(nrm);
            base.push_back(y * nrm);
        }
        const int nKeep =
            std::max(0, static_cast<int>(cand.size()) - overflow);
        double maxBase = 0.0;
        for (double b : base) maxBase = std::max(maxBase, b);
        if (maxBase <= 0.0) maxBase = 1.0;  // all duals zero: pure diversity
        // Greedy keep-set: pick the best score = dual/maxDual + 0.5 * ortho,
        // where ortho starts at 1 and shrinks to min(ortho, 1 - |cos|)
        // against every already-kept row. Dot products go through a dense
        // scatter of the freshly kept row, O(sum nnz) per round.
        std::vector<double> ortho(cand.size(), 1.0);
        std::vector<char> kept(cand.size(), 0);
        std::vector<double> dense(static_cast<std::size_t>(model_.numVars()),
                                  0.0);
        for (int pick = 0; pick < nKeep; ++pick) {
            int best = -1;
            double bestScore = -1.0;
            for (std::size_t k = 0; k < cand.size(); ++k) {
                if (kept[k]) continue;
                const double s = base[k] / maxBase + 0.5 * ortho[k];
                if (s > bestScore) {
                    bestScore = s;
                    best = static_cast<int>(k);
                }
            }
            if (best < 0) break;
            kept[best] = 1;
            const Row& rb = cutPool_[cand[best]].row;
            for (const auto& [j, a] : rb.coefs) dense[j] = a;
            for (std::size_t k = 0; k < cand.size(); ++k) {
                if (kept[k]) continue;
                double dot = 0.0;
                for (const auto& [j, a] : cutPool_[cand[k]].row.coefs)
                    dot += a * dense[j];
                const double cosv =
                    std::fabs(dot) / (norm[best] * norm[k]);
                ortho[k] = std::min(ortho[k], 1.0 - std::min(cosv, 1.0));
            }
            for (const auto& [j, a] : rb.coefs) {
                (void)a;
                dense[j] = 0.0;
            }
        }
        for (std::size_t k = 0; k < cand.size(); ++k)
            if (!kept[k]) {
                drop[cand[k]] = 1;
                ++toDrop;
            }
    } else if (overflow > 0) {
        std::vector<std::pair<int, std::size_t>> byAge;
        for (std::size_t i = 0; i < cutPool_.size(); ++i)
            if (!cutPool_[i].retired && cutPool_[i].age >= 2)
                byAge.emplace_back(cutPool_[i].age, i);
        std::stable_sort(byAge.begin(), byAge.end(),
                         [](const auto& a, const auto& b) {
                             return a.first > b.first;
                         });
        for (const auto& [age, i] : byAge) {
            if (toDrop >= overflow) break;
            (void)age;
            drop[i] = 1;
            ++toDrop;
        }
    }
    if (!anyRetired && toDrop == 0) return;

    std::vector<PoolCut> kept;
    kept.reserve(cutPool_.size() - static_cast<std::size_t>(toDrop));
    for (std::size_t i = 0; i < cutPool_.size(); ++i) {
        PoolCut& pc = cutPool_[i];
        if (pc.retired) {
            // Dominance-retired: its support already left the index.
            ++stats_.cutsRetired;
        } else if (drop[i]) {
            // Overflow drop: unindex the support, so the cut is admitted
            // again if it re-violates.
            unindexCut(pc.supportId);
            ++stats_.cutsRetired;
        } else {
            kept.push_back(std::move(pc));
        }
    }
    cutPool_ = std::move(kept);
    // The LP still carries the dropped rows until the lazy rebuild; until
    // then no pool cut may claim an LP position (leaving the pre-prune row
    // ids in place here is exactly the stale-index bug this replaces).
    for (PoolCut& pc : cutPool_) pc.lpIndex = -1;
    lpBuilt_ = false;  // rebuilt lazily with the trimmed pool
}

int Solver::syncLpBounds() {
    if (!lpBuilt_) {
        buildLp();
        return model_.numVars();  // every bound is "new" to the fresh LP
    }
    const int n = model_.numVars();
    int changed = 0;
    for (int j = 0; j < n; ++j) {
        if (lpLb_[j] != curLb_[j] || lpUb_[j] != curUb_[j]) {
            lp_.changeBounds(j, curLb_[j], curUb_[j]);
            lpLb_[j] = curLb_[j];
            lpUb_[j] = curUb_[j];
            ++changed;
        }
    }
    return changed;
}

void Solver::syncLpStats() {
    stats_.lpFactorizations = lp_.factorizations();
    stats_.lpHyperSolves = lp_.hyperSolves();
    stats_.lpDenseSolves = lp_.denseSolves();
    stats_.lpSolveNnzSum = lp_.solveNnzSum();
}

lp::SolveStatus Solver::solveLp() {
    const int changedBounds = syncLpBounds();
    // Bound-change reoptimization (node jumps, branching, strong-branch
    // restores): devex restarts its reference weights and misprices the
    // early pivots, while DSE's exact row norms persist across the resolve.
    // Measured on the Steiner-cut LP family, DSE needs ~1.4-1.5x fewer
    // resolve iterations at every change depth from 1 to 64, so auto picks
    // it whenever any bound moved. Cold solves start in primal phase 1,
    // where the dual pricing rule is irrelevant — devex avoids DSE's extra
    // FTRAN per pivot in whatever dual cleanup follows.
    if (lpPricingAuto_)
        lp_.setPricing(changedBounds > 0 ? lp::Pricing::DSE
                                         : lp::Pricing::Devex);
    const long before = lp_.iterations();
    lp::SolveStatus st = lpSolutionValid_ ? lp_.resolve() : lp_.solve();
    lpSolutionValid_ = true;
    lpDualsFresh_ = (st == lp::SolveStatus::Optimal);
    const long used = lp_.iterations() - before;
    stats_.lpIterations += used;
    syncLpStats();
    pendingCost_ += used + 1;
    if (st == lp::SolveStatus::Optimal) lpObj_ = lp_.objective() + model_.objOffset;
    return st;
}

const std::vector<double>& Solver::lpDuals() const { return lp_.duals(); }
const std::vector<double>& Solver::lpRedcosts() const {
    return lp_.reducedCosts();
}
const std::vector<double>& Solver::lpPrimal() const { return lp_.primal(); }

// ---------------------------------------------------------------------------
// Bounds / propagation
// ---------------------------------------------------------------------------

ReduceResult Solver::tightenLb(int var, double v) {
    if (model_.var(var).isInt) v = std::ceil(v - kIntTol);
    if (v <= curLb_[var] + kBoundTol) return ReduceResult::Unchanged;
    curLb_[var] = v;
    if (curLb_[var] > curUb_[var] + kBoundTol) return ReduceResult::Infeasible;
    return ReduceResult::Reduced;
}

ReduceResult Solver::tightenUb(int var, double v) {
    if (model_.var(var).isInt) v = std::floor(v + kIntTol);
    if (v >= curUb_[var] - kBoundTol) return ReduceResult::Unchanged;
    curUb_[var] = v;
    if (curLb_[var] > curUb_[var] + kBoundTol) return ReduceResult::Infeasible;
    return ReduceResult::Reduced;
}

ReduceResult Solver::linearPropagation() {
    bool reduced = false;
    for (int i = 0; i < model_.numRows(); ++i) {
        const Row& row = model_.row(i);
        // Min/max activity from current bounds.
        double minAct = 0.0, maxAct = 0.0;
        bool minInf = false, maxInf = false;
        for (const auto& [j, a] : row.coefs) {
            const double lo = a > 0 ? curLb_[j] : curUb_[j];
            const double hi = a > 0 ? curUb_[j] : curLb_[j];
            if (lo <= -kInf || lo >= kInf)
                minInf = true;
            else
                minAct += a * lo;
            if (hi >= kInf || hi <= -kInf)
                maxInf = true;
            else
                maxAct += a * hi;
        }
        if (!minInf && minAct > row.rhs + kFeasTol) return ReduceResult::Infeasible;
        if (!maxInf && maxAct < row.lhs - kFeasTol) return ReduceResult::Infeasible;
        // Tighten each variable against both row sides.
        for (const auto& [j, a] : row.coefs) {
            if (a == 0.0) continue;
            const double lo = a > 0 ? curLb_[j] : curUb_[j];
            const double hi = a > 0 ? curUb_[j] : curLb_[j];
            // Upper side: a_j x_j <= rhs - (minAct - contribution of j).
            if (!minInf && row.rhs < kInf) {
                const double rest = minAct - a * lo;
                const double limit = (row.rhs - rest) / a;
                ReduceResult r = a > 0 ? tightenUb(j, limit) : tightenLb(j, limit);
                if (r == ReduceResult::Infeasible) return r;
                reduced |= (r == ReduceResult::Reduced);
            }
            // Lower side: a_j x_j >= lhs - (maxAct - contribution of j).
            if (!maxInf && row.lhs > -kInf) {
                const double rest = maxAct - a * hi;
                const double limit = (row.lhs - rest) / a;
                ReduceResult r = a > 0 ? tightenLb(j, limit) : tightenUb(j, limit);
                if (r == ReduceResult::Infeasible) return r;
                reduced |= (r == ReduceResult::Reduced);
            }
        }
    }
    return reduced ? ReduceResult::Reduced : ReduceResult::Unchanged;
}

ReduceResult Solver::reducedCostFixing() {
    // Requires a solved LP and a finite cutoff.
    if (cutoff_ >= kInf || !lpSolutionValid_) return ReduceResult::Unchanged;
    if (!params_.getBool("propagating/redcostfix", true))
        return ReduceResult::Unchanged;
    const double gapAbs = cutoff_ - cutoffSlack() - lpObj_;
    if (gapAbs <= 0) return ReduceResult::Unchanged;
    ++stats_.redcostCalls;
    // Cutoff-derived tightenings stay valid in the whole subtree (the
    // incumbent only improves below this node), so children inherit them
    // through the subproblem description (recordInheritedBound) instead of
    // rediscovering them from scratch at every descendant.
    bool reduced = false;
    const auto& rc = lp_.reducedCosts();
    const auto& x = lp_.primal();
    const int n = model_.numVars();
    for (int j = 0; j < n && j < static_cast<int>(rc.size()); ++j) {
        if (curUb_[j] - curLb_[j] < kBoundTol) continue;
        // Nonbasic at lower with positive reduced cost: raising x_j by t
        // costs rc[j] * t; fix ub if even max useful move exceeds the gap.
        // Note the tightened bound always stays on the far side of the
        // current LP value (maxMove >= 0 from the nonbasic bound), so these
        // reductions never exclude the LP optimum.
        ReduceResult r = ReduceResult::Unchanged;
        if (rc[j] > 1e-9 && x[j] <= curLb_[j] + kIntTol) {
            const double maxMove = gapAbs / rc[j];
            r = tightenUb(j, curLb_[j] + maxMove);
        } else if (rc[j] < -1e-9 && x[j] >= curUb_[j] - kIntTol) {
            const double maxMove = gapAbs / (-rc[j]);
            r = tightenLb(j, curUb_[j] - maxMove);
        }
        if (r == ReduceResult::Infeasible) return r;
        if (r == ReduceResult::Reduced) {
            reduced = true;
            ++stats_.redcostTightenings;
            if (curUb_[j] - curLb_[j] < kBoundTol) ++stats_.redcostFixings;
            recordInheritedBound(j);
        }
    }
    return reduced ? ReduceResult::Reduced : ReduceResult::Unchanged;
}

ReduceResult Solver::propagateRounds() {
    const int maxRounds = params_.getInt("propagating/maxrounds", 5);
    bool any = false;
    for (int round = 0; round < maxRounds; ++round) {
        bool reduced = false;
        ReduceResult r = linearPropagation();
        if (r == ReduceResult::Infeasible) return r;
        reduced |= (r == ReduceResult::Reduced);
        for (auto& p : propagators_) {
            r = p->propagate(*this);
            if (r == ReduceResult::Infeasible) return r;
            reduced |= (r == ReduceResult::Reduced);
        }
        if (!reduced) break;
        any = true;
    }
    return any ? ReduceResult::Reduced : ReduceResult::Unchanged;
}

// ---------------------------------------------------------------------------
// Solutions
// ---------------------------------------------------------------------------

bool Solver::isIntegral(const std::vector<double>& x) const {
    for (int j = 0; j < model_.numVars(); ++j) {
        if (!model_.var(j).isInt) continue;
        const double f = x[j] - std::floor(x[j]);
        if (f > kIntTol && f < 1.0 - kIntTol) return false;
    }
    return true;
}

bool Solver::checkSolutionFeasible(const std::vector<double>& x, double* objOut) {
    if (static_cast<int>(x.size()) != model_.numVars()) return false;
    double obj = model_.objOffset;
    for (int j = 0; j < model_.numVars(); ++j) {
        const Var& v = model_.var(j);
        if (x[j] < v.lb - kFeasTol || x[j] > v.ub + kFeasTol) return false;
        if (v.isInt) {
            const double f = x[j] - std::floor(x[j]);
            if (f > kIntTol && f < 1.0 - kIntTol) return false;
        }
        obj += v.obj * x[j];
    }
    for (int i = 0; i < model_.numRows(); ++i) {
        const Row& r = model_.row(i);
        const double a = r.activity(x);
        if (a < r.lhs - kFeasTol || a > r.rhs + kFeasTol) return false;
    }
    for (auto& h : conshdlrs_)
        if (!h->check(*this, x)) return false;
    if (objOut) *objOut = obj;
    return true;
}

bool Solver::submitSolution(Solution sol) {
    // Snap integers to exact values first.
    for (int j = 0; j < model_.numVars() &&
                    j < static_cast<int>(sol.x.size());
         ++j)
        if (model_.var(j).isInt) sol.x[j] = std::round(sol.x[j]);
    double obj = 0.0;
    if (!checkSolutionFeasible(sol.x, &obj)) return false;
    if (incumbent_.valid() && obj >= incumbent_.obj - 1e-9) return false;
    sol.obj = obj;
    incumbent_ = sol;
    cutoff_ = obj;
    ++stats_.solutionsFound;
    for (auto& e : eventhdlrs_) e->onIncumbent(*this, incumbent_);
    if (incumbentCallback_) incumbentCallback_(incumbent_);
    pruneOpenNodes();
    return true;
}

void Solver::injectSolution(const Solution& sol) {
    if (!sol.valid()) return;
    if (incumbent_.valid() && sol.obj >= incumbent_.obj - 1e-12) return;
    // Trust transferred solutions only if they verify locally; a transferred
    // solution can be infeasible for a *subproblem*'s bounds, in which case
    // we still adopt its objective as a cutoff.
    Solution s = sol;
    double obj = 0.0;
    if (checkSolutionFeasible(s.x, &obj)) {
        s.obj = obj;
        if (!incumbent_.valid() || obj < incumbent_.obj - 1e-12) {
            incumbent_ = s;
            cutoff_ = obj;
            ++stats_.solutionsFound;
            pruneOpenNodes();
        }
    } else {
        cutoff_ = std::min(cutoff_, sol.obj);
        pruneOpenNodes();
    }
}

void Solver::pruneOpenNodes() {
    if (cutoff_ >= kInf) return;
    const double limit = cutoff_ - cutoffSlack() + 1e-12;
    std::erase_if(open_, [&](const NodePtr& n) {
        return n->lowerBound >= limit;
    });
}

// ---------------------------------------------------------------------------
// Heuristics
// ---------------------------------------------------------------------------

std::optional<Solution> Solver::roundingHeuristic(const std::vector<double>& x) {
    Solution s;
    s.x = x;
    for (int j = 0; j < model_.numVars(); ++j)
        if (model_.var(j).isInt) s.x[j] = std::round(s.x[j]);
    double obj = 0.0;
    if (!checkSolutionFeasible(s.x, &obj)) return std::nullopt;
    s.obj = obj;
    return s;
}

std::optional<Solution> Solver::divingHeuristic(const std::vector<double>& x0) {
    // LP diving: repeatedly bound the most fractional integer variable to its
    // nearest integer and resolve, up to a depth limit. All bound changes are
    // rolled back afterwards.
    std::vector<double> saveLb = curLb_, saveUb = curUb_;
    std::vector<double> x = x0;
    std::optional<Solution> found;
    for (int d = 0; d < kDivingMaxDepth; ++d) {
        const int j = mostFractionalVar(x);
        if (j < 0) {
            // Integral: candidate.
            Solution s;
            s.x = x;
            double obj = 0.0;
            for (int k = 0; k < model_.numVars(); ++k)
                if (model_.var(k).isInt) s.x[k] = std::round(s.x[k]);
            if (checkSolutionFeasible(s.x, &obj)) {
                s.obj = obj;
                found = s;
            }
            break;
        }
        const double v = std::round(x[j]);
        curLb_[j] = v;
        curUb_[j] = v;
        if (solveLp() != lp::SolveStatus::Optimal) break;
        if (cutoff_ < kInf && lpObj_ >= cutoff_ - cutoffSlack()) break;
        x = lp_.primal();
    }
    curLb_ = saveLb;
    curUb_ = saveUb;
    // Restore the LP to the node's state for subsequent separation.
    if (solveLp() != lp::SolveStatus::Optimal) lpSolutionValid_ = false;
    return found;
}

void Solver::runHeuristics(const std::vector<double>& relaxSol) {
    const int freq = params_.getInt("heuristics/freq", 5);
    const int depth = processing_ ? processing_->depth : 0;
    const bool runHere = freq > 0 ? (depth % freq == 0) : depth == 0;
    if (!runHere) return;
    if (auto s = roundingHeuristic(relaxSol)) submitSolution(std::move(*s));
    if (!relaxator_ && params_.getBool("heuristics/diving/enabled", true)) {
        if (auto s = divingHeuristic(relaxSol)) submitSolution(std::move(*s));
    }
    for (auto& h : heuristics_) {
        if (auto s = h->run(*this, relaxSol)) submitSolution(std::move(*s));
    }
}

// ---------------------------------------------------------------------------
// Branching
// ---------------------------------------------------------------------------

int Solver::mostFractionalVar(const std::vector<double>& x) const {
    int best = -1;
    double bestScore = kIntTol;
    for (int j = 0; j < model_.numVars(); ++j) {
        if (!model_.var(j).isInt) continue;
        const double f = x[j] - std::floor(x[j]);
        const double score = std::min(f, 1.0 - f);
        if (score > bestScore) {
            bestScore = score;
            best = j;
        }
    }
    return best;
}

int Solver::pseudocostVar(const std::vector<double>& x) const {
    int best = -1;
    double bestScore = -1.0;
    for (int j = 0; j < model_.numVars(); ++j) {
        if (!model_.var(j).isInt) continue;
        const double f = x[j] - std::floor(x[j]);
        if (f <= kIntTol || f >= 1.0 - kIntTol) continue;
        const PseudoCost& pc = pseudo_[j];
        const double upUnit =
            pc.upCount > 0 ? pc.upSum / pc.upCount
                           : std::fabs(model_.var(j).obj) + 1.0;
        const double downUnit =
            pc.downCount > 0 ? pc.downSum / pc.downCount
                             : std::fabs(model_.var(j).obj) + 1.0;
        const double up = upUnit * (1.0 - f);
        const double down = downUnit * f;
        const double score =
            std::max(up, 1e-6) * std::max(down, 1e-6);
        if (score > bestScore) {
            bestScore = score;
            best = j;
        }
    }
    return best;
}

int Solver::strongBranchingVar(const std::vector<double>& x) {
    if (!lpBuilt_ || !lpSolutionValid_) return -1;
    // Candidates: fractional integer variables, most fractional first.
    std::vector<std::pair<double, int>> cands;
    for (int j = 0; j < model_.numVars(); ++j) {
        if (!model_.var(j).isInt) continue;
        const double f = x[j] - std::floor(x[j]);
        if (f <= kIntTol || f >= 1.0 - kIntTol) continue;
        cands.emplace_back(std::min(f, 1.0 - f), j);
    }
    if (cands.empty()) return -1;
    std::sort(cands.rbegin(), cands.rend());
    if (static_cast<int>(cands.size()) > kStrongMaxCands)
        cands.resize(kStrongMaxCands);

    const lp::Basis preProbe = lp_.basis();
    if (!preProbe.valid()) return -1;
    const double baseObj = lpObj_;
    const long savedLimit = lp_.iterLimit();
    lp_.setIterLimit(kStrongProbeIterLimit);

    int best = -1;
    double bestScore = -1.0;
    for (const auto& [fracScore, j] : cands) {
        (void)fracScore;
        const double f = x[j] - std::floor(x[j]);
        const double lb0 = lpLb_[j], ub0 = lpUb_[j];
        auto probe = [&](bool up) {
            if (up)
                lp_.changeBounds(j, std::ceil(x[j]), ub0);
            else
                lp_.changeBounds(j, lb0, std::floor(x[j]));
            const long before = lp_.iterations();
            const lp::SolveStatus st = lp_.resolve();
            const long used = lp_.iterations() - before;
            stats_.lpIterations += used;
            syncLpStats();
            pendingCost_ += used + 1;
            ++stats_.strongBranchProbes;
            double gain = 0.0;
            if (st == lp::SolveStatus::Infeasible)
                gain = 1e12;  // that child would be pruned outright
            else if (st == lp::SolveStatus::Optimal)
                gain = std::max(
                    0.0, lp_.objective() + model_.objOffset - baseObj);
            // Undo the probe: restore the bounds and the pre-probe basis
            // (one refactorization, zero pivots) instead of re-solving the
            // node LP from wherever the probe ended.
            lp_.changeBounds(j, lb0, ub0);
            if (!lp_.loadBasis(preProbe)) lp_.resolve();
            // Feed the observed per-unit gain into the pseudocosts.
            if (st == lp::SolveStatus::Optimal) {
                const double dist = up ? (1.0 - f) : f;
                if (dist > 1e-9) {
                    PseudoCost& pc = pseudo_[j];
                    if (up) {
                        pc.upSum += gain / dist;
                        ++pc.upCount;
                    } else {
                        pc.downSum += gain / dist;
                        ++pc.downCount;
                    }
                }
            }
            return gain;
        };
        const double down = probe(false);
        const double upg = probe(true);
        const double score = std::max(down, 1e-6) * std::max(upg, 1e-6);
        if (score > bestScore) {
            bestScore = score;
            best = j;
        }
    }
    lp_.setIterLimit(savedLimit);
    // The LP holds the restored pre-probe basis but its solution arrays are
    // stale (from the last probe): not a source of duals for cut aging.
    lpDualsFresh_ = false;
    return best;
}

void Solver::updatePseudocost(const Node& node, double lpObj) {
    if (node.branchVar < 0 || node.parentRelaxObj <= -kInf) return;
    const double gain = std::max(0.0, lpObj - node.parentRelaxObj);
    PseudoCost& pc = pseudo_[node.branchVar];
    const double frac = node.branchUp ? (1.0 - node.branchFrac) : node.branchFrac;
    if (frac < 1e-9) return;
    if (node.branchUp) {
        pc.upSum += gain / frac;
        ++pc.upCount;
    } else {
        pc.downSum += gain / frac;
        ++pc.downCount;
    }
}

void Solver::branchOn(const BranchDecision& dec, const std::vector<double>& x) {
    const Node& parent = *processing_;
    // Snapshot the node's final LP basis once; all children share it as
    // their warm-start point (lp::Basis is immutable after creation).
    std::shared_ptr<const lp::Basis> snap;
    if (lpBuilt_ && lpSolutionValid_ &&
        params_.getBool("lp/warmstart", true)) {
        lp::Basis b = lp_.basis();
        if (b.valid()) snap = std::make_shared<const lp::Basis>(std::move(b));
    }
    auto makeChild = [&]() {
        auto child = std::make_unique<Node>();
        child->id = nextNodeId_++;
        child->depth = parent.depth + 1;
        child->lowerBound = parent.lowerBound;
        child->estimate = parent.lowerBound;
        child->desc = parent.desc;
        child->desc.lowerBound = parent.lowerBound;
        child->parentRelaxObj = parent.lowerBound;
        child->warmBasis = snap;
        stats_.maxDepth = std::max(stats_.maxDepth, child->depth);
        ++stats_.nodesCreated;
        return child;
    };

    if (dec.isVarBranch()) {
        const int j = dec.var;
        const double v = dec.point;
        const double f = v - std::floor(v);
        // Down child: x_j <= floor(v).
        auto down = makeChild();
        down->desc.boundChanges.push_back(
            {j, curLb_[j], std::floor(v)});
        down->branchVar = j;
        down->branchFrac = f;
        down->branchUp = false;
        // Up child: x_j >= ceil(v).
        auto up = makeChild();
        up->desc.boundChanges.push_back({j, std::ceil(v), curUb_[j]});
        up->branchVar = j;
        up->branchFrac = f;
        up->branchUp = true;
        // Plunge order: process the child on the side of the LP value first
        // under DFS (pushed last).
        if (f > 0.5) {
            open_.push_back(std::move(down));
            open_.push_back(std::move(up));
        } else {
            open_.push_back(std::move(up));
            open_.push_back(std::move(down));
        }
        (void)x;
        return;
    }

    for (const BranchDecision::Child& c : dec.children) {
        auto child = makeChild();
        for (const BoundChange& bc : c.boundChanges)
            child->desc.boundChanges.push_back(bc);
        for (const CustomBranch& cb : c.customBranches)
            child->desc.customBranches.push_back(cb);
        open_.push_back(std::move(child));
    }
}

// ---------------------------------------------------------------------------
// Node selection
// ---------------------------------------------------------------------------

NodePtr Solver::popNextNode() {
    if (open_.empty()) return nullptr;
    const std::string sel = params_.getString("nodeselection", "bestbound");
    std::size_t pick = open_.size() - 1;  // dfs default: newest node
    if (sel == "bestbound") {
        double best = kInf;
        for (std::size_t i = 0; i < open_.size(); ++i) {
            if (open_[i]->lowerBound < best - 1e-12 ||
                (open_[i]->lowerBound < best + 1e-12 &&
                 open_[i]->depth > open_[pick]->depth)) {
                best = open_[i]->lowerBound;
                pick = i;
            }
        }
    } else if (sel == "estimate") {
        double best = kInf;
        for (std::size_t i = 0; i < open_.size(); ++i) {
            if (open_[i]->estimate < best) {
                best = open_[i]->estimate;
                pick = i;
            }
        }
    }
    NodePtr node = std::move(open_[pick]);
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(pick));
    return node;
}

void Solver::applyNodeBounds(const Node& node) {
    curLb_ = rootLb_;
    curUb_ = rootUb_;
    for (const BoundChange& bc : node.desc.boundChanges) {
        curLb_[bc.var] = std::max(curLb_[bc.var], bc.lb);
        curUb_[bc.var] = std::min(curUb_[bc.var], bc.ub);
    }
    for (auto& h : conshdlrs_) h->nodeActivated(*this);
}

// ---------------------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------------------

bool Solver::finished() const { return phase_ == Phase::Done; }

void Solver::finishIfDone() {
    if (phase_ == Phase::Done) return;
    if (interrupt_ && interrupt_->load(std::memory_order_relaxed)) {
        status_ = Status::Interrupted;
        phase_ = Phase::Done;
        return;
    }
    const double nodeLimit = params_.getReal("limits/nodes", 1e18);
    if (static_cast<double>(stats_.nodesProcessed) >= nodeLimit) {
        status_ = Status::NodeLimit;
        phase_ = Phase::Done;
        return;
    }
    const double costLimit = params_.getReal("limits/cost", 1e18);
    if (static_cast<double>(stats_.totalCost) >= costLimit) {
        status_ = Status::CostLimit;
        phase_ = Phase::Done;
        return;
    }
    const double gapLimit = params_.getReal("limits/gap", 0.0);
    if (gapLimit > 0.0 && gap() <= gapLimit) {
        status_ = Status::GapLimit;
        phase_ = Phase::Done;
        return;
    }
    if (open_.empty() && !processing_) {
        status_ = incumbent_.valid() ? Status::Optimal : Status::Infeasible;
        phase_ = Phase::Done;
    }
}

std::int64_t Solver::step() {
    if (phase_ == Phase::Setup) initSolve();
    if (phase_ == Phase::Done) return 0;
    pendingCost_ = 0;

    finishIfDone();
    if (phase_ == Phase::Done) return 0;

    processing_ = popNextNode();
    if (!processing_) {
        finishIfDone();
        return 0;
    }
    Node& node = *processing_;
    const bool isRootNode = (stats_.nodesProcessed == 0);
    ++stats_.nodesProcessed;
    pendingCost_ += 1;

    auto leaveNode = [&]() {
        processing_.reset();
        stats_.totalCost += pendingCost_;
        if (isRootNode) stats_.rootCost = pendingCost_;
        for (auto& e : eventhdlrs_) e->onNodeProcessed(*this);
        finishIfDone();
    };

    // Cutoff check on entry.
    if (cutoff_ < kInf && node.lowerBound >= cutoff_ - cutoffSlack() + 1e-12) {
        leaveNode();
        return pendingCost_;
    }

    manageCutPool();
    applyNodeBounds(node);

    // Domain propagation.
    if (propagateRounds() == ReduceResult::Infeasible) {
        leaveNode();
        return pendingCost_;
    }

    // Relaxation loop.
    std::vector<double> relaxSol;
    bool pruned = false;
    if (relaxator_) {
        RelaxResult rr = relaxator_->solveRelaxation(*this);
        if (rr.status == RelaxResult::Status::Infeasible) {
            pruned = true;
        } else if (rr.status == RelaxResult::Status::Solved) {
            node.lowerBound = std::max(node.lowerBound, rr.bound);
            updatePseudocost(node, rr.bound);
            if (cutoff_ < kInf &&
                node.lowerBound >= cutoff_ - cutoffSlack() + 1e-12)
                pruned = true;
            else
                relaxSol = std::move(rr.x);
        } else {
            // Relaxator failed (numerical breakdown). Shrink the domain by
            // branching on an unfixed integer variable so the subproblems
            // get easier; a node with every integer fixed is dropped and
            // counted — coverage of such a node cannot be certified.
            int j = -1;
            for (int v = 0; v < model_.numVars(); ++v) {
                if (model_.var(v).isInt && curUb_[v] - curLb_[v] > 0.5) {
                    j = v;
                    break;
                }
            }
            if (j >= 0) {
                BranchDecision dec;
                dec.var = j;
                dec.point = 0.5 * (curLb_[j] + curUb_[j]);
                // Guard against an integral midpoint (floor==ceil children).
                if (dec.point == std::floor(dec.point)) dec.point += 0.5;
                std::vector<double> dummy(model_.numVars(), 0.0);
                branchOn(dec, dummy);
            } else {
                ++stats_.numericalFailures;
            }
            pruned = true;
        }
    } else {
        // Warm start: restore the parent's optimal basis before the first
        // LP of this node. Under DFS plunging the LP often still holds that
        // basis, but after a best-bound jump this is what turns the node's
        // first solve into a short dual reoptimization instead of a cold
        // phase-1/2 run.
        if (node.warmBasis && params_.getBool("lp/warmstart", true)) {
            syncLpBounds();  // may rebuild the LP if the cut pool changed
            if (lpBuilt_ && lp_.loadBasis(*node.warmBasis)) {
                lpSolutionValid_ = true;
                ++stats_.basisWarmStarts;
            }
        }
        // Deeper nodes separate less aggressively (cuts are most valuable
        // near the root, and every extra row makes the LP pricier).
        const int maxSepaRounds =
            node.depth == 0
                ? params_.getInt("separating/maxroundsroot",
                                 2 * params_.getInt("separating/maxrounds", 10))
                : params_.getInt("separating/maxrounds", 10);
        int round = 0;
        double lastObj = -kInf;
        while (true) {
            lp::SolveStatus st = solveLp();
            if (st == lp::SolveStatus::Infeasible) {
                pruned = true;
                break;
            }
            if (st == lp::SolveStatus::Unbounded) {
                // Only possible at the root of a bounded MIP with unbounded
                // relaxation; treat as unbounded problem.
                status_ = Status::Unbounded;
                phase_ = Phase::Done;
                processing_.reset();
                return pendingCost_;
            }
            if (st != lp::SolveStatus::Optimal) {
                pruned = true;  // numerical trouble: drop the node (safe only
                                // with a finite cutoff; rare at our scale)
                break;
            }
            node.lowerBound = std::max(node.lowerBound, lpObj_);
            if (round == 0) updatePseudocost(node, lpObj_);
            if (cutoff_ < kInf &&
                node.lowerBound >= cutoff_ - cutoffSlack() + 1e-12) {
                pruned = true;
                break;
            }
            relaxSol = lp_.primal();

            // Reduced-cost fixing. Every bound it tightens stops at or
            // beyond the variable's current (nonbasic) LP value, so the LP
            // optimum stays feasible and no re-solve is needed — the new
            // bounds reach the LP with the next syncLpBounds().
            if (reducedCostFixing() == ReduceResult::Infeasible) {
                pruned = true;
                break;
            }

            // LP-aware plugin propagation (same contract: reductions must
            // keep the current LP optimum feasible, see Propagator docs).
            if (cutoff_ < kInf && lpDualsFresh_) {
                bool lpPropInfeas = false;
                for (auto& p : propagators_) {
                    const ReduceResult r = p->propagateLp(*this);
                    if (r == ReduceResult::Infeasible) {
                        lpPropInfeas = true;
                        break;
                    }
                }
                if (lpPropInfeas) {
                    pruned = true;
                    break;
                }
            }

            if (round >= maxSepaRounds) break;
            // Separation: plugins first, then constraint handlers.
            dropPendingCuts();
            int cuts = 0;
            for (auto& s : separators_) cuts += s->separate(*this, relaxSol);
            for (auto& h : conshdlrs_) cuts += h->separate(*this, relaxSol);
            if (cuts == 0) break;
            stats_.cutsAdded += cuts;
            lp::SolveStatus rst = lp::SolveStatus::Optimal;
            if (!pendingCuts_.empty()) {
                rst = flushPendingCutsToLp();
            } else {
                // Cuts were contributed as managed rows (already in the LP);
                // re-optimize against them.
                const long before = lp_.iterations();
                rst = lp_.resolve();
                stats_.lpIterations += lp_.iterations() - before;
                syncLpStats();
                pendingCost_ += lp_.iterations() - before;
                lpDualsFresh_ = (rst == lp::SolveStatus::Optimal);
            }
            if (rst == lp::SolveStatus::Infeasible) {
                pruned = true;
                break;
            }
            if (rst != lp::SolveStatus::Optimal) break;
            lpObj_ = lp_.objective() + model_.objOffset;
            ++round;
            // LP-leanness sample: rows the LP carries after this round
            // (model rows + surviving pool cuts + managed rows).
            ++stats_.sepaRounds;
            stats_.sepaLpRowsSum += lp_.numRows();
            // Tailing off: stop separating on negligible improvement.
            // A negative threshold disables the stall exit, so separation
            // runs to its fixpoint (no violated cuts) or the round limit.
            const double tailOff =
                params_.getReal("separating/tailoffeps", 1e-7);
            if (tailOff >= 0.0 && lpObj_ < lastObj + tailOff && round > 2) {
                node.lowerBound = std::max(node.lowerBound, lpObj_);
                relaxSol = lp_.primal();
                break;
            }
            lastObj = lpObj_;
        }
    }

    if (pruned || relaxSol.empty()) {
        leaveNode();
        return pendingCost_;
    }

    // Primal heuristics.
    runHeuristics(relaxSol);
    if (cutoff_ < kInf && node.lowerBound >= cutoff_ - cutoffSlack() + 1e-12) {
        leaveNode();
        return pendingCost_;
    }

    // Integral? Then constraint handlers decide feasibility.
    if (isIntegral(relaxSol)) {
        bool allOk = true;
        for (auto& h : conshdlrs_) {
            if (!h->check(*this, relaxSol)) {
                allOk = false;
                break;
            }
        }
        if (allOk) {
            Solution s;
            s.x = relaxSol;
            submitSolution(std::move(s));
            leaveNode();
            return pendingCost_;
        }
        // Integral but violated: let handlers enforce (cut or branch).
        BranchDecision dec;
        int enforceCuts = 0;
        dropPendingCuts();
        for (auto& h : conshdlrs_) {
            enforceCuts += h->enforce(*this, relaxSol, dec);
            if (!dec.empty()) break;
        }
        if (enforceCuts > 0 && !lpBuilt_) {
            // No LP to carry cuts (relaxator mode): cuts cannot help here.
            dropPendingCuts();
            enforceCuts = 0;
        }
        if (enforceCuts > 0) {
            // Re-queue this node with its cuts in the pool (managed-row cuts
            // are already in the LP).
            stats_.cutsAdded += enforceCuts;
            flushPendingCutsToLp();
            auto requeue = std::make_unique<Node>();
            *requeue = node;
            requeue->id = nextNodeId_++;
            open_.push_back(std::move(requeue));
            leaveNode();
            return pendingCost_;
        }
        if (!dec.empty()) {
            branchOn(dec, relaxSol);
            leaveNode();
            return pendingCost_;
        }
        // Handler reported violation but offered no remedy: drop node to
        // avoid an infinite loop (counts as numerical failure).
        leaveNode();
        return pendingCost_;
    }

    // Fractional: branch. Plugin rules first.
    BranchDecision dec;
    for (auto& b : branchrules_) {
        dec = b->branch(*this, relaxSol);
        if (!dec.empty()) break;
    }
    if (dec.empty()) {
        const std::string rule = params_.getString("branching", "pseudocost");
        int j = -1;
        if (rule == "strong") j = strongBranchingVar(relaxSol);
        if (j < 0 && (rule == "pseudocost" || rule == "strong"))
            j = pseudocostVar(relaxSol);
        if (j < 0) j = mostFractionalVar(relaxSol);
        if (j >= 0) {
            dec.var = j;
            dec.point = relaxSol[j];
        }
    }
    if (!dec.empty()) {
        // Children inherit this node's relaxation bound for pseudocosts.
        branchOn(dec, relaxSol);
    }
    // If no branching candidate exists the solution must have been integral
    // (handled above); reaching here with dec.empty() means the relaxation
    // is integral-feasible for all handlers -> already submitted.
    leaveNode();
    return pendingCost_;
}

Status Solver::solve() {
    initSolve();
    while (!finished()) step();
    return status_;
}

std::optional<SubproblemDesc> Solver::extractOpenNode() {
    if (open_.empty()) return std::nullopt;
    // Heavy candidate: best (lowest) bound, tie-broken by lowest depth.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < open_.size(); ++i) {
        if (open_[i]->lowerBound < open_[pick]->lowerBound - 1e-12 ||
            (std::fabs(open_[i]->lowerBound - open_[pick]->lowerBound) <=
                 1e-12 &&
             open_[i]->depth < open_[pick]->depth))
            pick = i;
    }
    SubproblemDesc desc = std::move(open_[pick]->desc);
    desc.lowerBound = open_[pick]->lowerBound;
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(pick));
    return desc;
}

void Solver::addCut(Row row) {
    pendingCuts_.push_back(std::move(row));
    pendingSupportIds_.push_back(-1);
}

bool Solver::addCoveringCut(const std::vector<int>& vars, int rhsClass) {
    supportScratch_.assign(vars.begin(), vars.end());
    std::sort(supportScratch_.begin(), supportScratch_.end());
    supportScratch_.erase(
        std::unique(supportScratch_.begin(), supportScratch_.end()),
        supportScratch_.end());
    int id = -1;
    if (!supportScratch_.empty() && supportScratch_.front() >= 0 &&
        supportScratch_.back() < model_.numVars()) {
        switch (supports_.offer(supportScratch_, rhsClass, id,
                                &evictScratch_)) {
            case SupportPool::Verdict::Duplicate:
                ++stats_.cutDupRejected;
                return false;
            case SupportPool::Verdict::Dominated:
                ++stats_.cutDominatedRejected;
                return false;
            case SupportPool::Verdict::Admitted:
                break;
        }
        stats_.cutDominatedEvicted +=
            static_cast<std::int64_t>(evictScratch_.size());
        stats_.cutPoolSize = supports_.size();
        // Retire the evicted supersets: a pending row never reaches the LP,
        // a pooled row leaves at the next manageCutPool().
        for (const int ev : evictScratch_) {
            const auto it = std::find(pendingSupportIds_.begin(),
                                      pendingSupportIds_.end(), ev);
            if (it != pendingSupportIds_.end()) {
                const auto k = it - pendingSupportIds_.begin();
                pendingCuts_.erase(pendingCuts_.begin() + k);
                pendingSupportIds_.erase(it);
                ++stats_.cutsRetired;
                continue;
            }
            for (PoolCut& pc : cutPool_)
                if (pc.supportId == ev) {
                    pc.supportId = -1;  // the id may be handed out again
                    pc.retired = true;
                    break;
                }
        }
        if (id >= static_cast<int>(admitPos_.size()))
            admitPos_.resize(static_cast<std::size_t>(id) + 1);
        admitPos_[static_cast<std::size_t>(id)] = admitLog_.size();
        admitLog_.push_back(id);
    }
    pendingCuts_.push_back(coveringRow(vars, rhsClass));
    pendingSupportIds_.push_back(id);
    return true;
}

int Solver::takeAdmittedCuts(
    int maxCuts,
    const std::function<bool(const std::vector<int>&, int)>& sink) {
    int accepted = 0;
    while (admitCursor_ < admitLog_.size() && accepted < maxCuts) {
        const std::size_t pos = admitCursor_++;
        const int id = admitLog_[pos];
        // Skip entries that left the pool, or whose id a later admission
        // recycled (that one has its own log position).
        if (!supports_.contains(id) ||
            admitPos_[static_cast<std::size_t>(id)] != pos)
            continue;
        if (sink(supports_.vars(id), supports_.rhsClass(id))) ++accepted;
    }
    return accepted;
}

void Solver::unindexCut(int supportId) {
    if (supportId < 0) return;
    supports_.remove(supportId);
    stats_.cutPoolSize = supports_.size();
}

void Solver::dropPendingCuts() {
    for (const int id : pendingSupportIds_) unindexCut(id);
    pendingCuts_.clear();
    pendingSupportIds_.clear();
}

bool Solver::cutLpBindingConsistent() const {
    std::vector<char> used;
    if (lpBuilt_) used.assign(static_cast<std::size_t>(lp_.numRows()), 0);
    for (const PoolCut& pc : cutPool_) {
        if (!lpBuilt_) {
            if (pc.lpIndex != -1) return false;
            continue;
        }
        if (pc.lpIndex < 0 || pc.lpIndex >= lp_.numRows()) return false;
        if (used[static_cast<std::size_t>(pc.lpIndex)]) return false;
        used[static_cast<std::size_t>(pc.lpIndex)] = 1;
    }
    return true;
}

int Solver::addManagedRow(Row row) {
    // Managed rows start inactive: free on both sides.
    row.lhs = -kInf;
    row.rhs = kInf;
    ManagedRow mr;
    mr.row = std::move(row);
    if (lpBuilt_) {
        const long before = lp_.iterations();
        const lp::SolveStatus st = lp_.addRowsAndResolve({mr.row});
        stats_.lpIterations += lp_.iterations() - before;
        syncLpStats();
        pendingCost_ += lp_.iterations() - before;
        lpDualsFresh_ = (st == lp::SolveStatus::Optimal);
        mr.lpIndex = lp_.numRows() - 1;
    }
    managedRows_.push_back(std::move(mr));
    return static_cast<int>(managedRows_.size()) - 1;
}

void Solver::setManagedRowBounds(int handle, double lhs, double rhs) {
    ManagedRow& mr = managedRows_[handle];
    mr.row.lhs = lhs;
    mr.row.rhs = rhs;
    if (lpBuilt_ && mr.lpIndex >= 0)
        lp_.changeRowBounds(mr.lpIndex, lhs, rhs);
}

}  // namespace cip
