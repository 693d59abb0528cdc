#include "misdp/plugins.hpp"

#include <cmath>

#include "linalg/eigen.hpp"
#include "sdp/ipm.hpp"

namespace misdp {

namespace {
constexpr double kPsdTol = 1e-6;
constexpr int kMaxCutsPerBlock = 2;
}  // namespace

bool MisdpProblem::isFeasible(const std::vector<double>& y, double tol) const {
    for (int i = 0; i < numVars; ++i) {
        if (y[i] < lb[i] - tol || y[i] > ub[i] + tol) return false;
        if (isInt[i]) {
            const double f = y[i] - std::floor(y[i]);
            if (f > tol && f < 1.0 - tol) return false;
        }
    }
    for (const lp::Row& r : linearRows) {
        const double a = r.activity(y);
        if (a < r.lhs - tol || a > r.rhs + tol) return false;
    }
    for (const sdp::SdpBlock& blk : blocks)
        if (linalg::smallestEigenvalue(blk.zMatrix(y)) < -tol) return false;
    return true;
}

// ---------------------------------------------------------------------------
// SdpEigenCutHandler
// ---------------------------------------------------------------------------

SdpEigenCutHandler::SdpEigenCutHandler(const MisdpProblem& prob,
                                       bool separationEnabled)
    : ConstraintHandler("sdp_eigencut", 0),
      prob_(prob),
      separationEnabled_(separationEnabled) {}

bool SdpEigenCutHandler::check(cip::Solver&, const std::vector<double>& x) {
    for (const sdp::SdpBlock& blk : prob_.blocks)
        if (linalg::smallestEigenvalue(blk.zMatrix(x)) < -kPsdTol)
            return false;
    return true;
}

int SdpEigenCutHandler::separate(cip::Solver& solver,
                                 const std::vector<double>& x) {
    if (!separationEnabled_) return 0;
    int cuts = 0;
    for (const sdp::SdpBlock& blk : prob_.blocks) {
        linalg::Matrix z = blk.zMatrix(x);
        linalg::EigenSystem sys = linalg::symmetricEigen(z);
        for (std::size_t k = 0;
             k < sys.values.size() && k < kMaxCutsPerBlock; ++k) {
            if (sys.values[k] >= -kPsdTol) break;
            const linalg::Vector v = sys.vector(k);
            // v'(C - sum A_i y_i)v >= 0  <=>  sum (v'A_i v) y_i <= v'C v.
            std::vector<std::pair<int, double>> coefs;
            for (int i = 0; i < prob_.numVars; ++i) {
                if (static_cast<int>(blk.a.size()) <= i || blk.a[i].empty())
                    continue;
                const double c = linalg::quadForm(blk.a[i], v);
                if (std::fabs(c) > 1e-12) coefs.emplace_back(i, c);
            }
            const double rhs = linalg::quadForm(blk.c, v);
            if (coefs.empty()) continue;
            solver.addCut(lp::Row(std::move(coefs), -lp::kInf, rhs));
            ++cuts;
        }
        // Eigendecomposition cost charged as deterministic work.
        solver.addCost(blk.dim);
    }
    return cuts;
}

int SdpEigenCutHandler::enforce(cip::Solver& solver,
                                const std::vector<double>& x,
                                cip::BranchDecision&) {
    const bool saved = separationEnabled_;
    separationEnabled_ = true;  // enforcement must be able to cut
    const int cuts = separate(solver, x);
    separationEnabled_ = saved;
    return cuts;
}

// ---------------------------------------------------------------------------
// SdpRelaxator
// ---------------------------------------------------------------------------

sdp::SdpProblem relaxationProblem(const MisdpProblem& prob) {
    sdp::SdpProblem sp;
    sp.init(prob.numVars);
    sp.b = prob.obj;
    sp.lb = prob.lb;
    sp.ub = prob.ub;
    sp.blocks = prob.blocks;
    // Linear rows become 1x1 blocks: rhs - a'y >= 0 and a'y - lhs >= 0.
    auto addRow = [&](const lp::Row& r, double c, double sign) {
        sdp::SdpBlock blk;
        blk.dim = 1;
        blk.c = linalg::Matrix(1, 1, c);
        blk.a.assign(prob.numVars, linalg::Matrix{});
        for (const auto& [j, a] : r.coefs)
            blk.a[j] = linalg::Matrix(1, 1, sign * a);
        sp.addBlock(std::move(blk));
    };
    for (const lp::Row& r : prob.linearRows) {
        if (r.rhs < lp::kInf) addRow(r, r.rhs, 1.0);
        if (r.lhs > -lp::kInf) addRow(r, -r.lhs, -1.0);
    }
    return sp;
}

SdpRelaxator::SdpRelaxator(const MisdpProblem& prob)
    : Relaxator("sdp_relax", 0), sp_(relaxationProblem(prob)) {
    for (const sdp::SdpBlock& blk : sp_.blocks) dims_ += blk.dim;
}

cip::RelaxResult SdpRelaxator::solveRelaxation(cip::Solver& solver) {
    sp_.lb = solver.localLb();
    sp_.ub = solver.localUb();
    sdp::SdpResult sr = sdp::solveSdp(sp_);
    solver.addCost(static_cast<std::int64_t>(sr.iterations) * (1 + dims_ / 4));

    cip::RelaxResult rr;
    switch (sr.status) {
        case sdp::SdpStatus::Infeasible:
            rr.status = cip::RelaxResult::Status::Infeasible;
            return rr;
        case sdp::SdpStatus::Failed:
            rr.status = cip::RelaxResult::Status::Failed;
            return rr;
        case sdp::SdpStatus::Optimal:
            break;
    }
    rr.status = cip::RelaxResult::Status::Solved;
    // CIP minimizes -obj'y; the SDP's primal upper bound on sup obj'y is a
    // valid lower bound after negation.
    rr.bound = -sr.upperBound;
    rr.x = std::move(sr.y);
    return rr;
}

// ---------------------------------------------------------------------------
// MisdpRoundingHeuristic
// ---------------------------------------------------------------------------

MisdpRoundingHeuristic::MisdpRoundingHeuristic(const MisdpProblem& prob)
    : Heuristic("misdp_rounding", 0), prob_(prob) {}

std::optional<cip::Solution> MisdpRoundingHeuristic::run(
    cip::Solver& solver, const std::vector<double>& x) {
    std::uniform_real_distribution<double> unif(0.0, 1.0);
    std::optional<cip::Solution> best;
    const int trials = solver.params().getInt("misdp/roundingtrials", 6);
    for (int t = 0; t < trials; ++t) {
        std::vector<double> y = x;
        for (int i = 0; i < prob_.numVars; ++i) {
            if (!prob_.isInt[i]) continue;
            const double f = y[i] - std::floor(y[i]);
            const double p = (t == 0) ? 0.5 : unif(solver.rng());
            y[i] = (f > p) ? std::ceil(y[i]) : std::floor(y[i]);
            y[i] = std::clamp(y[i], solver.localLb()[i], solver.localUb()[i]);
        }
        if (!prob_.isFeasible(y, 1e-6)) continue;
        cip::Solution s;
        s.x = std::move(y);
        const double obj = -prob_.objective(s.x);
        if (!best || obj < -prob_.objective(best->x)) best = std::move(s);
    }
    return best;
}

// ---------------------------------------------------------------------------

void installMisdpPlugins(cip::Solver& solver, const MisdpProblem& prob) {
    const bool sdpMode =
        solver.params().getString("misdp/solvemode", "sdp") == "sdp";
    solver.addConstraintHandler(
        std::make_unique<SdpEigenCutHandler>(prob, !sdpMode));
    if (sdpMode) solver.setRelaxator(std::make_unique<SdpRelaxator>(prob));
    solver.addHeuristic(std::make_unique<MisdpRoundingHeuristic>(prob));
    // Generic LP diving is meaningless against PSD constraints in LP mode
    // and unavailable in relaxator mode anyway.
    solver.params().setBool("heuristics/diving/enabled", false);
}

}  // namespace misdp
