#include "instrument.hpp"

#include "misdp/plugins.hpp"
#include "steiner/plugins.hpp"
#include "trace.hpp"
#include "ugcip/misdp_plugins.hpp"
#include "ugcip/stp_plugins.hpp"

namespace e2e {

namespace {

// Each decorator keeps the inner plugin's name and priority, so the solver
// orders and looks them up exactly as it would the bare plugin.

class TimedConshdlr : public cip::ConstraintHandler {
public:
    TimedConshdlr(std::unique_ptr<cip::ConstraintHandler> inner, Cat sepa,
                  Cat check, Cat node)
        : cip::ConstraintHandler(inner->name(), inner->priority()),
          inner_(std::move(inner)),
          sepa_(sepa),
          check_(check),
          node_(node) {}

    bool check(cip::Solver& s, const std::vector<double>& x) override {
        Span span(check_);
        return inner_->check(s, x);
    }
    int separate(cip::Solver& s, const std::vector<double>& x) override {
        Span span(sepa_);
        return inner_->separate(s, x);
    }
    int enforce(cip::Solver& s, const std::vector<double>& x,
                cip::BranchDecision& d) override {
        Span span(sepa_);
        return inner_->enforce(s, x, d);
    }
    void applyBranchData(cip::Solver& s,
                         const std::vector<std::int64_t>& data) override {
        Span span(node_);
        inner_->applyBranchData(s, data);
    }
    void nodeActivated(cip::Solver& s) override {
        Span span(node_);
        inner_->nodeActivated(s);
    }

    cip::ConstraintHandler& inner() { return *inner_; }

private:
    std::unique_ptr<cip::ConstraintHandler> inner_;
    Cat sepa_, check_, node_;
};

class TimedPresolver : public cip::Presolver {
public:
    TimedPresolver(std::unique_ptr<cip::Presolver> inner, Cat cat)
        : cip::Presolver(inner->name(), inner->priority()),
          inner_(std::move(inner)),
          cat_(cat) {}
    cip::ReduceResult presolve(cip::Solver& s) override {
        Span span(cat_);
        return inner_->presolve(s);
    }

private:
    std::unique_ptr<cip::Presolver> inner_;
    Cat cat_;
};

class TimedPropagator : public cip::Propagator {
public:
    TimedPropagator(std::unique_ptr<cip::Propagator> inner, Cat cat)
        : cip::Propagator(inner->name(), inner->priority()),
          inner_(std::move(inner)),
          cat_(cat) {}
    cip::ReduceResult propagate(cip::Solver& s) override {
        Span span(cat_);
        return inner_->propagate(s);
    }
    cip::ReduceResult propagateLp(cip::Solver& s) override {
        Span span(cat_);
        return inner_->propagateLp(s);
    }

private:
    std::unique_ptr<cip::Propagator> inner_;
    Cat cat_;
};

class TimedHeuristic : public cip::Heuristic {
public:
    TimedHeuristic(std::unique_ptr<cip::Heuristic> inner, Cat cat)
        : cip::Heuristic(inner->name(), inner->priority()),
          inner_(std::move(inner)),
          cat_(cat) {}
    std::optional<cip::Solution> run(cip::Solver& s,
                                     const std::vector<double>& x) override {
        Span span(cat_);
        return inner_->run(s, x);
    }

private:
    std::unique_ptr<cip::Heuristic> inner_;
    Cat cat_;
};

class TimedBranchrule : public cip::Branchrule {
public:
    TimedBranchrule(std::unique_ptr<cip::Branchrule> inner, Cat cat)
        : cip::Branchrule(inner->name(), inner->priority()),
          inner_(std::move(inner)),
          cat_(cat) {}
    cip::BranchDecision branch(cip::Solver& s,
                               const std::vector<double>& x) override {
        Span span(cat_);
        return inner_->branch(s, x);
    }

private:
    std::unique_ptr<cip::Branchrule> inner_;
    Cat cat_;
};

class TimedRelaxator : public cip::Relaxator {
public:
    TimedRelaxator(std::unique_ptr<cip::Relaxator> inner,
                   std::atomic<std::int64_t>& failed)
        : cip::Relaxator(inner->name(), inner->priority()),
          inner_(std::move(inner)),
          failed_(failed) {}
    cip::RelaxResult solveRelaxation(cip::Solver& s) override {
        Span span(Cat::MisdpRelax);
        cip::RelaxResult r = inner_->solveRelaxation(s);
        if (r.status == cip::RelaxResult::Status::Failed) ++failed_;
        return r;
    }

private:
    std::unique_ptr<cip::Relaxator> inner_;
    std::atomic<std::int64_t>& failed_;
};

/// The wrapped Steiner constraint handler of `solver`, or null.
steiner::StpConshdlr* stpConshdlr(cip::Solver& solver) {
    auto* timed = dynamic_cast<TimedConshdlr*>(
        solver.findConstraintHandler(steiner::kStpPluginName));
    return timed ? dynamic_cast<steiner::StpConshdlr*>(&timed->inner())
                 : nullptr;
}

}  // namespace

void SolverCounters::add(const cip::Stats& s) {
    nodes += s.nodesProcessed;
    totalCost += s.totalCost;
    lpIterations += s.lpIterations;
    lpFactorizations += s.lpFactorizations;
    basisWarmStarts += s.basisWarmStarts;
    lpHyperSolves += s.lpHyperSolves;
    lpDenseSolves += s.lpDenseSolves;
    sepaRounds += s.sepaRounds;
    sepaLpRowsSum += s.sepaLpRowsSum;
    cutsRetired += s.cutsRetired;
    redcostFixings += s.redcostFixings;
    sepaFlowSolves += s.sepaFlowSolves;
    sepaCutsFound += s.sepaCutsFound;
    poolRejected += s.cutDupRejected + s.cutDominatedRejected;
    redpropArcsFixed += s.redpropArcsFixed;
}

void SolverCounters::add(const SolverCounters& o) {
    nodes += o.nodes;
    totalCost += o.totalCost;
    lpIterations += o.lpIterations;
    lpFactorizations += o.lpFactorizations;
    basisWarmStarts += o.basisWarmStarts;
    lpHyperSolves += o.lpHyperSolves;
    lpDenseSolves += o.lpDenseSolves;
    sepaRounds += o.sepaRounds;
    sepaLpRowsSum += o.sepaLpRowsSum;
    cutsRetired += o.cutsRetired;
    redcostFixings += o.redcostFixings;
    sepaFlowSolves += o.sepaFlowSolves;
    sepaCutsFound += o.sepaCutsFound;
    poolRejected += o.poolRejected;
    redpropArcsFixed += o.redpropArcsFixed;
}

TimedPlugins::TimedPlugins(const steiner::SapInstance& inst, Installer which)
    : stp_(&inst),
      which_(which),
      library_(std::make_unique<ugcip::SteinerUserPlugins>(inst)) {}

TimedPlugins::TimedPlugins(const misdp::MisdpProblem& prob)
    : misdp_(&prob),
      which_(Installer::Misdp),
      library_(std::make_unique<ugcip::MisdpUserPlugins>(prob)) {}

cip::ParamSet TimedPlugins::installerParams(const cip::ParamSet& in) {
    std::lock_guard lock(cacheMutex_);
    for (const auto& [key, out] : cache_)
        if (key.raw() == in.raw()) return out;
    cip::Solver scratch;
    scratch.params() = in;
    switch (which_) {
        case Installer::StpSequential: {
            // SteinerSolver::solve sets misc/objintegral itself before
            // calling installStpPlugins; the UG installer computes the same
            // flag, so take it from there.
            cip::Solver probe;
            library_->installPlugins(probe);
            if (probe.params().getBool("misc/objintegral", false))
                scratch.params().setBool("misc/objintegral", true);
            steiner::installStpPlugins(scratch, *stp_);
            break;
        }
        case Installer::StpUg:
        case Installer::Misdp:
            library_->installPlugins(scratch);
            break;
    }
    cache_.emplace_back(in, scratch.params());
    return scratch.params();
}

void TimedPlugins::installPlugins(cip::Solver& solver) {
    solver.params() = installerParams(solver.params());
    if (stp_) {
        // Same objects, same order as steiner::installStpPlugins and
        // ugcip::SteinerUserPlugins::installPlugins.
        using namespace steiner;
        auto conshdlr = std::make_unique<StpConshdlr>(*stp_);
        StpConshdlr* conshdlrPtr = conshdlr.get();
        solver.addConstraintHandler(std::make_unique<TimedConshdlr>(
            std::move(conshdlr), Cat::StpSepa, Cat::StpCheck, Cat::StpNode));
        solver.addBranchrule(std::make_unique<TimedBranchrule>(
            std::make_unique<StpVertexBranching>(*stp_), Cat::StpBranch));
        solver.addHeuristic(std::make_unique<TimedHeuristic>(
            std::make_unique<StpHeuristic>(*stp_), Cat::StpHeur));
        solver.addPresolver(std::make_unique<TimedPresolver>(
            std::make_unique<StpSubproblemReducer>(*stp_), Cat::StpPresolve));
        solver.addPropagator(std::make_unique<TimedPropagator>(
            std::make_unique<StpReductionPropagator>(*stp_, conshdlrPtr),
            Cat::StpRedprop));
        return;
    }
    // Same objects, same order as misdp::installMisdpPlugins.
    using namespace misdp;
    const bool sdpMode =
        solver.params().getString("misdp/solvemode", "sdp") == "sdp";
    solver.addConstraintHandler(std::make_unique<TimedConshdlr>(
        std::make_unique<SdpEigenCutHandler>(*misdp_, !sdpMode),
        Cat::MisdpEigencut, Cat::MisdpEigencut, Cat::MisdpEigencut));
    if (sdpMode)
        solver.setRelaxator(std::make_unique<TimedRelaxator>(
            std::make_unique<SdpRelaxator>(*misdp_), relaxFailed_));
    solver.addHeuristic(std::make_unique<TimedHeuristic>(
        std::make_unique<MisdpRoundingHeuristic>(*misdp_), Cat::MisdpHeur));
}

std::vector<cip::ParamSet> TimedPlugins::racingSettings(int count) {
    return library_->racingSettings(count);
}

// The library's sharing hooks locate the Steiner conshdlr by dynamic_cast,
// which the timing wrapper hides; these reach the inner handler directly
// and otherwise do what ugcip::SteinerUserPlugins does.
ug::CutBundle TimedPlugins::collectShareableCuts(cip::Solver& solver,
                                                 int maxCuts) {
    if (!stp_ || !solver.params().getBool("stp/share/enable", true)) return {};
    steiner::StpConshdlr* ch = stpConshdlr(solver);
    return ch ? ch->takeShareableCuts(maxCuts) : ug::CutBundle{};
}

void TimedPlugins::primeSharedCuts(cip::Solver& solver,
                                   const ug::CutBundle& cuts) {
    if (!stp_ || cuts.empty()) return;
    if (!solver.params().getBool("stp/share/enable", true)) return;
    if (steiner::StpConshdlr* ch = stpConshdlr(solver))
        ch->primeSharedCuts(solver, cuts);
}

std::int64_t TimedPlugins::relaxFailed() const { return relaxFailed_.load(); }

/// Times every BaseSolver entry point that does real work; the accessors
/// the engines poll between steps are forwarded untimed.
class TimedBaseSolver : public ug::BaseSolver {
public:
    TimedBaseSolver(std::unique_ptr<ug::BaseSolver> inner,
                    TimedFactory& factory)
        : inner_(std::move(inner)),
          cip_(static_cast<ugcip::CipBaseSolver&>(*inner_).solver()),
          factory_(factory) {}
    ~TimedBaseSolver() override { factory_.fold(cip_.stats()); }

    void load(const cip::SubproblemDesc& desc,
              const cip::Solution* incumbent) override {
        Span span(Cat::Load);
        inner_->load(desc, incumbent);
    }
    std::int64_t step() override {
        Span span(Cat::Step);
        const std::int64_t before = cip_.stats().lpIterations;
        const std::int64_t units = inner_->step();
        Tracer::addStepUnits(units, cip_.stats().lpIterations - before);
        return units;
    }
    bool finished() const override { return inner_->finished(); }
    ug::BaseStatus status() const override { return inner_->status(); }
    double dualBound() const override { return inner_->dualBound(); }
    int numOpenNodes() const override { return inner_->numOpenNodes(); }
    std::int64_t nodesProcessed() const override {
        return inner_->nodesProcessed();
    }
    ug::LpEffort lpEffort() const override { return inner_->lpEffort(); }
    const cip::Solution& incumbent() const override {
        return inner_->incumbent();
    }
    void injectSolution(const cip::Solution& sol) override {
        inner_->injectSolution(sol);
    }
    std::optional<cip::SubproblemDesc> extractOpenNode() override {
        Span span(Cat::Extract);
        return inner_->extractOpenNode();
    }
    void setIncumbentCallback(
        std::function<void(const cip::Solution&)> cb) override {
        inner_->setIncumbentCallback(std::move(cb));
    }
    ug::CutBundle takeShareableCuts(int maxCuts) override {
        Span span(Cat::Share);
        return inner_->takeShareableCuts(maxCuts);
    }
    void primeSharedCuts(const ug::CutBundle& cuts) override {
        Span span(Cat::Share);
        inner_->primeSharedCuts(cuts);
    }

    const cip::Solver& solver() const { return cip_; }

private:
    std::unique_ptr<ug::BaseSolver> inner_;
    cip::Solver& cip_;
    TimedFactory& factory_;
};

std::unique_ptr<ug::BaseSolver> TimedFactory::create(
    const cip::ParamSet& params) {
    Span span(Cat::Create);
    return std::make_unique<TimedBaseSolver>(inner_.create(params), *this);
}

void TimedFactory::fold(const cip::Stats& s) {
    std::lock_guard lock(mutex_);
    counters_.add(s);
}

SolverCounters TimedFactory::counters() {
    std::lock_guard lock(mutex_);
    return counters_;
}

}  // namespace e2e
