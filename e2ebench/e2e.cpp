// End-to-end benchmark driver.
//
//   e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
//       [--trace-out FILE] [--work-dir DIR]
//   e2e [--quick] [--workload W]    smoke run (the default without a
//                                   workload)
//   e2e --scan FROM COUNT --workload W   screen relabeling ids for a pool
//
// A run is a closed loop with one client: it solves the workload's
// instances back to back, one relabeling per instance per pass, for a pass
// count fixed by --seconds (see Workload::passesPerSecond); the second half
// of the passes repeats the first. Every instance is written to a file
// first (.stp / sparse SDPA) and the timed path reads that file.
// With --trace 1 each relabeling is solved twice, untraced and then through
// the timing decorators, and the per-layer metrics come from the traced
// solves. The last stdout line is one JSON object; run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check.hpp"
#include "instrument.hpp"
#include "misdp/io.hpp"
#include "steiner/instances.hpp"
#include "trace.hpp"
#include "ugcip/misdp_plugins.hpp"
#include "ugcip/stp_plugins.hpp"
#include "ugcip/ugcip.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace e2e;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool quick = false;
    int scanFrom = -1;
    int scanCount = 0;
    std::string traceOut;
    std::string workDir = ".bench_work";
};

/// Everything one solve of one relabeling yields.
struct Solve {
    double setupS = 0.0;
    double solveS = 0.0;
    std::int64_t units = 0;  ///< work units (summed over solvers)
    std::string error;       ///< empty = certified
    // Deterministic signature (compared between traced and untraced solves
    // of the same input).
    std::int64_t nodes = 0;
    std::int64_t lpIterations = 0;
    double makespanVs = 0.0;
    std::optional<ug::UgResult> ug;  ///< UG workloads only
    SolverCounters counters;         ///< traced solves only
    std::int64_t relaxFailed = 0;    ///< traced solves only
};

ug::UgConfig ugConfig(Mode mode) {
    ug::UgConfig cfg;
    switch (mode) {
        case Mode::Sim64: cfg.numSolvers = 64; break;
        case Mode::Racing3:
            // Table 4's racing limits (the time limit is in virtual
            // seconds).
            cfg.numSolvers = 3;
            cfg.rampUp = ug::RampUp::Racing;
            cfg.racingOpenNodesLimit = 12;
            cfg.racingTimeLimit = 0.3;
            break;
        case Mode::Sequential: break;
    }
    return cfg;
}

cip::Status toCip(ug::BaseStatus s) {
    switch (s) {
        case ug::BaseStatus::Optimal: return cip::Status::Optimal;
        case ug::BaseStatus::Infeasible: return cip::Status::Infeasible;
        default: return cip::Status::Unsolved;
    }
}

/// Run the SimEngine over `factory`, as ugcip::solveSimulated does, but
/// with the timed factory and plugins.
ug::UgResult runEngine(Mode mode, ug::BaseSolverFactory& factory,
                       ugcip::CipUserPlugins& plugins) {
    ug::UgConfig cfg = ugConfig(mode);
    ugcip::prepareRacing(cfg, &plugins);
    return ug::SimEngine(factory, cfg).run({});
}

Solve solveSteiner(Mode mode, const std::string& path,
                   const steiner::Graph& graph, double optimum, bool traced) {
    Solve s;
    const auto t0 = Clock::now();
    std::optional<steiner::Graph> g = steiner::readStpFile(path);
    if (!g) {
        s.error = "cannot read " + path;
        return s;
    }
    steiner::SteinerSolver solver(std::move(*g));
    solver.presolve();
    s.setupS = since(t0);
    const steiner::SapInstance& inst = solver.instance();

    const auto t1 = Clock::now();
    steiner::SteinerResult r;
    if (inst.trivial()) {
        r = solver.solve();  // solved by presolve: no branch-and-cut to run
    } else if (!traced && mode == Mode::Sequential) {
        r = solver.solve();
        s.units = r.stats.totalCost;
        s.nodes = r.stats.nodesProcessed;
        s.lpIterations = r.stats.lpIterations;
    } else if (!traced) {
        s.ug = ugcip::solveSteinerParallel(inst, ugConfig(mode), true);
        r = ugcip::toSteinerResult(solver, *s.ug);
    } else {
        Span span(Cat::Solve);
        TimedPlugins plugins(inst, mode == Mode::Sequential
                                       ? Installer::StpSequential
                                       : Installer::StpUg);
        ugcip::CipSolverFactory factory([&inst] { return inst.model; },
                                        &plugins);
        TimedFactory timed(factory);
        if (mode == Mode::Sequential) {
            // SteinerSolver::solve is init + step-to-completion of one
            // cip::Solver; the same sequence through a timed base solver.
            std::unique_ptr<ug::BaseSolver> bs = timed.create({});
            bs->load(cip::SubproblemDesc{}, nullptr);
            while (!bs->finished()) bs->step();
            r = solver.makeResult(toCip(bs->status()), bs->incumbent(),
                                  bs->dualBound(), cip::Stats{});
        } else {
            s.ug = runEngine(mode, timed, plugins);
            r = ugcip::toSteinerResult(solver, *s.ug);
        }
        s.counters = timed.counters();
        if (mode == Mode::Sequential) {
            s.units = s.counters.totalCost;
            s.nodes = s.counters.nodes;
            s.lpIterations = s.counters.lpIterations;
        }
    }
    s.solveS = since(t1);
    if (s.ug) {
        s.units = s.ug->stats.busyUnits;
        s.nodes = s.ug->stats.totalNodesProcessed;
        s.lpIterations = s.ug->stats.lpIterations;
        s.makespanVs = s.ug->elapsed;
    }
    s.error = checkSteiner(graph, r, optimum);
    return s;
}

Solve solveMisdp(Mode mode, const std::string& path,
                 const misdp::MisdpProblem& prob, double optimum,
                 bool traced) {
    Solve s;
    const auto t0 = Clock::now();
    std::optional<misdp::MisdpProblem> p = misdp::readSdpaFile(path);
    if (!p) {
        s.error = "cannot read " + path;
        return s;
    }
    s.setupS = since(t0);

    const auto t1 = Clock::now();
    if (!traced) {
        s.ug = ugcip::solveMisdpParallel(*p, ugConfig(mode), true);
    } else {
        Span span(Cat::Solve);
        TimedPlugins plugins(*p);
        ugcip::CipSolverFactory factory(
            [model = misdp::MisdpSolver(*p).buildModel()] { return model; },
            &plugins);
        TimedFactory timed(factory);
        s.ug = runEngine(mode, timed, plugins);
        s.counters = timed.counters();
        s.relaxFailed = plugins.relaxFailed();
    }
    s.solveS = since(t1);
    s.units = s.ug->stats.busyUnits;
    s.nodes = s.ug->stats.totalNodesProcessed;
    s.lpIterations = s.ug->stats.lpIterations;
    s.makespanVs = s.ug->elapsed;
    s.error = checkMisdp(prob, ugcip::toMisdpResult(*s.ug), optimum);
    return s;
}

/// Writes relabeled instances into a private directory and solves them.
class Runner {
public:
    Runner(const Workload& w, const fs::path& dir) : w_(w), dir_(dir) {}

    Solve solve(int pos, int relabel, bool traced) {
        const WorkloadInstance& wi = w_.instances[pos];
        const InstanceSpec& spec = catalogue()[wi.instance];
        Tracer::setInstance(pos);
        const std::string stem =
            (dir_ / (spec.name + "-r" + std::to_string(relabel))).string();
        Solve s;
        if (spec.kind == Kind::Steiner) {
            const steiner::Graph g = makeGraph(wi.instance, relabel);
            const std::string path = stem + ".stp";
            if (!steiner::writeStpFile(path, g)) {
                s.error = "cannot write " + path;
                return s;
            }
            s = solveSteiner(w_.mode, path, g, spec.optimum, traced);
            fs::remove(path);
        } else {
            const misdp::MisdpProblem p = makeMisdp(wi.instance, relabel);
            const std::string path = stem + ".dat-s";
            if (!misdp::writeSdpaFile(path, p)) {
                s.error = "cannot write " + path;
                return s;
            }
            s = solveMisdp(w_.mode, path, p, spec.optimum, traced);
            fs::remove(path);
        }
        if (!s.error.empty())
            s.error = spec.name + " r" + std::to_string(relabel) + ": " +
                      s.error;
        return s;
    }

private:
    const Workload& w_;
    fs::path dir_;
};

/// Mismatch between an untraced and a traced solve of the same input (every
/// mode is deterministic); empty if they agree.
std::string compareRuns(const Solve& a, const Solve& b) {
    char buf[256];
    if (a.nodes != b.nodes || a.lpIterations != b.lpIterations ||
        a.units != b.units || a.makespanVs != b.makespanVs) {
        std::snprintf(buf, sizeof buf,
                      "traced run diverged: nodes %lld/%lld, lp iterations "
                      "%lld/%lld, units %lld/%lld",
                      static_cast<long long>(a.nodes),
                      static_cast<long long>(b.nodes),
                      static_cast<long long>(a.lpIterations),
                      static_cast<long long>(b.lpIterations),
                      static_cast<long long>(a.units),
                      static_cast<long long>(b.units));
        return buf;
    }
    return {};
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

/// Ordered name -> (value, unit) list, printed as a JSON object.
class Metrics {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        items_.push_back({name, value, unit});
    }
    std::string json() const {
        std::string out = "{";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i) out += ",";
            out += quote(items_[i].name) + ":{\"value\":" +
                   num(items_[i].value) + ",\"unit\":" +
                   quote(items_[i].unit) + "}";
        }
        return out + "}";
    }

private:
    struct Item {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

struct InstanceLog {
    /// Untraced solves, one entry per relabeling (times: the faster of its
    /// two solves).
    std::vector<double> setupS, solveS, units;
    std::vector<double> tracedS;                ///< traced solves
    double pairedUntracedS = 0.0;  ///< untraced time of traced relabelings
    SolverCounters counters;       ///< summed over traced solves
    double relaxFailed = 0.0;      ///< summed over traced solves
    // UG statistics summed over traced solves.
    double idle = 0.0, maxActive = 0.0, firstMaxFrac = 0.0, makespan = 0.0;
    double shareSent = 0.0, shareReceived = 0.0, shareAdmitted = 0.0;
    double transferred = 0.0, collected = 0.0;
    int racingDecided = 0, racingLpWins = 0;
};

double perSolve(double sum, std::size_t n) {
    return n ? sum / static_cast<double>(n) : 0.0;
}

void addUg(InstanceLog& log, const ug::UgResult& r, Mode mode) {
    const ug::UgStats& st = r.stats;
    log.idle += st.idleRatio;
    log.maxActive += st.maxActiveSolvers;
    log.firstMaxFrac += r.elapsed > 0 ? st.firstMaxActiveTime / r.elapsed : 0;
    log.makespan += r.elapsed;
    log.shareSent += static_cast<double>(st.shareCutsSent);
    log.shareReceived += static_cast<double>(st.shareCutsReceived);
    log.shareAdmitted += static_cast<double>(st.shareCutsAdmitted);
    log.transferred += static_cast<double>(st.transferredNodes);
    log.collected += static_cast<double>(st.collectedNodes);
    if (mode == Mode::Racing3 && st.racingWinnerSetting >= 0) {
        ++log.racingDecided;
        // MISDP racing settings alternate SDP (even index) / LP (odd).
        if (st.racingWinnerSetting % 2 == 1) ++log.racingLpWins;
    }
}

/// Per-layer metrics of the traced solves (see README.md for definitions).
void perLayerMetrics(const Workload& w, const std::vector<InstanceLog>& logs,
                     const std::vector<InstanceTotals>& tot, Metrics& m) {
    const auto ns = [](std::int64_t v) { return static_cast<double>(v) * 1e-9; };
    auto idx = [](Cat c) { return static_cast<int>(c); };
    // Sum over instances of the per-solve mean ("per pass over the set").
    auto perSet = [&](auto&& value) {
        double sum = 0.0;
        for (std::size_t i = 0; i < logs.size(); ++i)
            sum += perSolve(value(i), logs[i].tracedS.size());
        return sum;
    };
    InstanceTotals all;
    SolverCounters c;
    for (std::size_t i = 0; i < logs.size(); ++i) {
        if (i < tot.size()) all.add(tot[i]);
        c.add(logs[i].counters);
    }
    auto totalOf = [&](std::size_t i, Cat cat) {
        return i < tot.size() ? ns(tot[i].totalNs[idx(cat)]) : 0.0;
    };
    auto selfOf = [&](std::size_t i, Cat cat) {
        return i < tot.size() ? ns(tot[i].selfNs[idx(cat)]) : 0.0;
    };
    // Base-solver time: everything under the ugcip entry points.
    constexpr Cat kSolverCats[] = {Cat::Create, Cat::Load, Cat::Step,
                                   Cat::Extract, Cat::Share};
    double solverNs = 0.0;
    for (Cat cat : kSolverCats) solverNs += ns(all.totalNs[idx(cat)]);
    auto share = [&](std::initializer_list<Cat> cats) {
        double sum = 0.0;
        for (Cat cat : cats) sum += ns(all.selfNs[idx(cat)]);
        return solverNs > 0 ? sum / solverNs : 0.0;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    // Per-set mean of one solver counter.
    auto counter = [&](std::int64_t SolverCounters::*field) {
        return perSet([&](std::size_t i) {
            return static_cast<double>(logs[i].counters.*field);
        });
    };

    m.add("ugcip.solver_s", perSet([&](std::size_t i) {
              double sum = 0;
              for (Cat cat : kSolverCats) sum += totalOf(i, cat);
              return sum;
          }),
          "s");
    m.add("ugcip.step_s",
          perSet([&](std::size_t i) { return totalOf(i, Cat::Step); }), "s");
    m.add("cip.core_s",
          perSet([&](std::size_t i) { return selfOf(i, Cat::Step); }), "s");
    m.add("ugcip.create_s",
          perSet([&](std::size_t i) { return totalOf(i, Cat::Create); }), "s");
    m.add("ugcip.load_s",
          perSet([&](std::size_t i) { return totalOf(i, Cat::Load); }), "s");
    m.add("ug.coordinator_s",
          perSet([&](std::size_t i) { return selfOf(i, Cat::Solve); }), "s");

    m.add("cip.core_frac", share({Cat::Step}), "frac");
    m.add("ugcip.create_load_frac", share({Cat::Create, Cat::Load}), "frac");
    m.add("ugcip.transfer_frac", share({Cat::Extract}), "frac");
    m.add("ugcip.share_frac", share({Cat::Share}), "frac");
    m.add("steiner.sepa_frac", share({Cat::StpSepa}), "frac");
    m.add("steiner.check_frac", share({Cat::StpCheck}), "frac");
    m.add("steiner.node_frac", share({Cat::StpNode}), "frac");
    m.add("steiner.heur_frac", share({Cat::StpHeur}), "frac");
    m.add("steiner.branch_frac", share({Cat::StpBranch}), "frac");
    m.add("steiner.redprop_frac", share({Cat::StpRedprop}), "frac");
    m.add("steiner.layered_presolve_frac", share({Cat::StpPresolve}), "frac");
    m.add("misdp.eigencut_frac", share({Cat::MisdpEigencut}), "frac");
    m.add("misdp.relax_frac", share({Cat::MisdpRelax}), "frac");
    m.add("misdp.heur_frac", share({Cat::MisdpHeur}), "frac");

    m.add("cip.nodes", counter(&SolverCounters::nodes), "count");
    m.add("lp.iters", counter(&SolverCounters::lpIterations), "count");
    m.add("lp.iters_per_node", ratio(c.lpIterations, c.nodes), "count");
    m.add("lp.factorizations", counter(&SolverCounters::lpFactorizations),
          "count");
    m.add("lp.warm_start_frac", ratio(c.basisWarmStarts, c.nodes), "frac");
    m.add("lp.hyper_frac",
          ratio(c.lpHyperSolves, c.lpHyperSolves + c.lpDenseSolves), "frac");
    m.add("lp.iterlimit_steps", static_cast<double>(all.iterLimitSteps),
          "count");
    m.add("cip.lp_rows_per_round", ratio(c.sepaLpRowsSum, c.sepaRounds),
          "count");
    m.add("cip.cuts_retired", counter(&SolverCounters::cutsRetired), "count");
    m.add("cip.redcost_fixed", counter(&SolverCounters::redcostFixings),
          "count");
    m.add("steiner.flow_solves", counter(&SolverCounters::sepaFlowSolves),
          "count");
    m.add("steiner.cuts_per_flow", ratio(c.sepaCutsFound, c.sepaFlowSolves),
          "count");
    m.add("steiner.pool_reject_frac", ratio(c.poolRejected, c.sepaCutsFound),
          "frac");
    m.add("steiner.redprop_arcs_fixed",
          counter(&SolverCounters::redpropArcsFixed), "count");
    m.add("misdp.relax_calls", perSet([&](std::size_t i) {
              return i < tot.size() ? static_cast<double>(
                                          tot[i].calls[idx(Cat::MisdpRelax)])
                                    : 0.0;
          }),
          "count");
    m.add("misdp.relax_failed",
          perSet([&](std::size_t i) { return logs[i].relaxFailed; }), "count");

    double received = 0, admitted = 0;
    int decided = 0, lpWins = 0;
    for (const InstanceLog& l : logs) {
        received += l.shareReceived;
        admitted += l.shareAdmitted;
        decided += l.racingDecided;
        lpWins += l.racingLpWins;
    }
    m.add("ug.share_sent",
          perSet([&](std::size_t i) { return logs[i].shareSent; }), "count");
    m.add("ug.share_admit_frac", ratio(admitted, received), "frac");
    double solves = 0, idle = 0, maxActive = 0, firstMax = 0;
    for (const InstanceLog& l : logs) {
        solves += static_cast<double>(l.tracedS.size());
        idle += l.idle;
        maxActive += l.maxActive;
        firstMax += l.firstMaxFrac;
    }
    const bool usesUg = w.mode != Mode::Sequential;
    m.add("ug.idle_frac", usesUg ? ratio(idle, solves) : 0.0, "frac");
    m.add("ug.max_active", usesUg ? ratio(maxActive, solves) : 0.0, "count");
    m.add("ug.first_max_active_frac", usesUg ? ratio(firstMax, solves) : 0.0,
          "frac");
    m.add("ug.transferred_nodes",
          perSet([&](std::size_t i) { return logs[i].transferred; }), "count");
    m.add("ug.collected_nodes",
          perSet([&](std::size_t i) { return logs[i].collected; }), "count");
    m.add("ug.racing_lp_win_frac", ratio(lpWins, decided), "frac");
    m.add("ug.makespan_vs",
          perSet([&](std::size_t i) { return logs[i].makespan; }), "vs");
    m.add("ugcip.us_per_unit",
          ratio(ns(all.totalNs[idx(Cat::Step)]) * 1e6,
                static_cast<double>(all.stepUnits)),
          "us/unit");
    double traced = 0, untraced = 0;
    for (const InstanceLog& l : logs) {
        for (double t : l.tracedS) traced += t;
        untraced += l.pairedUntracedS;
    }
    m.add("trace_overhead_frac", untraced > 0 ? traced / untraced - 1 : 0.0,
          "frac");
}

int usage() {
    std::fprintf(stderr,
                 "usage: e2e --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out FILE] [--work-dir DIR]\n"
                 "       e2e --quick [--workload W]\n"
                 "       e2e --scan FROM COUNT --workload W\n"
                 "workloads:");
    for (const Workload& w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

std::optional<Args> parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto next = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char* v = nullptr;
        if (k == "--quick") {
            a.quick = true;
        } else if (k == "--workload" && (v = next())) {
            a.workload = v;
        } else if (k == "--seed" && (v = next())) {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds" && (v = next())) {
            a.seconds = std::atof(v);
        } else if (k == "--trace" && (v = next())) {
            a.trace = std::strcmp(v, "0") != 0;
        } else if (k == "--trace-out" && (v = next())) {
            a.traceOut = v;
        } else if (k == "--work-dir" && (v = next())) {
            a.workDir = v;
        } else if (k == "--scan" && i + 2 < argc) {
            a.scanFrom = std::atoi(argv[++i]);
            a.scanCount = std::atoi(argv[++i]);
        } else {
            return std::nullopt;
        }
    }
    if (a.workload.empty() && a.scanFrom < 0) a.quick = true;
    if (!a.quick && !findWorkload(a.workload)) return std::nullopt;
    if (!a.workload.empty() && !findWorkload(a.workload)) return std::nullopt;
    return a;
}

/// Private scratch directory, removed on destruction.
class WorkDir {
public:
    WorkDir(const std::string& root, const std::string& tag)
        : path_(fs::path(root) /
                (tag + "-" + std::to_string(::getpid()))) {
        fs::create_directories(path_);
    }
    ~WorkDir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    WorkDir(const WorkDir&) = delete;
    WorkDir& operator=(const WorkDir&) = delete;
    const fs::path& path() const { return path_; }

private:
    fs::path path_;
};

/// Smoke run: one small relabeling per workload, untraced and traced, with
/// every check. Returns the number of failures.
int quick(const Args& a) {
    Tracer::enable(0);
    int failures = 0;
    for (const Workload& w : workloads()) {
        if (!a.workload.empty() && w.name != a.workload) continue;
        WorkDir dir(a.workDir, w.name + "-quick");
        Runner runner(w, dir.path());
        const WorkloadInstance& wi = w.instances[w.quick];
        const int relabel = wi.pool().front();
        const auto t0 = Clock::now();
        const Solve plain = runner.solve(w.quick, relabel, false);
        const Solve traced = runner.solve(w.quick, relabel, true);
        std::string err = !plain.error.empty() ? plain.error : traced.error;
        if (err.empty()) err = compareRuns(plain, traced);
        std::printf("%-12s %-10s r%-3d %.3f s  %s\n", w.name.c_str(),
                    catalogue()[wi.instance].name.c_str(), relabel,
                    since(t0), err.empty() ? "ok" : err.c_str());
        failures += !err.empty();
    }
    return failures;
}

/// Screen relabeling ids FROM..FROM+COUNT-1 of every instance: an id is
/// kept when every traced solve is certified and no step reaches the LP
/// iteration limit, and its solve time is within 5x the instance median.
int scan(const Args& a) {
    const Workload& w = *findWorkload(a.workload);
    Tracer::enable(0);
    WorkDir dir(a.workDir, w.name + "-scan");
    Runner runner(w, dir.path());
    for (std::size_t pos = 0; pos < w.instances.size(); ++pos) {
        const std::string& name = catalogue()[w.instances[pos].instance].name;
        std::vector<std::pair<int, double>> good;
        for (int id = a.scanFrom; id < a.scanFrom + a.scanCount; ++id) {
            const std::int64_t before =
                pos < Tracer::totals().size()
                    ? Tracer::totals()[pos].iterLimitSteps
                    : 0;
            const Solve s = runner.solve(static_cast<int>(pos), id, true);
            const std::int64_t limits =
                Tracer::totals()[pos].iterLimitSteps - before;
            std::printf("scan %s r%d %.4f s nodes=%lld lp=%lld units=%lld "
                        "limits=%lld %s\n",
                        name.c_str(), id, s.solveS,
                        static_cast<long long>(s.nodes),
                        static_cast<long long>(s.lpIterations),
                        static_cast<long long>(s.units),
                        static_cast<long long>(limits),
                        s.error.empty() ? "ok" : s.error.c_str());
            std::fflush(stdout);
            if (s.error.empty() && limits == 0) good.emplace_back(id, s.solveS);
        }
        std::vector<double> times;
        for (auto& g : good) times.push_back(g.second);
        const double med = median(times);
        std::printf("exclude %s median %.4f s, pool %d..%d:", name.c_str(),
                    med, a.scanFrom, a.scanFrom + a.scanCount - 1);
        std::size_t next = 0;
        for (int id = a.scanFrom; id < a.scanFrom + a.scanCount; ++id) {
            const bool kept = next < good.size() && good[next].first == id &&
                              good[next].second <= 5.0 * med;
            if (next < good.size() && good[next].first == id) ++next;
            if (!kept) std::printf(" %d,", id);
        }
        std::printf("\n");
    }
    return 0;
}

int run(const Args& a) {
    const Workload& w = *findWorkload(a.workload);
    if (a.trace) Tracer::enable(20000);  // raw spans kept for the file
    WorkDir dir(a.workDir, w.name + "-s" + std::to_string(a.seed));
    Runner runner(w, dir.path());
    const int n = static_cast<int>(w.instances.size());

    // A solve fails when its answer fails a check (or, on a deterministic
    // workload, its traced twin diverges from it); other errors only clear
    // `correct`.
    int attempted = 0, failed = 0;
    std::vector<std::string> errors;
    auto fail = [&](const std::string& why) {
        if (errors.size() < 20) errors.push_back(why);
    };
    auto record = [&](const Solve& s) {
        ++attempted;
        if (!s.error.empty()) {
            ++failed;
            fail(s.error);
        }
    };

    // Untimed warm-up: page in code and allocator arenas.
    {
        const Solve s = runner.solve(
            w.quick, w.instances[w.quick].pool().front(), false);
        record(s);
    }

    // The run solves `rounds` relabelings of every instance, in two halves
    // that repeat the same relabelings in the same order; a relabeling's
    // time is the faster of its two solves. Its work is the same both times,
    // so the minimum drops the slowdown from other load on the host whenever
    // that load lasts less than half a run.
    // A traced pass solves every relabeling twice, so it gets half the
    // passes. Past 1.25x --seconds (a much slower build or machine) the run
    // stops early to stay inside the caller's time budget.
    const int rounds = std::max(
        2, static_cast<int>(std::lround(a.seconds * w.passesPerSecond /
                                        (a.trace ? 4.0 : 2.0))));
    const int planned = 2 * rounds;
    std::vector<InstanceLog> logs(n);
    const auto start = Clock::now();
    int passes = 0;
    while (passes < planned &&
           (passes < 2 || since(start) < 1.25 * a.seconds)) {
        const int round = passes % rounds;
        for (int pos = 0; pos < n; ++pos) {
            const int id = pickRelabel(w.instances[pos], a.seed, round);
            const Solve s = runner.solve(pos, id, false);
            record(s);
            InstanceLog& log = logs[pos];
            if (passes < rounds) {
                log.setupS.push_back(s.setupS);
                log.solveS.push_back(s.solveS);
                log.units.push_back(static_cast<double>(s.units));
            } else {
                log.setupS[round] = std::min(log.setupS[round], s.setupS);
                log.solveS[round] = std::min(log.solveS[round], s.solveS);
            }
            if (!a.trace) continue;
            Solve t = runner.solve(pos, id, true);
            if (t.error.empty() && s.error.empty()) {
                const std::string diff = compareRuns(s, t);
                if (!diff.empty())
                    t.error = catalogue()[w.instances[pos].instance].name +
                              " r" + std::to_string(id) + ": " + diff;
            }
            record(t);
            log.tracedS.push_back(t.solveS);
            log.pairedUntracedS += s.solveS;
            log.counters.add(t.counters);
            log.relaxFailed += static_cast<double>(t.relaxFailed);
            if (t.ug) addUg(log, *t.ug, w.mode);
        }
        ++passes;
    }
    const double measured = since(start);

    Metrics m;
    double solveS = 0, setupS = 0, units = 0;
    for (const InstanceLog& l : logs) {
        solveS += median(l.solveS);
        setupS += median(l.setupS);
        units += median(l.units);
    }
    const int solved = attempted - failed;
    m.add("solve_s", solveS, "s");
    m.add("setup_s", setupS, "s");
    m.add("work_units", units, "count");
    m.add("solved_frac", attempted ? static_cast<double>(solved) / attempted
                                   : 0.0,
          "frac");
    m.add("peak_rss_mb", peakRssMb(), "MB");

    std::string calibration;
    if (a.trace) {
        const std::vector<InstanceTotals> tot = Tracer::totals();
        perLayerMetrics(w, logs, tot, m);
        // Span bookkeeping check: the self times of an instance's spans must
        // add up to its traced wall time.
        for (int pos = 0; pos < n && pos < static_cast<int>(tot.size());
             ++pos) {
            double self = 0, wall = 0;
            for (std::int64_t v : tot[pos].selfNs)
                self += static_cast<double>(v) * 1e-9;
            for (double t : logs[pos].tracedS) wall += t;
            if (std::fabs(self - wall) > 0.05 * wall)
                fail("span self times " + num(self) + " s vs traced wall " +
                     num(wall) + " s");
        }
        // Cost-model calibration: step wall time per charged work unit,
        // per instance family.
        std::map<std::string, std::pair<double, double>> fam;
        for (int pos = 0; pos < n && pos < static_cast<int>(tot.size());
             ++pos) {
            auto& f = fam[catalogue()[w.instances[pos].instance].family];
            f.first += static_cast<double>(
                           tot[pos].totalNs[static_cast<int>(Cat::Step)]) *
                       1e-9;
            f.second += static_cast<double>(tot[pos].stepUnits);
        }
        for (const auto& [name, f] : fam) {
            if (!calibration.empty()) calibration += ",";
            calibration += quote(name) + ":{\"step_s\":" + num(f.first) +
                           ",\"units\":" + num(f.second) + "}";
        }
        if (!a.traceOut.empty() && !Tracer::writeChromeJson(a.traceOut))
            fail("cannot write trace " + a.traceOut);
    }

    std::string instances;
    for (int pos = 0; pos < n; ++pos) {
        if (pos) instances += ",";
        instances += "{\"name\":" +
                     quote(catalogue()[w.instances[pos].instance].name) +
                     ",\"relabelings\":" +
                     std::to_string(logs[pos].solveS.size()) +
                     ",\"solve_s\":" + num(median(logs[pos].solveS)) +
                     ",\"max_solve_s\":" +
                     num(*std::max_element(logs[pos].solveS.begin(),
                                           logs[pos].solveS.end())) +
                     ",\"setup_s\":" + num(median(logs[pos].setupS)) +
                     ",\"work_units\":" + num(median(logs[pos].units)) + "}";
    }
    std::string errs;
    for (const std::string& e : errors) errs += (errs.empty() ? "" : ",") +
                                                quote(e);
    const bool correct = errors.empty();
    std::printf(
        "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"passes\":%d,"
        "\"planned_passes\":%d,"
        "\"measured_s\":%s,\"correct\":%s,\"attempted\":%d,\"failed\":%d,"
        "\"metrics\":%s,\"instances\":[%s],\"calibration\":{%s},"
        "\"errors\":[%s]}\n",
        quote(w.name).c_str(), static_cast<unsigned long long>(a.seed),
        a.trace ? 1 : 0, passes, planned, num(measured).c_str(),
        correct ? "true" : "false", attempted, failed, m.json().c_str(),
        instances.c_str(), calibration.c_str(), errs.c_str());
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<Args> a = parse(argc, argv);
    if (!a) return usage();
    try {
        if (a->quick) return quick(*a) == 0 ? 0 : 1;
        if (a->scanFrom >= 0) return scan(*a);
        return run(*a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e: %s\n", e.what());
        return 1;
    }
}
