#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "cip/model.hpp"
#include "cip/plugins.hpp"
#include "cip/solver.hpp"

using cip::kInf;
using cip::Model;
using cip::Row;
using cip::Solution;
using cip::Solver;
using cip::Status;

namespace {

/// Brute-force oracle for pure binary programs: enumerate all 2^n points.
struct OracleResult {
    bool feasible = false;
    double obj = kInf;
};

OracleResult bruteForceBinary(const Model& m) {
    OracleResult res;
    const int n = m.numVars();
    for (long long mask = 0; mask < (1LL << n); ++mask) {
        std::vector<double> x(n);
        bool okBounds = true;
        for (int j = 0; j < n; ++j) {
            x[j] = (mask >> j) & 1;
            if (x[j] < m.var(j).lb - 1e-9 || x[j] > m.var(j).ub + 1e-9)
                okBounds = false;
        }
        if (!okBounds) continue;
        bool ok = true;
        for (int i = 0; i < m.numRows() && ok; ++i) {
            const double a = m.row(i).activity(x);
            ok = a >= m.row(i).lhs - 1e-9 && a <= m.row(i).rhs + 1e-9;
        }
        if (!ok) continue;
        double obj = m.objOffset;
        for (int j = 0; j < n; ++j) obj += m.var(j).obj * x[j];
        if (!res.feasible || obj < res.obj) {
            res.feasible = true;
            res.obj = obj;
        }
    }
    return res;
}

Model knapsackModel(const std::vector<double>& value,
                    const std::vector<double>& weight, double cap) {
    Model m;
    std::vector<std::pair<int, double>> coefs;
    for (std::size_t j = 0; j < value.size(); ++j) {
        m.addVar(-value[j], 0.0, 1.0, true);  // maximize value
        coefs.emplace_back(static_cast<int>(j), weight[j]);
    }
    m.addLinear(Row(std::move(coefs), -kInf, cap));
    return m;
}

}  // namespace

TEST(CipSolver, SolvesSmallKnapsack) {
    // values 10,13,7,8; weights 5,7,4,3; cap 10 -> best = 13+8=21 (w 10).
    Model m = knapsackModel({10, 13, 7, 8}, {5, 7, 4, 3}, 10);
    Solver s;
    s.setModel(std::move(m));
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, -21.0, 1e-6);
    EXPECT_NEAR(s.primalBound(), s.dualBound(), 1e-6);
}

TEST(CipSolver, InfeasibleIntegerProgram) {
    Model m;
    m.addVar(1.0, 0.0, 1.0, true);
    m.addVar(1.0, 0.0, 1.0, true);
    // x + y = 2 and x + y <= 1 simultaneously.
    m.addLinear(Row({{0, 1.0}, {1, 1.0}}, 2.0, 2.0));
    m.addLinear(Row({{0, 1.0}, {1, 1.0}}, -kInf, 1.0));
    Solver s;
    s.setModel(std::move(m));
    EXPECT_EQ(s.solve(), Status::Infeasible);
}

TEST(CipSolver, MixedIntegerWithContinuousPart) {
    // min -x - 0.5 y, x integer in [0,3], y continuous in [0, 2.5],
    // x + y <= 4 -> x = 3, y = 1 -> obj -3.5
    Model m;
    m.addVar(-1.0, 0.0, 3.0, true);
    m.addVar(-0.5, 0.0, 2.5, false);
    m.addLinear(Row({{0, 1.0}, {1, 1.0}}, -kInf, 4.0));
    Solver s;
    s.setModel(std::move(m));
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, -3.5, 1e-6);
    EXPECT_NEAR(s.incumbent().x[0], 3.0, 1e-6);
    EXPECT_NEAR(s.incumbent().x[1], 1.0, 1e-6);
}

TEST(CipSolver, ObjOffsetRespected) {
    Model m = knapsackModel({5, 4}, {2, 3}, 4);
    m.objOffset = 100.0;
    Solver s;
    s.setModel(std::move(m));
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, 100.0 - 5.0, 1e-6);
}

TEST(CipSolver, NodeLimitReported) {
    // A model needing branching with node limit 1.
    Model m = knapsackModel({3, 5, 7, 9, 11}, {2, 3, 4, 5, 6}, 9);
    Solver s;
    s.setModel(std::move(m));
    s.params().setReal("limits/nodes", 1.0);
    s.params().setInt("heuristics/freq", 0);
    s.params().setBool("heuristics/diving/enabled", false);
    Status st = s.solve();
    EXPECT_TRUE(st == Status::NodeLimit || st == Status::Optimal);
    if (st == Status::NodeLimit) {
        EXPECT_EQ(s.stats().nodesProcessed, 1);
    }
}

TEST(CipSolver, SteppingApiProcessesOneNodeAtATime) {
    Model m = knapsackModel({3, 5, 7, 9, 11, 6, 4}, {2, 3, 4, 5, 6, 3, 2}, 11);
    Solver s;
    s.setModel(std::move(m));
    s.initSolve();
    ASSERT_FALSE(s.finished());
    std::int64_t totalCost = 0;
    int steps = 0;
    while (!s.finished()) {
        totalCost += s.step();
        ++steps;
        ASSERT_LT(steps, 100000);
    }
    EXPECT_EQ(s.status(), Status::Optimal);
    EXPECT_GT(totalCost, 0);
    EXPECT_EQ(s.stats().totalCost, totalCost);
}

TEST(CipSolver, InjectedSolutionEnablesCutoff) {
    Model m = knapsackModel({10, 13, 7, 8}, {5, 7, 4, 3}, 10);
    Solver s;
    s.setModel(std::move(m));
    s.initSolve();
    Solution sol;
    sol.x = {0, 1, 0, 1};  // value 21 -> obj -21 (the optimum)
    sol.obj = -21.0;
    s.injectSolution(sol);
    EXPECT_NEAR(s.primalBound(), -21.0, 1e-9);
    while (!s.finished()) s.step();
    EXPECT_EQ(s.status(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, -21.0, 1e-6);
}

TEST(CipSolver, IncumbentCallbackFires) {
    Model m = knapsackModel({10, 13, 7, 8}, {5, 7, 4, 3}, 10);
    Solver s;
    s.setModel(std::move(m));
    int calls = 0;
    double bestSeen = kInf;
    s.setIncumbentCallback([&](const Solution& sol) {
        ++calls;
        EXPECT_LT(sol.obj, bestSeen);  // strictly improving sequence
        bestSeen = sol.obj;
    });
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_GE(calls, 1);
    EXPECT_NEAR(bestSeen, -21.0, 1e-6);
}

TEST(CipSolver, InterruptFlagStopsSolve) {
    Model m = knapsackModel({3, 5, 7, 9, 11, 6, 4, 8, 2, 9},
                            {2, 3, 4, 5, 6, 3, 2, 4, 1, 5}, 15);
    Solver s;
    s.setModel(std::move(m));
    std::atomic<bool> stop{false};
    s.setInterruptFlag(&stop);
    s.initSolve();
    s.step();
    stop = true;
    while (!s.finished()) s.step();
    EXPECT_EQ(s.status(), Status::Interrupted);
}

TEST(CipSolver, SubproblemTransferPreservesOptimum) {
    // Solve a knapsack; separately, extract an open node early, solve the
    // extracted subproblem in a fresh solver, and verify that combining the
    // extracted subproblem's optimum with the donor's remaining search gives
    // the global optimum. This is the core UG node-transfer invariant.
    auto build = [] {
        return knapsackModel({3, 5, 7, 9, 11, 6, 4, 8},
                             {2, 3, 4, 5, 6, 3, 2, 4}, 13);
    };
    Model ref = build();
    Solver whole;
    whole.setModel(build());
    ASSERT_EQ(whole.solve(), Status::Optimal);
    const double trueOpt = whole.incumbent().obj;

    Solver donor;
    donor.setModel(build());
    donor.params().setInt("heuristics/freq", 0);
    donor.params().setBool("heuristics/diving/enabled", false);
    donor.params().setString("nodeselection", "dfs");
    donor.initSolve();
    // Step until there are at least 2 open nodes to steal one.
    while (!donor.finished() && donor.numOpenNodes() < 2) donor.step();
    ASSERT_FALSE(donor.finished());
    auto stolen = donor.extractOpenNode();
    ASSERT_TRUE(stolen.has_value());

    Solver receiver;
    receiver.setModel(build());
    receiver.loadSubproblem(*stolen);
    Status rst = receiver.solve();
    double recvBest = kInf;
    if (rst == Status::Optimal && receiver.incumbent().valid())
        recvBest = receiver.incumbent().obj;

    while (!donor.finished()) donor.step();
    double donorBest =
        donor.incumbent().valid() ? donor.incumbent().obj : kInf;

    EXPECT_NEAR(std::min(donorBest, recvBest), trueOpt, 1e-6);
}

TEST(CipSolver, DualBoundNeverExceedsPrimal) {
    Model m = knapsackModel({3, 5, 7, 9, 11, 6}, {2, 3, 4, 5, 6, 3}, 9);
    Solver s;
    s.setModel(std::move(m));
    s.initSolve();
    while (!s.finished()) {
        s.step();
        EXPECT_LE(s.dualBound(), s.primalBound() + 1e-6);
    }
    EXPECT_EQ(s.status(), Status::Optimal);
    EXPECT_NEAR(s.gap(), 0.0, 1e-9);
}

// --- plugin tests -----------------------------------------------------------

namespace {

/// Constraint handler enforcing x_a + x_b <= 1 pairs via lazy cuts (a toy
/// "conflict" handler exercising check/separate/enforce).
class ConflictHandler : public cip::ConstraintHandler {
public:
    ConflictHandler(std::vector<std::pair<int, int>> pairs)
        : ConstraintHandler("conflict", 0), pairs_(std::move(pairs)) {}

    bool check(Solver&, const std::vector<double>& x) override {
        for (auto [a, b] : pairs_)
            if (x[a] + x[b] > 1.0 + 1e-6) return false;
        return true;
    }

    int separate(Solver& solver, const std::vector<double>& x) override {
        int cuts = 0;
        for (auto [a, b] : pairs_) {
            if (x[a] + x[b] > 1.0 + 1e-6) {
                solver.addCut(Row({{a, 1.0}, {b, 1.0}}, -kInf, 1.0));
                ++cuts;
            }
        }
        return cuts;
    }

    int enforce(Solver& solver, const std::vector<double>& x,
                cip::BranchDecision&) override {
        return separate(solver, x);
    }

private:
    std::vector<std::pair<int, int>> pairs_;
};

/// Oracle for knapsack + conflicts.
double conflictKnapsackOracle(const std::vector<double>& value,
                              const std::vector<double>& weight, double cap,
                              const std::vector<std::pair<int, int>>& pairs) {
    const int n = static_cast<int>(value.size());
    double best = 0.0;
    for (int mask = 0; mask < (1 << n); ++mask) {
        double w = 0, v = 0;
        for (int j = 0; j < n; ++j)
            if (mask & (1 << j)) {
                w += weight[j];
                v += value[j];
            }
        if (w > cap + 1e-9) continue;
        bool ok = true;
        for (auto [a, b] : pairs)
            if ((mask & (1 << a)) && (mask & (1 << b))) ok = false;
        if (!ok) continue;
        best = std::max(best, v);
    }
    return best;
}

}  // namespace

TEST(CipPlugins, ConstraintHandlerLazyCuts) {
    std::vector<double> value{10, 13, 7, 8, 9};
    std::vector<double> weight{5, 7, 4, 3, 4};
    std::vector<std::pair<int, int>> pairs{{0, 1}, {2, 3}, {1, 4}};
    Model m = knapsackModel(value, weight, 12);
    Solver s;
    s.setModel(std::move(m));
    s.addConstraintHandler(std::make_unique<ConflictHandler>(pairs));
    ASSERT_EQ(s.solve(), Status::Optimal);
    const double oracle = conflictKnapsackOracle(value, weight, 12, pairs);
    EXPECT_NEAR(-s.incumbent().obj, oracle, 1e-6);
}

namespace {

/// A branchrule plugin forcing branching on the highest-index fractional
/// variable; verifies that plugin rules take precedence.
class HighestIndexBranching : public cip::Branchrule {
public:
    HighestIndexBranching() : Branchrule("highestindex", 1000) {}
    cip::BranchDecision branch(Solver& solver,
                               const std::vector<double>& x) override {
        cip::BranchDecision d;
        for (int j = solver.model().numVars() - 1; j >= 0; --j) {
            if (!solver.model().var(j).isInt) continue;
            const double f = x[j] - std::floor(x[j]);
            if (f > 1e-6 && f < 1.0 - 1e-6) {
                d.var = j;
                d.point = x[j];
                ++invocations;
                break;
            }
        }
        return d;
    }
    int invocations = 0;
};

}  // namespace

TEST(CipPlugins, BranchrulePluginTakesPrecedence) {
    // Capacity 10 makes the root LP fractional (greedy ratio order fills the
    // knapsack mid-item), so branching is guaranteed to be invoked.
    Model m = knapsackModel({3, 5, 7, 9, 11, 6, 4}, {2, 3, 4, 5, 6, 3, 2}, 10);
    OracleResult oracle = bruteForceBinary(m);
    ASSERT_TRUE(oracle.feasible);
    Solver s;
    s.setModel(std::move(m));
    s.params().setInt("heuristics/freq", 0);
    s.params().setBool("heuristics/diving/enabled", false);
    auto rule = std::make_unique<HighestIndexBranching>();
    auto* rulePtr = rule.get();
    s.addBranchrule(std::move(rule));
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_NEAR(s.incumbent().obj, oracle.obj, 1e-6);
    EXPECT_GT(rulePtr->invocations, 0);
}

namespace {

class CountingEvents : public cip::EventHandler {
public:
    CountingEvents() : EventHandler("counter", 0) {}
    void onIncumbent(Solver&, const Solution&) override { ++incumbents; }
    void onNodeProcessed(Solver&) override { ++nodes; }
    int incumbents = 0;
    int nodes = 0;
};

}  // namespace

TEST(CipPlugins, EventHandlerSeesNodesAndIncumbents) {
    Model m = knapsackModel({10, 13, 7, 8}, {5, 7, 4, 3}, 10);
    Solver s;
    s.setModel(std::move(m));
    auto ev = std::make_unique<CountingEvents>();
    auto* evPtr = ev.get();
    s.addEventHandler(std::move(ev));
    ASSERT_EQ(s.solve(), Status::Optimal);
    EXPECT_GE(evPtr->incumbents, 1);
    EXPECT_EQ(evPtr->nodes, s.stats().nodesProcessed);
}

TEST(CipParams, EmphasisPresetsDiffer) {
    auto def = cip::ParamSet::emphasis("default");
    auto easy = cip::ParamSet::emphasis("easycip");
    EXPECT_NE(def.getString("nodeselection", ""),
              easy.getString("nodeselection", ""));
    EXPECT_THROW(cip::ParamSet::emphasis("nonsense"), std::runtime_error);
}

TEST(CipParams, TypedAccessAndMerge) {
    cip::ParamSet p;
    p.setInt("a", 3);
    p.setReal("b", 1.5);
    p.setBool("c", true);
    p.setString("d", "x");
    EXPECT_EQ(p.getInt("a", 0), 3);
    EXPECT_DOUBLE_EQ(p.getReal("b", 0), 1.5);
    EXPECT_DOUBLE_EQ(p.getReal("a", 0), 3.0);  // int readable as real
    EXPECT_TRUE(p.getBool("c", false));
    EXPECT_EQ(p.getString("d", ""), "x");
    EXPECT_EQ(p.getInt("missing", 42), 42);
    cip::ParamSet q;
    q.setInt("a", 7);
    p.merge(q);
    EXPECT_EQ(p.getInt("a", 0), 7);
    EXPECT_THROW(p.getInt("d", 0), std::runtime_error);
}

// Property test: random binary programs against brute force, across
// emphasis settings and permutation seeds (the racing-diversity knobs).
// The emphasis is a std::string, not a const char*: gtest prints a pointer
// parameter with its address, which ASLR changes on every run, so the ctest
// names that gtest_discover_tests derives from it would never be stable.
class CipRandomBinary
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(CipRandomBinary, MatchesBruteForce) {
    const int seed = std::get<0>(GetParam());
    const std::string emphasis = std::get<1>(GetParam());
    std::mt19937 rng(seed * 7919 + 13);
    std::uniform_real_distribution<double> coef(-5.0, 5.0);
    std::uniform_int_distribution<int> nv(3, 9);
    std::uniform_int_distribution<int> nr(1, 5);
    for (int rep = 0; rep < 6; ++rep) {
        const int n = nv(rng), rows = nr(rng);
        Model m;
        for (int j = 0; j < n; ++j) m.addVar(coef(rng), 0.0, 1.0, true);
        for (int i = 0; i < rows; ++i) {
            std::vector<std::pair<int, double>> cs;
            for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
            const double rhs = coef(rng);
            m.addLinear(Row(std::move(cs), -kInf, rhs));
        }
        OracleResult oracle = bruteForceBinary(m);
        Solver s;
        s.params().merge(cip::ParamSet::emphasis(emphasis));
        s.params().setInt("randomization/permutationseed", seed);
        s.setModel(std::move(m));
        Status st = s.solve();
        if (oracle.feasible) {
            ASSERT_EQ(st, Status::Optimal) << "seed=" << seed << " rep=" << rep;
            EXPECT_NEAR(s.incumbent().obj, oracle.obj, 1e-5)
                << "seed=" << seed << " rep=" << rep;
        } else {
            EXPECT_EQ(st, Status::Infeasible);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndEmphases, CipRandomBinary,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(std::string("default"),
                                         std::string("easycip"),
                                         std::string("aggressive"),
                                         std::string("fast"))));

// Property test: bounded general-integer MIPs against brute force.
class CipRandomInteger : public ::testing::TestWithParam<int> {};

TEST_P(CipRandomInteger, MatchesEnumeration) {
    std::mt19937 rng(GetParam() * 104729 + 7);
    std::uniform_real_distribution<double> coef(-4.0, 4.0);
    for (int rep = 0; rep < 5; ++rep) {
        const int n = 4;
        const int ub = 3;
        Model m;
        for (int j = 0; j < n; ++j) m.addVar(coef(rng), 0.0, ub, true);
        for (int i = 0; i < 3; ++i) {
            std::vector<std::pair<int, double>> cs;
            for (int j = 0; j < n; ++j) cs.emplace_back(j, coef(rng));
            m.addLinear(Row(std::move(cs), -8.0, 8.0));
        }
        // Enumerate (ub+1)^n integer points.
        bool feasible = false;
        double best = kInf;
        std::vector<double> x(n);
        const int total = (ub + 1) * (ub + 1) * (ub + 1) * (ub + 1);
        for (int code = 0; code < total; ++code) {
            int c = code;
            for (int j = 0; j < n; ++j) {
                x[j] = c % (ub + 1);
                c /= (ub + 1);
            }
            bool ok = true;
            for (int i = 0; i < m.numRows() && ok; ++i) {
                const double a = m.row(i).activity(x);
                ok = a >= m.row(i).lhs - 1e-9 && a <= m.row(i).rhs + 1e-9;
            }
            if (!ok) continue;
            double obj = 0;
            for (int j = 0; j < n; ++j) obj += m.var(j).obj * x[j];
            if (!feasible || obj < best) {
                feasible = true;
                best = obj;
            }
        }
        Solver s;
        s.setModel(std::move(m));
        Status st = s.solve();
        if (feasible) {
            ASSERT_EQ(st, Status::Optimal);
            EXPECT_NEAR(s.incumbent().obj, best, 1e-5);
        } else {
            EXPECT_EQ(st, Status::Infeasible);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CipRandomInteger,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));
