#include <gtest/gtest.h>

#include <cmath>

#include "linalg/eigen.hpp"
#include "misdp/instances.hpp"
#include "misdp/plugins.hpp"
#include "misdp/solver.hpp"
#include "sdp/ipm.hpp"
#include "ugcip/misdp_plugins.hpp"

using linalg::Matrix;
using misdp::MisdpProblem;
using misdp::MisdpResult;
using misdp::MisdpSolver;

namespace {

/// Generic oracle: enumerate all integer assignments, solve the remaining
/// continuous SDP with the (independently tested) interior-point solver,
/// and keep the best feasible value.
double bruteForceOracle(const MisdpProblem& p, bool* feasible) {
    std::vector<int> intIdx;
    for (int i = 0; i < p.numVars; ++i)
        if (p.isInt[i]) intIdx.push_back(i);
    const int ni = static_cast<int>(intIdx.size());
    double best = -1e300;
    *feasible = false;
    // Assume binary integers (true for all generated families).
    sdp::SdpProblem sp = misdp::relaxationProblem(p);
    for (long long mask = 0; mask < (1LL << ni); ++mask) {
        sp.lb = p.lb;
        sp.ub = p.ub;
        bool boundsOk = true;
        for (int t = 0; t < ni; ++t) {
            const double v = double((mask >> t) & 1);
            const int i = intIdx[t];
            if (v < p.lb[i] - 1e-9 || v > p.ub[i] + 1e-9) boundsOk = false;
            sp.lb[i] = v;
            sp.ub[i] = v;
        }
        if (!boundsOk) continue;
        sdp::SdpResult r = sdp::solveSdp(sp);
        if (r.status != sdp::SdpStatus::Optimal) continue;
        *feasible = true;
        best = std::max(best, r.objective);
    }
    return best;
}

/// A tiny hand-crafted MISDP: max y0 + y1, y binary,
/// block [[2, y0+y1], [y0+y1, 1]] >= 0  =>  (y0+y1)^2 <= 2  =>  sum <= 1.
MisdpProblem tinyMisdp() {
    MisdpProblem p;
    p.init(2);
    p.name = "tiny";
    p.obj = {1.0, 1.0};
    p.lb = {0.0, 0.0};
    p.ub = {1.0, 1.0};
    p.isInt = {true, true};
    sdp::SdpBlock blk;
    blk.dim = 2;
    blk.c = Matrix{{2, 0}, {0, 1}};
    Matrix a{{0, -1}, {-1, 0}};
    blk.a = {a, a};
    p.addBlock(std::move(blk));
    return p;
}

}  // namespace

TEST(Misdp, TinyInstanceBothModes) {
    MisdpProblem p = tinyMisdp();
    for (const char* mode : {"sdp", "lp"}) {
        MisdpSolver s(p);
        cip::ParamSet params;
        params.setString("misdp/solvemode", mode);
        MisdpResult r = s.solve(params);
        ASSERT_EQ(r.status, cip::Status::Optimal) << mode;
        EXPECT_NEAR(r.objective, 1.0, 1e-5) << mode;
        EXPECT_NEAR(r.dualBound, 1.0, 1e-4) << mode;
        EXPECT_TRUE(p.isFeasible(r.y, 1e-5));
    }
}

TEST(Misdp, FeasibilityChecker) {
    MisdpProblem p = tinyMisdp();
    EXPECT_TRUE(p.isFeasible({1.0, 0.0}));
    EXPECT_TRUE(p.isFeasible({0.0, 0.0}));
    EXPECT_FALSE(p.isFeasible({1.0, 1.0}));   // PSD violated
    EXPECT_FALSE(p.isFeasible({0.5, 0.0}));   // integrality violated
}

TEST(Misdp, InfeasibleInstanceDetected) {
    // Force y0 + y1 >= 2 via a linear row while PSD allows at most 1.
    MisdpProblem p = tinyMisdp();
    p.linearRows.push_back(lp::Row({{0, 1.0}, {1, 1.0}}, 2.0, lp::kInf));
    for (const char* mode : {"sdp", "lp"}) {
        MisdpSolver s(p);
        cip::ParamSet params;
        params.setString("misdp/solvemode", mode);
        MisdpResult r = s.solve(params);
        EXPECT_EQ(r.status, cip::Status::Infeasible) << mode;
    }
}

TEST(Misdp, CardinalityLSMatchesOracle) {
    MisdpProblem p = misdp::genCardinalityLS(3, 4, 2, 7);
    bool feasible = false;
    const double oracle = bruteForceOracle(p, &feasible);
    ASSERT_TRUE(feasible);
    for (const char* mode : {"sdp", "lp"}) {
        MisdpSolver s(p);
        cip::ParamSet params;
        params.setString("misdp/solvemode", mode);
        MisdpResult r = s.solve(params);
        ASSERT_EQ(r.status, cip::Status::Optimal) << mode;
        EXPECT_NEAR(r.objective, oracle, 1e-3) << mode;
        EXPECT_TRUE(p.isFeasible(r.y, 1e-4)) << mode;
    }
}

TEST(Misdp, TrussTopologyMatchesOracle) {
    MisdpProblem p = misdp::genTrussTopology(2, 2, 2.0, 3);
    ASSERT_LE(p.numVars, 12) << "keep the oracle enumerable";
    bool feasible = false;
    const double oracle = bruteForceOracle(p, &feasible);
    ASSERT_TRUE(feasible);
    MisdpSolver s(p);
    MisdpResult r = s.solve();
    ASSERT_EQ(r.status, cip::Status::Optimal);
    EXPECT_NEAR(r.objective, oracle, 1e-3);
}

TEST(Misdp, MinKPartitionMatchesPartitionEnumeration) {
    const int n = 5, k = 2;
    MisdpProblem p = misdp::genMinKPartition(n, k, 11);
    // Enumerate set partitions into at most k parts directly.
    double best = -1e300;
    for (int mask = 0; mask < (1 << n); ++mask) {
        // mask assigns each node to part 0/1.
        std::vector<double> y(p.numVars, 0.0);
        int v = 0;
        double obj = 0.0;
        for (int i = 0; i < n; ++i)
            for (int j = i + 1; j < n; ++j, ++v)
                if (((mask >> i) & 1) == ((mask >> j) & 1)) {
                    y[v] = 1.0;
                    obj += p.obj[v];
                }
        EXPECT_TRUE(p.isFeasible(y, 1e-5))
            << "partition matrices must satisfy the MISDP model";
        best = std::max(best, obj);
    }
    MisdpSolver s(p);
    MisdpResult r = s.solve();
    ASSERT_EQ(r.status, cip::Status::Optimal);
    EXPECT_NEAR(r.objective, best, 1e-4);
}

TEST(Misdp, LpAndSdpModesAgreeAcrossSeeds) {
    for (std::uint64_t seed : {1, 2, 3}) {
        MisdpProblem p = misdp::genCardinalityLS(3, 4, 2, seed);
        MisdpSolver s(p);
        cip::ParamSet lpMode, sdpMode;
        lpMode.setString("misdp/solvemode", "lp");
        sdpMode.setString("misdp/solvemode", "sdp");
        MisdpResult rl = s.solve(lpMode);
        MisdpResult rs = s.solve(sdpMode);
        ASSERT_EQ(rl.status, cip::Status::Optimal) << "seed " << seed;
        ASSERT_EQ(rs.status, cip::Status::Optimal) << "seed " << seed;
        EXPECT_NEAR(rl.objective, rs.objective, 1e-3) << "seed " << seed;
    }
}

// --- ug[CIP-SDP, *] ----------------------------------------------------------

TEST(UgMisdp, ParallelHybridMatchesSequential) {
    MisdpProblem p = misdp::genCardinalityLS(3, 5, 2, 5);
    MisdpSolver seq(p);
    MisdpResult sr = seq.solve();
    ASSERT_EQ(sr.status, cip::Status::Optimal);

    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.rampUp = ug::RampUp::Racing;
    cfg.racingOpenNodesLimit = 5;
    cfg.racingTimeLimit = 0.3;
    ug::UgResult res = ugcip::solveMisdpParallel(p, cfg, /*simulated=*/true);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    misdp::MisdpResult pr = ugcip::toMisdpResult(res);
    EXPECT_NEAR(pr.objective, sr.objective, 1e-3);
    EXPECT_EQ(pr.stats.nodesProcessed, res.stats.totalNodesProcessed);
}

TEST(UgMisdp, RacingSettingsAlternateLpAndSdp) {
    MisdpProblem p = tinyMisdp();
    ugcip::MisdpUserPlugins plugins(p);
    auto settings = plugins.racingSettings(8);
    ASSERT_EQ(settings.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        const std::string mode = settings[i].getString("misdp/solvemode", "");
        // Paper convention: odd 1-based setting ids are SDP-based.
        EXPECT_EQ(mode, i % 2 == 0 ? "sdp" : "lp") << "setting " << i + 1;
    }
}

TEST(UgMisdp, NormalRampUpAlsoSolves) {
    MisdpProblem p = misdp::genMinKPartition(5, 2, 3);
    MisdpSolver seq(p);
    MisdpResult sr = seq.solve();
    ASSERT_EQ(sr.status, cip::Status::Optimal);
    ug::UgConfig cfg;
    cfg.numSolvers = 3;
    ug::UgResult res = ugcip::solveMisdpParallel(p, cfg, /*simulated=*/true);
    ASSERT_EQ(res.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(-res.best.obj, sr.objective, 1e-4);
}

// --- SDPA file format ---------------------------------------------------------

#include <optional>
#include <sstream>
#include <string>

#include "misdp/io.hpp"

namespace {

void expectProblemsEquivalent(const MisdpProblem& a, const MisdpProblem& b) {
    ASSERT_EQ(a.numVars, b.numVars);
    for (int j = 0; j < a.numVars; ++j) {
        EXPECT_NEAR(a.obj[j], b.obj[j], 1e-12) << "obj " << j;
        EXPECT_EQ(a.isInt[j], b.isInt[j]) << "int " << j;
    }
    // Equivalence via optima: bounds may be represented as rows after a
    // roundtrip, but the feasible set must be identical.
    MisdpSolver sa(a), sb(b);
    MisdpResult ra = sa.solve();
    MisdpResult rb = sb.solve();
    ASSERT_EQ(ra.status, rb.status);
    if (ra.status == cip::Status::Optimal) {
        EXPECT_NEAR(ra.objective, rb.objective, 1e-4);
    }
}

}  // namespace

TEST(MisdpIo, RoundtripTiny) {
    MisdpProblem p = tinyMisdp();
    std::ostringstream out;
    ASSERT_TRUE(misdp::writeSdpa(out, p));
    std::istringstream in(out.str());
    auto q = misdp::readSdpa(in);
    ASSERT_TRUE(q.has_value());
    expectProblemsEquivalent(p, *q);
}

TEST(MisdpIo, RoundtripGeneratedFamilies) {
    for (const MisdpProblem& p :
         {misdp::genCardinalityLS(3, 4, 2, 3), misdp::genMinKPartition(5, 2, 5),
          misdp::genTrussTopology(2, 2, 2.0, 2)}) {
        std::ostringstream out;
        ASSERT_TRUE(misdp::writeSdpa(out, p)) << p.name;
        std::istringstream in(out.str());
        auto q = misdp::readSdpa(in);
        ASSERT_TRUE(q.has_value()) << p.name;
        expectProblemsEquivalent(p, *q);
    }
}

TEST(MisdpIo, RejectsGarbage) {
    std::istringstream bad("this is not sdpa\n");
    EXPECT_FALSE(misdp::readSdpa(bad).has_value());
    std::istringstream empty("");
    EXPECT_FALSE(misdp::readSdpa(empty).has_value());
}

namespace {

/// `text` parsed by readSdpa.
std::optional<MisdpProblem> readText(const std::string& text) {
    std::istringstream in(text);
    return misdp::readSdpa(in);
}

/// A valid SDPA text: a 2x2 block and one linear row on two variables.
const std::string kSmallSdpa =
    "\"small\"\n2 = mDIM\n2 = nBLOCK\n2 -1 = bLOCKsTRUCT\n1 1\n"
    "0 1 1 1 -2\n0 1 2 2 -1\n1 1 1 2 1\n2 1 1 2 1\n"
    "0 2 1 1 -1\n1 2 1 1 -1\n2 2 1 1 -1\n*INTEGER\n*1\n*2\n";

}  // namespace

TEST(MisdpIo, ReadsSmallFileAndSkipsBlankLines) {
    auto p = readText(kSmallSdpa);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->numVars, 2);
    EXPECT_EQ(p->blocks.size(), 1u);
    EXPECT_EQ(p->linearRows.size(), 1u);
    EXPECT_DOUBLE_EQ(p->blocks[0].a[0](0, 1), -1.0);
    std::string spaced = kSmallSdpa;
    spaced.insert(spaced.find("0 1 2 2"), "   \t\n\n");
    auto q = readText(spaced);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->blocks[0].c(1, 1), p->blocks[0].c(1, 1));
}

TEST(MisdpIo, RejectsTruncatedEntryLine) {
    std::string text = kSmallSdpa;
    const std::size_t at = text.find("1 1 1 2 1\n");
    text.replace(at, 10, "1 1 1 2\n");  // value missing
    EXPECT_FALSE(readText(text).has_value());
}

TEST(MisdpIo, RejectsHugeVariableCount) {
    std::string text = kSmallSdpa;
    text.replace(text.find("2 = mDIM"), 1, "2000000000");
    EXPECT_FALSE(readText(text).has_value());
    text = kSmallSdpa;
    text.replace(text.find("2 = nBLOCK"), 1, "100000");
    EXPECT_FALSE(readText(text).has_value());
}

TEST(MisdpIo, RejectsHugeBlockSize) {
    for (const char* blocks : {"2000000 -1", "2 -2000000", "1000 1000"}) {
        std::string text = kSmallSdpa;
        text.replace(text.find("2 -1 ="), 4, blocks);
        EXPECT_FALSE(readText(text).has_value()) << blocks;
    }
}

TEST(MisdpIo, RejectsNonFiniteValues) {
    for (const char* bad : {"inf", "nan", "-inf", "1e999"}) {
        std::string entry = kSmallSdpa;
        entry.replace(entry.find("0 1 1 1 -2") + 8, 2, bad);
        EXPECT_FALSE(readText(entry).has_value()) << "entry " << bad;
        std::string obj = kSmallSdpa;
        obj.replace(obj.find("1 1\n0 1"), 1, bad);
        EXPECT_FALSE(readText(obj).has_value()) << "objective " << bad;
    }
}

TEST(MisdpIo, RejectsBadIntegerMarker) {
    std::string base = kSmallSdpa;
    base.erase(base.find("*INTEGER"));
    // The three markers together, then each bad one alone.
    EXPECT_FALSE(readText(base + "*INTEGER\n*7\n*x\n*1\n").has_value());
    for (const char* bad : {"*7", "*x", "*0", "*-1", "*1x", "*"})
        EXPECT_FALSE(readText(base + "*INTEGER\n*1\n" + bad + "\n").has_value())
            << bad;
    // Before *INTEGER a '*' line is a comment, even when it reads as one.
    auto p = readText(base + "* comment\n*2\n*INTEGER\n*1\n");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->isInt, (std::vector<bool>{true, false}));
}

TEST(MisdpIo, FileRoundtrip) {
    MisdpProblem p = misdp::genCardinalityLS(3, 4, 2, 8);
    const std::string path = "/tmp/ugcop_misdp_io_test.dat-s";
    ASSERT_TRUE(misdp::writeSdpaFile(path, p));
    auto q = misdp::readSdpaFile(path);
    ASSERT_TRUE(q.has_value());
    expectProblemsEquivalent(p, *q);
    std::remove(path.c_str());
    EXPECT_FALSE(misdp::readSdpaFile(path).has_value());
}
