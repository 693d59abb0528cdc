#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "linalg/eigen.hpp"
#include "misdp/instances.hpp"
#include "misdp/plugins.hpp"
#include "sdp/ipm.hpp"

using linalg::Matrix;
using sdp::SdpBlock;
using sdp::SdpProblem;
using sdp::SdpResult;
using sdp::SdpStatus;

namespace {

/// max b'y over two variables, validated against a fine grid (coarse oracle).
double gridOracle(const SdpProblem& p, double lo, double hi, int steps) {
    double best = -1e300;
    const double h = (hi - lo) / steps;
    for (int i = 0; i <= steps; ++i)
        for (int j = 0; j <= steps; ++j) {
            std::vector<double> y{lo + i * h, lo + j * h};
            if (p.isFeasible(y, 1e-9)) best = std::max(best, p.objective(y));
        }
    return best;
}

}  // namespace

TEST(Sdp, ScalarBlockActsLikeLp) {
    // max y s.t. 3 - y >= 0 (1x1 block), y in [0, 10].
    SdpProblem p;
    p.init(1);
    p.b = {1.0};
    p.lb = {0.0};
    p.ub = {10.0};
    SdpBlock blk;
    blk.dim = 1;
    blk.c = Matrix(1, 1, 3.0);
    blk.a = {Matrix(1, 1, 1.0)};
    p.addBlock(std::move(blk));
    SdpResult r = sdp::solveSdp(p);
    ASSERT_EQ(r.status, SdpStatus::Optimal);
    EXPECT_NEAR(r.objective, 3.0, 1e-5);
    EXPECT_GE(r.upperBound, r.objective - 1e-7);
    EXPECT_LE(r.upperBound, 3.0 + 1e-4);
}

TEST(Sdp, CorrelationMatrixBound) {
    // max y s.t. [[1, y], [y, 1]] >= 0  ->  y* = 1.
    SdpProblem p;
    p.init(1);
    p.b = {1.0};
    p.lb = {-5.0};
    p.ub = {5.0};
    SdpBlock blk;
    blk.dim = 2;
    blk.c = Matrix{{1, 0}, {0, 1}};
    blk.a = {Matrix{{0, -1}, {-1, 0}}};  // C - A y = [[1, y],[y, 1]]
    p.addBlock(std::move(blk));
    SdpResult r = sdp::solveSdp(p);
    ASSERT_EQ(r.status, SdpStatus::Optimal);
    EXPECT_NEAR(r.objective, 1.0, 1e-4);
}

TEST(Sdp, SmallestEigenvalueProblem) {
    // max t s.t. A - t I >= 0  ->  t* = lambda_min(A).
    Matrix a{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}};
    const double lmin = linalg::smallestEigenvalue(a);
    SdpProblem p;
    p.init(1);
    p.b = {1.0};
    p.lb = {-100.0};
    p.ub = {100.0};
    SdpBlock blk;
    blk.dim = 3;
    blk.c = a;
    blk.a = {Matrix::identity(3)};
    p.addBlock(std::move(blk));
    SdpResult r = sdp::solveSdp(p);
    ASSERT_EQ(r.status, SdpStatus::Optimal);
    EXPECT_NEAR(r.objective, lmin, 1e-4);
}

TEST(Sdp, FixedVariablesAreEliminated) {
    // y0 fixed to 2 by bounds; max y1 s.t. 5 - y0 - y1 >= 0 -> y1 = 3.
    SdpProblem p;
    p.init(2);
    p.b = {0.0, 1.0};
    p.lb = {2.0, 0.0};
    p.ub = {2.0, 100.0};
    SdpBlock blk;
    blk.dim = 1;
    blk.c = Matrix(1, 1, 5.0);
    blk.a = {Matrix(1, 1, 1.0), Matrix(1, 1, 1.0)};
    p.addBlock(std::move(blk));
    SdpResult r = sdp::solveSdp(p);
    ASSERT_EQ(r.status, SdpStatus::Optimal);
    EXPECT_NEAR(r.y[0], 2.0, 1e-9);
    EXPECT_NEAR(r.objective, 3.0, 1e-4);
}

TEST(Sdp, DetectsInfeasibilityViaPenalty) {
    // 1 - y >= 0 and y - 2 >= 0 simultaneously: empty.
    SdpProblem p;
    p.init(1);
    p.b = {1.0};
    p.lb = {-10.0};
    p.ub = {10.0};
    SdpBlock b1;
    b1.dim = 1;
    b1.c = Matrix(1, 1, 1.0);
    b1.a = {Matrix(1, 1, 1.0)};  // 1 - y >= 0
    p.addBlock(std::move(b1));
    SdpBlock b2;
    b2.dim = 1;
    b2.c = Matrix(1, 1, -2.0);
    b2.a = {Matrix(1, 1, -1.0)};  // y - 2 >= 0
    p.addBlock(std::move(b2));
    SdpResult r = sdp::solveSdp(p);
    EXPECT_EQ(r.status, SdpStatus::Infeasible);
    EXPECT_GT(r.penalty, 1e-4);
}

TEST(Sdp, MultipleBlocksAndBothBounds) {
    // max y1 + y2, blocks [[2 - y1]] and [[2 - y2]], y in [0, 5]^2 -> 4.
    SdpProblem p;
    p.init(2);
    p.b = {1.0, 1.0};
    p.lb = {0.0, 0.0};
    p.ub = {5.0, 5.0};
    for (int i = 0; i < 2; ++i) {
        SdpBlock blk;
        blk.dim = 1;
        blk.c = Matrix(1, 1, 2.0);
        blk.a.assign(2, Matrix{});
        blk.a[i] = Matrix(1, 1, 1.0);
        p.addBlock(std::move(blk));
    }
    SdpResult r = sdp::solveSdp(p);
    ASSERT_EQ(r.status, SdpStatus::Optimal);
    EXPECT_NEAR(r.objective, 4.0, 1e-4);
}

TEST(Sdp, FeasibilityCheckerAgrees) {
    SdpProblem p;
    p.init(1);
    p.b = {1.0};
    p.lb = {-5.0};
    p.ub = {5.0};
    SdpBlock blk;
    blk.dim = 2;
    blk.c = Matrix{{1, 0}, {0, 1}};
    blk.a = {Matrix{{0, -1}, {-1, 0}}};
    p.addBlock(std::move(blk));
    EXPECT_TRUE(p.isFeasible({0.5}));
    EXPECT_TRUE(p.isFeasible({1.0}, 1e-6));
    EXPECT_FALSE(p.isFeasible({1.5}));
    EXPECT_FALSE(p.isFeasible({6.0}));  // bound violation
}

// Property: random 2-variable SDPs against a grid oracle.
class SdpRandom : public ::testing::TestWithParam<int> {};

TEST_P(SdpRandom, MatchesGridOracle) {
    std::mt19937 rng(GetParam() * 7 + 3);
    std::uniform_real_distribution<double> coef(-1.0, 1.0);
    for (int rep = 0; rep < 4; ++rep) {
        SdpProblem p;
        p.init(2);
        p.b = {coef(rng), coef(rng)};
        p.lb = {-2.0, -2.0};
        p.ub = {2.0, 2.0};
        // Block C = diag-dominant random symmetric + margin, so y = 0 is
        // strictly feasible (Slater holds).
        SdpBlock blk;
        blk.dim = 3;
        Matrix c(3, 3);
        for (int i = 0; i < 3; ++i)
            for (int j = i; j < 3; ++j) {
                const double v = coef(rng);
                c(i, j) = v;
                c(j, i) = v;
            }
        for (int i = 0; i < 3; ++i) c(i, i) += 3.0;
        blk.c = c;
        blk.a.resize(2);
        for (int k = 0; k < 2; ++k) {
            Matrix a(3, 3);
            for (int i = 0; i < 3; ++i)
                for (int j = i; j < 3; ++j) {
                    const double v = coef(rng);
                    a(i, j) = v;
                    a(j, i) = v;
                }
            blk.a[k] = a;
        }
        p.addBlock(std::move(blk));
        SdpResult r = sdp::solveSdp(p);
        ASSERT_EQ(r.status, SdpStatus::Optimal) << "rep " << rep;
        const double oracle = gridOracle(p, -2.0, 2.0, 160);
        // The solver's point must be (nearly) feasible and as good as the
        // best grid point; its upper bound must dominate the oracle.
        EXPECT_TRUE(p.isFeasible(r.y, 1e-5));
        EXPECT_GE(r.objective, oracle - 0.05);
        EXPECT_GE(r.upperBound, oracle - 1e-6);
        EXPECT_LE(r.objective, r.upperBound + 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdpRandom, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------------------------------------------------------------------------
// Exact-output pins. The interior point skips zero entries, keeps 1x1
// blocks as scalars and runs allocation-free dense-block kernels; the
// values below were recorded from earlier implementations (the dense IPM;
// ttd3x3 from the sparse IPM with allocating kernels), and the current one
// must reproduce them bit for bit.
// ---------------------------------------------------------------------------

namespace {

struct Pinned {
    const char* name;
    SdpStatus status;
    int iterations;
    double upperBound;
    std::vector<double> y;
};

void expectPinned(const SdpResult& r, const Pinned& p) {
    EXPECT_EQ(r.status, p.status) << p.name;
    EXPECT_EQ(r.iterations, p.iterations) << p.name;
    EXPECT_EQ(r.upperBound, p.upperBound) << p.name;
    ASSERT_EQ(r.y.size(), p.y.size()) << p.name;
    for (std::size_t i = 0; i < p.y.size(); ++i)
        EXPECT_EQ(r.y[i], p.y[i]) << p.name << " y" << i;
}

/// The relaxation of `p` at the root (seed 0), or with each binary fixed
/// to 0 or to 1 with probability 1/8 each, drawn from std::mt19937(seed).
SdpProblem relaxationAt(const misdp::MisdpProblem& p, unsigned seed) {
    SdpProblem sp = misdp::relaxationProblem(p);
    if (seed == 0) return sp;
    std::mt19937 rng(seed);
    for (int i = 0; i < p.numVars; ++i) {
        if (!p.isInt[i]) continue;
        const unsigned r = rng() % 8;
        if (r < 2) sp.lb[i] = sp.ub[i] = static_cast<double>(r);
    }
    return sp;
}

SdpBlock scalarBlock(double c, std::vector<double> a) {
    SdpBlock blk;
    blk.dim = 1;
    blk.c = Matrix(1, 1, c);
    for (double v : a) blk.a.push_back(v == 0.0 ? Matrix{} : Matrix(1, 1, v));
    return blk;
}

/// max y0 + y1/2 with 4 - y0 - y1 >= 0 ahead of a 2x2 block.
SdpProblem scalarBeforeDense() {
    SdpProblem p;
    p.init(2);
    p.b = {1.0, 0.5};
    p.lb = {-3.0, -3.0};
    p.ub = {3.0, 3.0};
    p.addBlock(scalarBlock(4.0, {1.0, 1.0}));
    SdpBlock blk;
    blk.dim = 2;
    blk.c = Matrix{{2.0, 0.5}, {0.5, 1.0}};
    blk.a = {Matrix{{1.0, 0.0}, {0.0, 0.0}}, Matrix{{0.0, 1.0}, {1.0, 0.0}}};
    p.addBlock(std::move(blk));
    return p;
}

/// A 3x3 block whose A_1 is present but all zero.
SdpProblem zeroMatrixTerm() {
    SdpProblem p;
    p.init(2);
    p.b = {1.0, -0.25};
    p.lb = {-5.0, 0.0};
    p.ub = {5.0, 1.0};
    SdpBlock blk;
    blk.dim = 3;
    blk.c = Matrix{{2.0, 0.0, 0.5}, {0.0, 3.0, 0.0}, {0.5, 0.0, 1.5}};
    blk.a = {Matrix{{1.0, 0.0, 0.0}, {0.0, 0.0, 0.5}, {0.0, 0.5, 1.0}},
             Matrix(3, 3)};
    p.addBlock(std::move(blk));
    return p;
}

/// y2 appears in no block: only its bounds hold it.
SdpProblem variableInNoBlock() {
    SdpProblem p;
    p.init(3);
    p.b = {1.0, 1.0, 0.25};
    p.lb = {0.0, -1e30, -1.0};
    p.ub = {1e30, 2.0, 2.0};
    SdpBlock blk;
    blk.dim = 2;
    blk.c = Matrix{{3.0, 0.0}, {0.0, 2.0}};
    blk.a = {Matrix{{1.0, 0.5}, {0.5, 0.0}}, Matrix{{0.0, 0.0}, {0.0, 1.0}}};
    p.addBlock(std::move(blk));
    return p;
}

/// Every variable fixed by its bounds: only the penalty radius is free.
SdpProblem allFixed() {
    SdpProblem p = scalarBeforeDense();
    p.lb = {0.5, 0.25};
    p.ub = {0.5, 0.25};
    return p;
}

/// [[1, y], [y, 1]] >= 0 and y - 2 >= 0: empty, so the penalty stays on.
SdpProblem penaltyInfeasible() {
    SdpProblem p;
    p.init(1);
    p.b = {1.0};
    p.lb = {-10.0};
    p.ub = {10.0};
    SdpBlock blk;
    blk.dim = 2;
    blk.c = Matrix{{1.0, 0.0}, {0.0, 1.0}};
    blk.a = {Matrix{{0.0, -1.0}, {-1.0, 0.0}}};
    p.addBlock(std::move(blk));
    p.addBlock(scalarBlock(-2.0, {-1.0}));
    return p;
}

}  // namespace

TEST(Sdp, MatchesParentOnMisdpRelaxations) {
    const std::vector<Pinned> pinned = {
        {"ttd4x2/0", SdpStatus::Optimal, 21, -0x1.6b8cd4e8a9b17p+2,
         {0x1.a3e6163f10e53p-1, 0x1.28e993d017f47p-1, 0x1.5548517a10b7cp-25,
          0x1.ffffff429beebp-1, 0x1.d3bf8b8802c9p-28, 0x1.a3e5e320852ecp-1,
          0x1.4254f9990753p-25, 0x1.28e98fb4fc34ap-1, 0x1.28e99786ea781p-2,
          0x1.2396dcb90b9c8p-27, 0x1.c080e9442619cp-26, 0x1.28e9a72314a08p-1,
          0x1.180d3bfdcd35ap-25, 0x1.28e8f3f670ec8p-2, 0x1.c08664f34a19p-26}},
        {"ttd4x2/1", SdpStatus::Infeasible, 27, -0x1.9f5e2d3eeffa1p+8,
         {0x1.ffffffffdfc6p-1, 0x1.ffffffff953f4p-1, 0x1.ffffffffd67d2p-1,
          0x0p+0, 0x1.ffffffff938dp-1, 0x1p+0, 0x1.e9727d60a5858p-3,
          0x1.ffffffff1cdccp-1, 0x1.ffffffec5d6bcp-1, 0x0p+0, 0x0p+0, 0x1p+0,
          0x1.0ce98561bfbf3p-2, 0x1.fffffff39c3a7p-1, 0x1.dc1d3a33f922cp-1}},
        {"ttd4x2/2", SdpStatus::Infeasible, 22, -0x1.ab30d44301a8bp+9,
         {0x0p+0, 0x1.beb1fc6a4940ep-2, 0x1.fffffec6bd75bp-1, 0x0p+0,
          0x1.448860b9a6328p-1, 0x1.fffffd2fd6bd8p-1, 0x1.59c86f5233151p-4,
          0x1.c2c7b893ea4c1p-6, 0x0p+0, 0x1.403adc0288ap-1,
          0x1.40c3648ea6f1cp-25, 0x1p+0, 0x1.f9e33c2c342ep-2,
          0x1.49a52cc336793p-3, 0x1.ffffff9a97156p-1}},
        {"ttd4x2/3", SdpStatus::Infeasible, 22, -0x1.e2ef77612ddf4p+9,
         {0x1.1a81602d8fc68p-26, 0x0p+0, 0x1p+0, 0x1.242c544f224f5p-3, 0x0p+0,
          0x0p+0, 0x0p+0, 0x1.0a3104113c0f8p-26, 0x1.37d0589b298b1p-3,
          0x1.53105464ec51ep-3, 0x1.53102ba9e663bp-3, 0x1.ffffffa7af913p-1,
          0x1p+0, 0x1p+0, 0x1.ffffffe395dc7p-1}},
        {"cls8-12-3/0", SdpStatus::Optimal, 22, 0x1.5115d44b6a199p-21,
         {0x1.66bbecbaa1339p-3, 0x1.7c4d9e3018057p-1, -0x1.c9f295f2eedffp-2,
          0x1.4257624bd4357p-3, -0x1.262f18ae6f69cp-3, 0x1.277825c1218a4p-2,
          0x1.7c8a1aa43e16fp-5, 0x1.f1de18da2757cp-3, 0x1.ec8e4e6d8086p-5,
          -0x1.b6035643360b1p-5, -0x1.cf540f04e662bp-5, 0x1.c867a3d90684ep-3,
          0x1.e5dda1b78f5f8p-3, 0x1.2823e74693bcep-2, 0x1.0570f4f9d6dep-2,
          0x1.e4d3d7acdf5e3p-3, 0x1.e38420d6eaf33p-3, 0x1.f15e27e53ba8ap-3,
          0x1.df499f025831cp-3, 0x1.ed95a3c63a361p-3, 0x1.dfa36c936c34p-3,
          0x1.dfbcd9e597ac4p-3, 0x1.df82cff2953b6p-3, 0x1.e9ec0767f5c1p-3,
          0x1.081a38629ed32p-26}},
        {"cls8-12-3/1", SdpStatus::Optimal, 24, 0x1.71837f45eabecp-23,
         {0x1.117145209ed34p-3, 0x1.7afe354dea016p-1, -0x1.ed6980ca78362p-2,
          -0x1.b7d67a223c9ap-82, -0x1.39baadd662632p-2, 0x1.ec0b5c0d27219p-3,
          0x1.a0d0bacd8039ap-5, 0x1.30d56ec824f43p-2, -0x1.43d10c4b21f11p-3,
          0x1.bcb6b970fa74p-80, 0x1.2a4d888af625p-79, 0x1.2a2d67450c717p-2,
          0x1.d775e597da926p-4, 0x1.9a09bc893a524p-3, 0x1.4045ec3018d96p-3,
          0x0p+0, 0x1.0d588d5db1f88p-3, 0x1p+0, 0x1.c887ab9f3beeep-4,
          0x1.0b0adb5f277f8p-3, 0x1.de3d11615a76ap-4, 0x0p+0, 0x0p+0, 0x1p+0,
          0x1.65630279eec3p-28}},
        {"cls8-12-3/2", SdpStatus::Optimal, 21, 0x1.d6e78c14de4ep-23,
         {-0x1.ba954cb39b3p-82, 0x1.7462aabb93de3p-1, -0x1.a4af772b90b98p-2,
          -0x1.32cf75b8fc26p-82, -0x1.4ad12b578c846p-2, 0x1.531e3adfdc0cfp-2,
          0x1.1ac70aedea88ep-3, 0x1.884f8276a673p-2, -0x1.7886388ca4d8p-85,
          -0x1.e70a8a735b293p-5, -0x1.34c1a6dd07c7bp-7, 0x1.19ccb1a90cdd7p-2,
          0x0p+0, 0x1.1ef3fc816a36fp-2, 0x1.f3f74c7479522p-3, 0x0p+0,
          0x1.e5759862f408dp-3, 0x1.e6766e51015p-3, 0x1.d169649f4d203p-3,
          0x1.efc6fcff90a44p-3, 0x0p+0, 0x1.cdc1617ed4347p-3,
          0x1.ccf0a9575b7d6p-3, 0x1p+0, 0x1.bb865102f8fbcp-28}},
        {"cls8-12-3/3", SdpStatus::Optimal, 24, -0x1.e88e3897c1c95p-4,
         {0x1.428582bff80ccp+0, 0x1.5dd455284188cp-56, -0x1.4afc2e8546dbdp+1,
          -0x1.c627713f9f91fp-1, -0x1.48bcd7a84e00cp-57, 0x1.815a4af2e8174p-56,
          -0x1.626e2e8c3862cp-56, -0x1.41b98ba4b3756p+0, 0x1.53eb494bde48cp+1,
          0x1.420d32d695e66p+0, -0x1.7e1de50775c0bp+0, -0x1.30ab7c2d3dcadp+0,
          0x1.02046a6f39b77p-2, 0x0p+0, 0x1p+0, 0x1.6b52c4aaff6ep-3, 0x0p+0,
          0x0p+0, 0x0p+0, 0x1.01613e59693e2p-2, 0x1.0fef6ec11eceep-1,
          0x1.01a42a8151989p-2, 0x1.31b185db9e5a5p-2, 0x1.e778ca5a162aep-3,
          0x1.e88eb080fdf75p-4}},
        {"mkp9-3/0", SdpStatus::Optimal, 29, -0x1.1c27b619cf9b9p+3,
         {0x1.bb25506f5c164p-28, 0x1.9320b38614d08p-27, 0x1.59849df401534p-28,
          0x1.793e46c12ee08p-26, 0x1.ffffefbe78ac2p-1, 0x1.751cef9357a2p-20,
          0x1.ffffdbc3ec35bp-1, 0x1.d82ca6b642448p-22, 0x1.fffffb8e35955p-1,
          0x1.5f0d5154687a8p-23, 0x1.8e71ec0b12e4cp-24, 0x1.5957ed6f4f9bp-28,
          0x1.5f993115b17c8p-28, 0x1.d10b3b3fd2738p-21, 0x1.ffffe315b5cf5p-1,
          0x1.30e8d14f0d98p-22, 0x1.b61a1494853fp-26, 0x1.bdfff7ba812dcp-27,
          0x1.6638d5f21e528p-26, 0x1.91299d8860dc8p-21, 0x1.ffffe56601485p-1,
          0x1.fffff6e15b42fp-1, 0x1.3423b5fe201dcp-22, 0x1.ffffc861123fep-1,
          0x1.61c2fcc966facp-28, 0x1.8b9eebd24a6a4p-21, 0x1.56bf5950d81p-22,
          0x1.ffffd0e548195p-1, 0x1.ec5dfd1c34334p-25, 0x1.85aa125de55ccp-21,
          0x1.fd5aa42bc5e68p-21, 0x1.ffffdfa859b43p-1, 0x1.e0f9f2bf33cfcp-29,
          0x1.e3ed03d8085bcp-22, 0x1.9b6eeeb97ed78p-26, 0x1.4bb99f984e7d4p-26}},
        {"mkp9-3/1", SdpStatus::Optimal, 24, -0x1.af1f70ca11a66p+3,
         {0x1.0aa12ae1dd1bcp-22, 0x1.0aa119f408eb2p-22, 0x1.e63b8fba6ecap-23,
          0x0p+0, 0x1.0aa10d95c6f4cp-22, 0x1p+0, 0x1.fffffffcdbabbp-1,
          0x1.fffffffe3afc3p-1, 0x1.fffffffe42378p-1, 0x0p+0, 0x0p+0, 0x1p+0,
          0x1.0aa1106d733cp-22, 0x1.0aa125c3ef628p-22, 0x1.0aa116ede5d8ep-22,
          0x1.b7b70f0b8d2d8p-33, 0x1.b77ba3198c29p-33, 0x1p+0,
          0x1.0aa10ea9a6374p-22, 0x1.0aa1188699796p-22, 0x1.0aa1122dbec94p-22,
          0x1.ffffd2ccdb7d6p-1, 0x1.3d1ec7b969358p-33, 0x1.e63b6f042caa8p-23,
          0x1.e63b7ac21372cp-23, 0x1.e63b741c9b59p-23, 0x1.3d058cc109fd4p-33,
          0x1.4dc8992a84028p-33, 0x1.11bf113e14a3ep-32, 0x1.de5a88a12f9ep-33,
          0x1.0aa10930508dcp-22, 0x1.0aa10e3d1a01p-22, 0x1.0aa10aac4602p-22,
          0x1.fffffffe3c3c9p-1, 0x1p+0, 0x1p+0}},
        {"mkp9-3/2", SdpStatus::Optimal, 37, -0x1.90b410ef0399ep+3,
         {0x0p+0, 0x1.ca38a9e91f3d6p-6, 0x1.ccc9c23a47098p-28, 0x0p+0,
          0x1.1666469c7db04p-46, 0x1.ffffffbeeebep-1, 0x1.ffffffbeeebep-1,
          0x1.ca38aa64687eap-6, 0x0p+0, 0x1.16e4051a40468p-5,
          0x1.692298a688ebep-1, 0x1p+0, 0x1.52beabdc361f4p-28,
          0x1.52beabdfa20f4p-28, 0x1.15a117773627bp-32, 0x1.ee91bfa89a2d3p-1,
          0x1.2f4b46cad39f8p-3, 0x1.1662c5c2306e4p-46, 0x1.ca38a3b23e29cp-6,
          0x1.ca38a3b23e29bp-6, 0x1.ffffffe7276e2p-1, 0x1.7504482577905p-3,
          0x1.16e4051a40467p-5, 0x1.354182d01f822p-33, 0x1.3541828af91c6p-33,
          0x1.ee91bf9f8707ap-1, 0x1.692298a688ebep-1, 0x1.df6f3fb08302ap-28,
          0x1.df6f3faeff656p-28, 0x1.2f4b47268c4a8p-3, 0x1.52beabd65033p-28,
          0x1.52beabd797c99p-28, 0x1.15a116ae830fcp-32, 0x1p+0,
          0x1.ca38a265d557dp-6, 0x1.ca38a265d557cp-6}},
        {"mkp9-3/3", SdpStatus::Optimal, 91, -0x1.f9655896346p+3,
         {0x1.bae1486d02678p-35, 0x0p+0, 0x1p+0, 0x1.4d700f702461p-34, 0x0p+0,
          0x0p+0, 0x0p+0, 0x1.ffff9e4d4e448p-1, 0x1.2086d31ce3f64p-34,
          0x1.38ff1b263338p-34, 0x1.0553815991a3p-19, 0x1.0553bdf89488ap-19,
          0x1p+0, 0x1p+0, 0x1.849a6ad2a4d68p-21, 0x1.1f642281aabp-34,
          0x1.ffffbdb97ad69p-1, 0x1.ffffbdb9ca818p-1, 0x0p+0,
          0x1.6b5f6a39b121p-34, 0x1.26fd740ede938p-19, 0x1.0f38284b259ecp-33,
          0x1.693a89bab08bp-34, 0x1.b4b4e1be86bep-35, 0x0p+0,
          0x1.ffff9e4d4de66p-1, 0x1p+0, 0x1.055341d35bcfap-19,
          0x1.05537897436bap-19, 0x1.5fb86dad359acp-22, 0x1.0554076d072ecp-19,
          0x1.0553c9816167ap-19, 0x1.5fb86b67cc96p-22, 0x1p+0,
          0x1.849a6e0031b6cp-21, 0x1.849a6b061e31cp-21}},
        {"ttd3x3/0", SdpStatus::Optimal, 22, -0x1.d002f11b9144bp+2,
         {0x1.fa5bacc9ad04cp-2, 0x1.ffffffd723e87p-1, 0x1.660c916bbe80ap-2,
          0x1.2e4aaf0655e8cp-28, 0x1.660c293bba64ap-2, 0x1.144007f1120ap-25,
          0x1.f305f08899febp-1, 0x1.b7533f1ee4688p-27, 0x1.d14c00c4c5aa4p-27,
          0x1.660c897d20e4ap-2, 0x1.b75414e2ed56p-27, 0x1.0d0b4c94e978ap-26,
          0x1.2e4ad467be92p-28, 0x1.ffffffd724b1ep-1, 0x1.660c701fc7c9fp-2,
          0x1.ebaef91bd61e8p-2, 0x1.d14fa61da27e8p-27, 0x1.fa5bb08bc16bdp-2}},
        {"ttd3x3/1", SdpStatus::Optimal, 21, -0x1.18d557ab7b79dp+3,
         {0x1.d5512d6a5d5bep-2, 0x1.ffffd270fe943p-1, 0x1.71d02e219ee1p-25,
          0x0p+0, 0x1.c345026b98decp-24, 0x1p+0, 0x1.7d0c785927494p-2,
          0x1.8ab201dce9c44p-24, 0x1.d55127b4d228ap-2, 0x0p+0, 0x0p+0, 0x1p+0,
          0x1.eb990d61eb474p-24, 0x1.ffffd2739cb3cp-1, 0x1.c3476fbbeb558p-24,
          0x1.7d0df52b737dbp-2, 0x1.d55121dd87692p-2, 0x1p+0}},
        {"ttd3x3/2", SdpStatus::Optimal, 27, -0x1.8a270adf0d57ep+3,
         {0x0p+0, 0x1.ffffffee61a22p-1, 0x1.e2b21f31199bap-2, 0x0p+0,
          0x1.ffff98c48e28cp-1, 0x1.a640cb64f80aap-3, 0x1.ffffffd3ef41p-1,
          0x1.5551448c83476p-1, 0x0p+0, 0x1.e2b21fea65f2ep-2,
          0x1.5c0b579695b54p-26, 0x1p+0, 0x1.800e974406417p-2,
          0x1.ffffffd4587a6p-1, 0x1.ffff98b857334p-1, 0x1.28c9d38a08deap-1,
          0x1.0725e174af5bap-25, 0x1.fffff9f443dcep-1}},
        {"ttd3x3/3", SdpStatus::Infeasible, 27, -0x1.e0c87872e3ab9p+10,
         {0x1.ffffffffe565fp-1, 0x0p+0, 0x1p+0, 0x1.fffff1dfc9625p-1, 0x0p+0,
          0x0p+0, 0x0p+0, 0x1.ffffffff46bep-1, 0x1.fffffff4a2979p-1,
          0x1.ffffffff9377ap-1, 0x1.a423363714d45p-1, 0x1.fffffffd72d96p-1,
          0x1p+0, 0x1p+0, 0x1.fffffffae2eaep-1, 0x1.ffffffce347d8p-1,
          0x1.fffffffd982d8p-1, 0x1.ffffffffc7581p-1}},
    };
    const std::vector<std::pair<std::string, misdp::MisdpProblem>> gens = {
        {"ttd4x2", misdp::genTrussTopology(4, 2, 1.8, 1)},
        {"cls8-12-3", misdp::genCardinalityLS(8, 12, 3, 2)},
        {"mkp9-3", misdp::genMinKPartition(9, 3, 2)},
        {"ttd3x3", misdp::genTrussTopology(3, 3, 1.8, 1)}};
    std::size_t k = 0;
    for (const auto& [name, p] : gens)
        for (unsigned seed = 0; seed <= 3; ++seed, ++k) {
            ASSERT_EQ(pinned[k].name, name + "/" + std::to_string(seed));
            expectPinned(sdp::solveSdp(relaxationAt(p, seed)), pinned[k]);
        }
}

TEST(Sdp, MatchesParentOnEdgeCases) {
    const std::vector<Pinned> pinned = {
        {"scalarBeforeDense", SdpStatus::Optimal, 19, 0x1.2800002eac4c4p+1,
         {0x1.f00003cdef4d3p+0, 0x1.7ffff08a051b5p-1}},
        {"zeroMatrixTerm", SdpStatus::Optimal, 20, 0x1.1d4141902f0c4p+0,
         {0x1.1d414138f913fp+0, 0x1.ca13d68abb8dcp-27}},
        {"variableInNoBlock", SdpStatus::Optimal, 19, 0x1.d2acc995ff1afp+1,
         {0x1.a88a253899b39p+0, 0x1.7ccf6d84c429dp+0, 0x1.ffffffa7806b1p+0}},
        {"allFixed", SdpStatus::Optimal, 20, 0x1.400001c4be7d5p-1,
         {0x1p-1, 0x1p-2}},
        {"penaltyInfeasible", SdpStatus::Infeasible, 19, -0x1.869cffffff3cap+15,
         {0x1.8p+0}},
    };
    const SdpProblem problems[] = {scalarBeforeDense(), zeroMatrixTerm(),
                                   variableInNoBlock(), allFixed(),
                                   penaltyInfeasible()};
    for (std::size_t k = 0; k < pinned.size(); ++k)
        expectPinned(sdp::solveSdp(problems[k]), pinned[k]);
}
