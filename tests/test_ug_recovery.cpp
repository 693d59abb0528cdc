// Crash-consistency and restart tests of the checkpoint subsystem: the
// versioned section-checksummed binary format, atomic A/B slot rotation,
// torn-write fallback to the previous good generation, the widened payload
// (global cut pool, incumbent provenance, cumulative statistics), and full
// kill -> restart -> kill -> restart sequences under active fault plans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ug/checkpoint.hpp"
#include "ug/loadcoordinator.hpp"
#include "ug/paracomm.hpp"
#include "ugcip/ugcip.hpp"

using cip::kInf;
using cip::Model;
using cip::Row;

namespace {

Model hardKnapsack(int n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> w(10, 30);
    Model m;
    std::vector<std::pair<int, double>> coefs;
    double total = 0;
    for (int j = 0; j < n; ++j) {
        const double weight = w(rng);
        m.addVar(-(weight + (j % 3)), 0.0, 1.0, true);
        coefs.emplace_back(j, weight);
        total += weight;
    }
    m.addLinear(Row(std::move(coefs), -kInf, std::floor(total / 2)));
    return m;
}

double sequentialOptimum(const Model& m) {
    cip::Solver s;
    Model copy = m;
    s.setModel(std::move(copy));
    EXPECT_EQ(s.solve(), cip::Status::Optimal);
    return s.incumbent().obj;
}

std::vector<unsigned char> readAll(const std::string& path) {
    std::vector<unsigned char> bytes;
    if (FILE* f = std::fopen(path.c_str(), "rb")) {
        unsigned char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            bytes.insert(bytes.end(), buf, buf + n);
        std::fclose(f);
    }
    return bytes;
}

void writeAll(const std::string& path, const unsigned char* data,
              std::size_t n) {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (n > 0) {
        ASSERT_EQ(std::fwrite(data, 1, n, f), n);
    }
    std::fclose(f);
}

bool fileExists(const std::string& path) {
    if (FILE* f = std::fopen(path.c_str(), "rb")) {
        std::fclose(f);
        return true;
    }
    return false;
}

/// Every UgStats field: the coordinator's own, then the inherited counters.
template <class S, class F>
void forEveryStat(S& s, F&& f) {
    ug::forEachCoordinatorField(s, f);
    cip::forEachCounter(s, [&](auto& v, cip::Kind) { f(v); });
}

std::vector<double> statValues(const ug::UgStats& s) {
    std::vector<double> out;
    forEveryStat(s, [&](const auto& v) {
        out.push_back(static_cast<double>(v));
    });
    return out;
}

/// A checkpoint exercising every section with seed-dependent content.
ug::Checkpoint randomCheckpoint(std::mt19937& rng) {
    std::uniform_int_distribution<int> small(0, 4);
    std::uniform_real_distribution<double> val(-100.0, 100.0);
    ug::Checkpoint cp;
    const int nNodes = small(rng);
    for (int i = 0; i < nNodes; ++i) {
        cip::SubproblemDesc d;
        d.lowerBound = val(rng);
        d.retryLevel = small(rng);
        const int nb = small(rng);
        for (int b = 0; b < nb; ++b)
            d.boundChanges.push_back({small(rng), 0.0, 1.0});
        if (small(rng) == 0)
            d.customBranches.push_back({"stp", {small(rng), -1, 7}});
        cp.nodes.push_back(std::move(d));
    }
    if (small(rng) != 0) {
        cp.incumbent.obj = val(rng);
        const int nx = 1 + small(rng);
        for (int i = 0; i < nx; ++i) cp.incumbent.x.push_back(val(rng));
        cp.incumbentSource = small(rng);
        cp.incumbentSetting = small(rng) - 1;
    }
    cp.dualBound = val(rng);
    const int nc = small(rng);
    for (int c = 0; c < nc; ++c) {
        std::vector<int> vars;
        int v = small(rng);
        const int k = 1 + small(rng);
        for (int i = 0; i < k; ++i) {
            vars.push_back(v);
            v += 1 + small(rng);
        }
        EXPECT_TRUE(cp.cuts.append(vars, 1 + small(rng) % 2));
    }
    cp.hasStats = true;
    // A distinct value per field, so a field written or read out of order
    // cannot round-trip unnoticed (floating-point fields keep a fraction).
    const double base = 1000.0 * small(rng) + 0.25;
    int field = 0;
    forEveryStat(cp.stats, [&](auto& v) {
        v = static_cast<std::remove_reference_t<decltype(v)>>(base + ++field);
    });
    cp.racingDone = small(rng) % 2 == 0;
    return cp;
}

void expectEqual(const ug::Checkpoint& a, const ug::Checkpoint& b) {
    EXPECT_DOUBLE_EQ(a.dualBound, b.dualBound);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.nodes[i].lowerBound, b.nodes[i].lowerBound);
        EXPECT_EQ(a.nodes[i].retryLevel, b.nodes[i].retryLevel);
        ASSERT_EQ(a.nodes[i].boundChanges.size(),
                  b.nodes[i].boundChanges.size());
        for (std::size_t j = 0; j < a.nodes[i].boundChanges.size(); ++j) {
            EXPECT_EQ(a.nodes[i].boundChanges[j].var,
                      b.nodes[i].boundChanges[j].var);
            EXPECT_DOUBLE_EQ(a.nodes[i].boundChanges[j].lb,
                             b.nodes[i].boundChanges[j].lb);
            EXPECT_DOUBLE_EQ(a.nodes[i].boundChanges[j].ub,
                             b.nodes[i].boundChanges[j].ub);
        }
        ASSERT_EQ(a.nodes[i].customBranches.size(),
                  b.nodes[i].customBranches.size());
        for (std::size_t j = 0; j < a.nodes[i].customBranches.size(); ++j) {
            EXPECT_EQ(a.nodes[i].customBranches[j].plugin,
                      b.nodes[i].customBranches[j].plugin);
            EXPECT_EQ(a.nodes[i].customBranches[j].data,
                      b.nodes[i].customBranches[j].data);
        }
    }
    EXPECT_EQ(a.incumbent.valid(), b.incumbent.valid());
    if (a.incumbent.valid()) {
        EXPECT_DOUBLE_EQ(a.incumbent.obj, b.incumbent.obj);
        EXPECT_EQ(a.incumbent.x, b.incumbent.x);
        EXPECT_EQ(a.incumbentSource, b.incumbentSource);
        EXPECT_EQ(a.incumbentSetting, b.incumbentSetting);
    }
    EXPECT_EQ(a.cuts.count(), b.cuts.count());
    EXPECT_EQ(a.cuts.wire(), b.cuts.wire());
    ASSERT_EQ(a.hasStats, b.hasStats);
    if (a.hasStats) {
        EXPECT_EQ(statValues(a.stats), statValues(b.stats));
    }
    EXPECT_EQ(a.racingDone, b.racingDone);
}

}  // namespace

TEST(CheckpointDurability, RandomizedRoundTripPreservesEverySection) {
    const std::string path = "/tmp/ugtest_cp_roundtrip";
    for (unsigned seed = 1; seed <= 8; ++seed) {
        ug::removeCheckpointFiles(path);
        std::mt19937 rng(seed * 7919);
        const ug::Checkpoint cp = randomCheckpoint(rng);
        ASSERT_TRUE(ug::saveCheckpoint(path, cp)) << "seed " << seed;
        auto loaded = ug::loadCheckpoint(path);
        ASSERT_TRUE(loaded.has_value()) << "seed " << seed;
        expectEqual(cp, *loaded);
    }
    ug::removeCheckpointFiles(path);
}

TEST(CheckpointDurability, StatsFieldListsCoverEveryField) {
    // The STATS section holds exactly what the two field lists visit; a
    // field missing from both would silently not survive a restart. Ordered
    // by address, the visited fields must tile UgStats with nothing but
    // alignment padding between them (each is a naturally aligned scalar).
    const ug::UgStats s;
    const auto* base = reinterpret_cast<const char*>(&s);
    std::vector<std::pair<std::size_t, std::size_t>> fields;  // offset, size
    forEveryStat(s, [&](const auto& v) {
        fields.emplace_back(
            static_cast<std::size_t>(reinterpret_cast<const char*>(&v) - base),
            sizeof v);
    });
    std::sort(fields.begin(), fields.end());
    const auto alignUp = [](std::size_t n, std::size_t a) {
        return (n + a - 1) / a * a;
    };
    std::size_t end = 0;
    for (const auto& [offset, size] : fields) {
        EXPECT_EQ(offset, alignUp(end, size))
            << "unlisted or twice-listed field near offset " << offset;
        end = offset + size;
    }
    EXPECT_EQ(alignUp(end, alignof(ug::UgStats)), sizeof(ug::UgStats));
}

TEST(CheckpointDurability, OlderFormatVersionIsRejected) {
    // Images of format version 2 (before UgStats carried the whole worker
    // counter record) are refused, not misread.
    const std::string path = "/tmp/ugtest_cp_version";
    ug::removeCheckpointFiles(path);
    std::mt19937 rng(17);
    ASSERT_TRUE(ug::saveCheckpoint(path, randomCheckpoint(rng)));
    for (const std::string& slot :
         {ug::checkpointSlotA(path), ug::checkpointSlotB(path)}) {
        FILE* f = std::fopen(slot.c_str(), "r+b");
        if (!f) continue;
        const std::uint32_t v2 = 2;  // the version field follows the magic
        ASSERT_EQ(std::fseek(f, 4, SEEK_SET), 0);
        ASSERT_EQ(std::fwrite(&v2, sizeof v2, 1, f), 1u);
        std::fclose(f);
    }
    ug::CheckpointLoadReport rep;
    EXPECT_FALSE(ug::loadCheckpoint(path, &rep).has_value());
    EXPECT_NE(rep.error.find("unsupported version"), std::string::npos)
        << rep.error;
    ug::removeCheckpointFiles(path);
}

TEST(CheckpointDurability, SlotRotationLoadsNewestAndSurvivesSlotLoss) {
    const std::string path = "/tmp/ugtest_cp_rotation";
    ug::removeCheckpointFiles(path);
    for (int g = 1; g <= 5; ++g) {
        ug::Checkpoint cp;
        cp.dualBound = -g;
        ASSERT_TRUE(ug::saveCheckpoint(path, cp));
        ug::CheckpointLoadReport rep;
        auto loaded = ug::loadCheckpoint(path, &rep);
        ASSERT_TRUE(loaded.has_value()) << g;
        EXPECT_DOUBLE_EQ(loaded->dualBound, -g);
        EXPECT_EQ(rep.generation, static_cast<std::uint64_t>(g));
    }
    // Saves alternate a,b,a,b,a: generation 5 sits in slot A, 4 in slot B.
    EXPECT_TRUE(fileExists(ug::checkpointSlotA(path)));
    EXPECT_TRUE(fileExists(ug::checkpointSlotB(path)));
    std::remove(ug::checkpointSlotA(path).c_str());
    ug::CheckpointLoadReport rep;
    auto loaded = ug::loadCheckpoint(path, &rep);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(loaded->dualBound, -4.0);
    EXPECT_EQ(rep.generation, 4u);
    ug::removeCheckpointFiles(path);
}

TEST(CheckpointDurability, TruncationAtEveryByteOffsetLoadsPreviousGen) {
    const std::string path = "/tmp/ugtest_cp_trunc";
    ug::removeCheckpointFiles(path);
    std::mt19937 rng(4242);
    ug::Checkpoint gen1 = randomCheckpoint(rng);
    gen1.dualBound = -111.0;
    ASSERT_TRUE(ug::saveCheckpoint(path, gen1));  // slot A, generation 1
    ug::Checkpoint gen2 = gen1;
    gen2.dualBound = -222.0;
    ASSERT_TRUE(ug::saveCheckpoint(path, gen2));  // slot B, generation 2

    const std::string slotB = ug::checkpointSlotB(path);
    const std::vector<unsigned char> image = readAll(slotB);
    ASSERT_FALSE(image.empty());
    {
        auto intact = ug::loadCheckpoint(path);
        ASSERT_TRUE(intact.has_value());
        EXPECT_DOUBLE_EQ(intact->dualBound, -222.0);
    }
    // Every strict prefix of the newest image must fail validation, and the
    // loader must fall back to the previous good generation — no offset may
    // ever leave the run without a loadable checkpoint.
    for (std::size_t cut = 0; cut < image.size(); ++cut) {
        writeAll(slotB, image.data(), cut);
        ug::CheckpointLoadReport rep;
        auto cp = ug::loadCheckpoint(path, &rep);
        ASSERT_TRUE(cp.has_value()) << "offset " << cut;
        EXPECT_DOUBLE_EQ(cp->dualBound, -111.0) << "offset " << cut;
        EXPECT_EQ(rep.generation, 1u) << "offset " << cut;
        EXPECT_EQ(rep.slotsPresent, 2) << "offset " << cut;
        EXPECT_EQ(rep.slotsCorrupt, 1) << "offset " << cut;
    }
    ug::removeCheckpointFiles(path);
}

TEST(CheckpointDurability, SingleByteCorruptionLoadsPreviousGen) {
    const std::string path = "/tmp/ugtest_cp_bitrot";
    ug::removeCheckpointFiles(path);
    std::mt19937 rng(99);
    ug::Checkpoint gen1 = randomCheckpoint(rng);
    gen1.dualBound = -1.0;
    ASSERT_TRUE(ug::saveCheckpoint(path, gen1));
    ug::Checkpoint gen2 = gen1;
    gen2.dualBound = -2.0;
    ASSERT_TRUE(ug::saveCheckpoint(path, gen2));

    const std::string slotB = ug::checkpointSlotB(path);
    const std::vector<unsigned char> image = readAll(slotB);
    ASSERT_FALSE(image.empty());
    // Flip every byte in turn: the header CRC and the per-section payload
    // CRCs must catch each one, falling back to the previous generation.
    for (std::size_t i = 0; i < image.size(); ++i) {
        std::vector<unsigned char> bad = image;
        bad[i] ^= 0xFFu;
        writeAll(slotB, bad.data(), bad.size());
        auto cp = ug::loadCheckpoint(path);
        ASSERT_TRUE(cp.has_value()) << "byte " << i;
        EXPECT_DOUBLE_EQ(cp->dualBound, -1.0) << "byte " << i;
    }
    ug::removeCheckpointFiles(path);
}

TEST(CheckpointDurability, MissingDistinguishedFromCorrupt) {
    ug::CheckpointLoadReport rep;
    EXPECT_FALSE(
        ug::loadCheckpoint("/tmp/ugtest_cp_nonexistent", &rep).has_value());
    EXPECT_EQ(rep.slotsPresent, 0);

    const std::string path = "/tmp/ugtest_cp_garbage";
    ug::removeCheckpointFiles(path);
    const char junk[] = "this is not a checkpoint";
    writeAll(ug::checkpointSlotA(path),
             reinterpret_cast<const unsigned char*>(junk), sizeof junk);
    ug::CheckpointLoadReport rep2;
    EXPECT_FALSE(ug::loadCheckpoint(path, &rep2).has_value());
    EXPECT_EQ(rep2.slotsPresent, 1);
    EXPECT_EQ(rep2.slotsCorrupt, 1);
    EXPECT_FALSE(rep2.error.empty());
    ug::removeCheckpointFiles(path);
}

TEST(CheckpointDurability, TornWriterInjectsShortWritesThatNeverLoad) {
    const std::string path = "/tmp/ugtest_cp_torn";
    ug::removeCheckpointFiles(path);
    ug::Checkpoint cp;
    cp.dualBound = -7.0;
    ug::TornWriter torn(1.0, 123);  // always truncate
    ASSERT_TRUE(ug::saveCheckpoint(path, cp, &torn));
    EXPECT_EQ(torn.injected(), 1);
    ug::CheckpointLoadReport rep;
    EXPECT_FALSE(ug::loadCheckpoint(path, &rep).has_value());
    EXPECT_EQ(rep.slotsPresent, 1);
    EXPECT_EQ(rep.slotsCorrupt, 1);
    // The next clean save reclaims the invalid slot and loads fine.
    ASSERT_TRUE(ug::saveCheckpoint(path, cp));
    auto loaded = ug::loadCheckpoint(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_DOUBLE_EQ(loaded->dualBound, -7.0);
    ug::removeCheckpointFiles(path);
}

// --- coordinator-level restart semantics ------------------------------------

namespace {

/// ParaComm with a settable clock, recording every send — drives the
/// LoadCoordinator deterministically without an engine.
class ClockComm : public ug::ParaComm {
public:
    explicit ClockComm(int size) : size_(size) {}
    int size() const override { return size_; }
    void send(int src, int dest, ug::Message msg) override {
        msg.src = src;
        sent.emplace_back(dest, std::move(msg));
    }
    double now(int) const override { return t; }

    const ug::Message* last(ug::Tag tag, int dest) const {
        const ug::Message* found = nullptr;
        for (const auto& [d, m] : sent)
            if (d == dest && m.tag == tag) found = &m;
        return found;
    }

    double t = 0.0;
    std::vector<std::pair<int, ug::Message>> sent;

private:
    int size_;
};

}  // namespace

TEST(Recovery, RestartResumesCutPoolIncumbentProvenanceAndStats) {
    const std::string path = "/tmp/ugtest_cp_resume";
    ug::removeCheckpointFiles(path);
    ug::UgConfig cfg;
    cfg.numSolvers = 2;
    cfg.checkpointFile = path;
    ClockComm comm(3);
    ug::LoadCoordinator lc(comm, cfg);
    lc.start({});  // root -> rank 1

    ug::Message sol;
    sol.tag = ug::Tag::SolutionFound;
    sol.src = 1;
    sol.sol.x = {1.0};
    sol.sol.obj = -50.0;
    lc.handleMessage(sol);

    ug::Message st;
    st.tag = ug::Tag::Status;
    st.src = 1;
    st.dualBound = -80.0;
    st.openNodes = 3;
    st.nodesProcessed = 2;
    ASSERT_TRUE(st.cuts.append({1, 4, 9}));
    ASSERT_TRUE(st.cuts.append({2, 3}));
    lc.handleMessage(st);
    EXPECT_EQ(lc.stats().shareCutsPooled, 2);

    lc.forceStop();  // checkpoints before draining the active worker
    EXPECT_EQ(lc.stats().checkpointSaves, 1);

    // The on-disk image carries the widened payload.
    auto cp = ug::loadCheckpoint(path);
    ASSERT_TRUE(cp.has_value());
    EXPECT_EQ(cp->incumbentSource, 1);
    EXPECT_EQ(cp->cuts.count(), 2);
    ASSERT_TRUE(cp->hasStats);
    EXPECT_EQ(cp->stats.shareCutsPooled, 2);
    EXPECT_TRUE(cp->racingDone);

    // A fresh coordinator restarting from it resumes pool, incumbent, and
    // cumulative statistics instead of starting from zero.
    ug::UgConfig cfg2 = cfg;
    cfg2.restartFromCheckpoint = true;
    ClockComm comm2(3);
    ug::LoadCoordinator lc2(comm2, cfg2);
    lc2.start({});
    EXPECT_EQ(lc2.stats().checkpointRestarts, 1);
    EXPECT_EQ(lc2.stats().checkpointSaves, 1);  // cumulative, restored
    EXPECT_EQ(lc2.stats().shareCutsPooled, 2);  // continues, not reset
    EXPECT_EQ(lc2.stats().initialOpenNodes, 1);
    ASSERT_TRUE(lc2.bestSolution().valid());
    EXPECT_DOUBLE_EQ(lc2.bestSolution().obj, -50.0);
    // The first assignment re-primes its receiver from the restored pool.
    const ug::Message* sub = comm2.last(ug::Tag::Subproblem, 1);
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->cuts.count(), 2);
    ug::removeCheckpointFiles(path);
}

// --- end-to-end restart sequences under fault plans --------------------------

namespace {

ug::UgResult runPhase(const Model& m, const ug::FaultPlan& plan,
                      double interval, const std::string& path, bool restart,
                      double timeLimit) {
    ug::UgConfig cfg;
    cfg.numSolvers = 4;
    cfg.checkpointFile = path;
    cfg.checkpointInterval = interval;
    cfg.heartbeatTimeout = 0.05;
    cfg.faults = plan;
    cfg.restartFromCheckpoint = restart;
    cfg.timeLimit = timeLimit;
    return ugcip::solveSimulated([&] { return m; }, cfg);
}

}  // namespace

TEST(Recovery, CorruptBothSlotsFallsBackToFreshRootSolve) {
    Model m = hardKnapsack(22, 17);
    const double opt = sequentialOptimum(m);
    const std::string path = "/tmp/ugtest_cp_corruptboth";
    ug::removeCheckpointFiles(path);

    ug::UgResult first =
        runPhase(m, ug::FaultPlan{}, /*interval=*/0.0, path, false, 0.02);
    if (first.status == ug::UgStatus::Optimal) {
        ug::removeCheckpointFiles(path);
        GTEST_SKIP() << "instance finished before the limit";
    }
    ASSERT_EQ(first.status, ug::UgStatus::TimeLimit);

    // Truncate every slot present: no generation survives.
    for (const std::string& slot :
         {ug::checkpointSlotA(path), ug::checkpointSlotB(path)}) {
        const std::vector<unsigned char> image = readAll(slot);
        if (!image.empty()) writeAll(slot, image.data(), image.size() / 2);
    }

    ug::UgResult second =
        runPhase(m, ug::FaultPlan{}, 0.0, path, /*restart=*/true, 1e18);
    ASSERT_EQ(second.status, ug::UgStatus::Optimal);
    EXPECT_NEAR(second.best.obj, opt, 1e-6);
    EXPECT_GE(second.stats.checkpointLoadFailures, 1);
    EXPECT_EQ(second.stats.checkpointRestarts, 0);
    EXPECT_EQ(second.stats.initialOpenNodes, 0);
    ug::removeCheckpointFiles(path);
}

TEST(Recovery, KillRestartKillRestartMatrixReachesOptimum) {
    Model m = hardKnapsack(22, 17);
    const double opt = sequentialOptimum(m);

    struct Case {
        const char* name;
        ug::FaultPlan plan;
        double interval;
    };
    std::vector<Case> cases;
    {
        ug::FaultPlan p;
        p.dropProb = 0.06;
        p.killRank = 2;
        p.killAfterSends = 6;
        p.tornWriteProb = 0.3;
        cases.push_back({"drop_kill_torn", p, 0.004});
    }
    {
        ug::FaultPlan p;
        p.corruptProb = 0.5;
        p.killRank = 3;
        p.killAfterSends = 8;
        p.tornWriteProb = 0.5;
        cases.push_back({"corrupt_kill_torn", p, 0.008});
    }
    // `make faults-stress` widens the matrix beyond the default smoke size.
    if (std::getenv("UG_FAULTS_STRESS")) {
        {
            ug::FaultPlan p;
            p.dropProb = 0.10;
            p.delayProb = 0.3;
            p.delaySeconds = 0.004;
            p.killRank = 1;
            p.killAfterSends = 4;
            p.tornWriteProb = 0.6;
            cases.push_back({"drop_delay_kill_heavytorn", p, 0.004});
        }
        {
            ug::FaultPlan p;
            p.duplicateProb = 0.3;
            p.reorderProb = 0.3;
            p.reorderWindow = 0.004;
            p.killRank = 2;
            p.killAfterSends = 10;
            p.tornWriteProb = 0.3;
            cases.push_back({"dup_reorder_kill_torn", p, 0.012});
        }
        {
            ug::FaultPlan p;
            p.dropProb = 0.08;
            p.corruptProb = 0.4;
            p.killRank = 2;
            p.killAfterSends = 6;
            p.tornWriteProb = 0.4;
            cases.push_back({"drop_corrupt_kill_torn", p, 0.004});
        }
    }

    for (const Case& c : cases) {
        const std::string path =
            std::string("/tmp/ugtest_cp_matrix_") + c.name;
        ug::removeCheckpointFiles(path);
        // Two interrupted phases (kill fires fresh in each), then run to
        // completion: kill -> restart -> kill -> restart. A whole-fleet
        // death (status Failed: heavy drops eventually get every rank
        // declared dead) is just one more crash to restart from — its
        // periodic checkpoints still carry the full frontier.
        ug::UgResult res = runPhase(m, c.plan, c.interval, path, false, 0.015);
        int phases = 1;
        while (res.status != ug::UgStatus::Optimal && phases < 8) {
            const double tl = phases < 3 ? 0.015 : 1e18;
            res = runPhase(m, c.plan, c.interval, path, true, tl);
            ++phases;
        }
        // Zero lost coverage: whatever was killed, dropped, corrupted, or
        // torn, the final run proves the seed optimum.
        ASSERT_EQ(res.status, ug::UgStatus::Optimal) << c.name;
        EXPECT_NEAR(res.best.obj, opt, 1e-6) << c.name;
        if (phases > 1) {
            // Every restart either resumed a good generation (cumulative
            // accounting continues) or detected corruption and fell back to
            // a fresh root solve — both are recorded.
            EXPECT_GE(res.stats.checkpointRestarts +
                          res.stats.checkpointLoadFailures,
                      1)
                << c.name;
            EXPECT_GE(res.stats.checkpointSaves, 1) << c.name;
        }
        ug::removeCheckpointFiles(path);
    }
}

TEST(Recovery, RestartSequenceIsDeterministic) {
    Model m = hardKnapsack(22, 17);
    ug::FaultPlan p;
    p.dropProb = 0.06;
    p.killRank = 2;
    p.killAfterSends = 6;
    p.tornWriteProb = 0.3;
    p.seed = 99;

    long long nodes[2];
    double obj[2], elapsed[2];
    for (int i = 0; i < 2; ++i) {
        const std::string path = "/tmp/ugtest_cp_det";
        ug::removeCheckpointFiles(path);
        ug::UgResult res = runPhase(m, p, 0.004, path, false, 0.015);
        for (int ph = 1; res.status != ug::UgStatus::Optimal && ph < 6; ++ph)
            res = runPhase(m, p, 0.004, path, true, 1e18);
        ASSERT_EQ(res.status, ug::UgStatus::Optimal);
        nodes[i] = res.stats.totalNodesProcessed;
        obj[i] = res.best.obj;
        elapsed[i] = res.elapsed;
        ug::removeCheckpointFiles(path);
    }
    EXPECT_EQ(nodes[0], nodes[1]);
    EXPECT_DOUBLE_EQ(obj[0], obj[1]);
    EXPECT_DOUBLE_EQ(elapsed[0], elapsed[1]);
}
