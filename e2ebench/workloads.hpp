// Instance catalogue, seeded relabelings and workload definitions.
//
// Every workload solves a fixed set of generator instances (the paper's PUC
// families hc/cc/bip and the CBLIB-style TTD/CLS/MkP families). The run
// seed never changes an instance's structure: it picks which *relabelings*
// of each instance are solved — a random vertex/edge permutation of a
// Steiner graph, or a variable/block/row permutation of an MISDP. A
// relabeling keeps the optimum, so optima can be pinned, while the solver
// sees a different input (variable order, SAP root, LP tie-breaking).
//
// Relabelings are drawn from a per-workload pool of ids; see pools in
// workloads.cpp and README.md for how a pool is screened.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "misdp/problem.hpp"
#include "steiner/graph.hpp"

namespace e2e {

/// Every mode runs on the calling thread and is deterministic: a given
/// input always takes the same search, so wall time varies only with the
/// machine, never with thread scheduling.
enum class Mode {
    Sequential,  ///< steiner::SteinerSolver, no ug
    Sim64,       ///< ug::SimEngine with 64 ranks, normal ramp-up
    Racing3,     ///< ug::SimEngine with 3 ranks, racing ramp-up
};

enum class Kind { Steiner, Misdp };

struct InstanceSpec {
    std::string name;    ///< e.g. "hc5u-s1"
    std::string family;  ///< hc, cc, bip, TTD, CLS, MkP
    Kind kind;
    double optimum;      ///< pinned (Steiner: min cost; MISDP: max objective)
};

/// An instance of a workload and its relabeling pool: ids 1..poolSize
/// except the screened-out ones (see README.md, "Relabeling pools").
struct WorkloadInstance {
    int instance;               ///< index into catalogue()
    int poolSize;
    std::vector<int> excluded;  ///< ascending

    std::vector<int> pool() const;
};

struct Workload {
    std::string name;
    Mode mode;
    std::vector<WorkloadInstance> instances;
    int quick;  ///< position in `instances` of the smallest instance: the
                ///< untimed warm-up solve and the smoke run use it
    /// Passes per second of --seconds. The pass count is fixed by the
    /// arguments, not by the clock, so a seed always solves the same
    /// relabelings and the deterministic counts repeat exactly; the rate
    /// makes a run last a little less than --seconds on a 4-core x86-64
    /// Xeon VM.
    double passesPerSecond;
};

const std::vector<InstanceSpec>& catalogue();
const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

/// The instance as generated (relabeling id 0 is the identity).
steiner::Graph makeGraph(int instance, int relabel);
misdp::MisdpProblem makeMisdp(int instance, int relabel);

/// The `k`-th relabeling id of a run with `seed` (cycles the pool in a
/// seed-shuffled order, so a run repeats no id before using them all).
int pickRelabel(const WorkloadInstance& wi, std::uint64_t seed, int k);

}  // namespace e2e
