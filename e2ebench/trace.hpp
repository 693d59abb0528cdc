// Span tracer for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files only: around the public
// BaseSolver / plugin calls the timing decorators in instrument.hpp forward.
// Each thread appends to its own buffer (no locking on the hot path); the
// buffers are merged after the engines have joined their threads. Per span
// the tracer keeps the self time (duration minus the time covered by child
// spans on the same thread), aggregated per (instance, category), so the
// per-layer numbers are exact even when the raw span log is capped.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// What a span measures. The layer a category belongs to is the repository
/// module that owns the code running inside it.
enum class Cat : int {
    Solve,              ///< one solve call on the driver thread (ug / driver)
    Create,             ///< ugcip: base-solver construction + plugin install
    Load,               ///< ugcip: subproblem load (runs layered presolve)
    Step,               ///< ugcip: one B&B node; self time = cip core + LP
    Extract,            ///< ugcip: open-node extraction for transfer
    Share,              ///< ugcip: cut-sharing hooks
    StpSepa,            ///< steiner: conshdlr separate + enforce
    StpCheck,           ///< steiner: conshdlr check
    StpNode,            ///< steiner: conshdlr nodeActivated / branch data
    StpHeur,            ///< steiner: TM heuristic
    StpBranch,          ///< steiner: vertex branching
    StpRedprop,         ///< steiner: reduction propagator (both callbacks)
    StpPresolve,        ///< steiner: layered presolve (subproblem reducer)
    MisdpEigencut,      ///< misdp: eigenvector-cut conshdlr (all callbacks)
    MisdpRelax,         ///< misdp: SDP relaxator
    MisdpHeur,          ///< misdp: randomized rounding
    Count
};

const char* catName(Cat c);

constexpr int kNumCats = static_cast<int>(Cat::Count);

/// Per-instance aggregates of one thread (or, after merging, of the run).
struct InstanceTotals {
    std::array<std::int64_t, kNumCats> selfNs{};
    std::array<std::int64_t, kNumCats> totalNs{};
    std::array<std::int64_t, kNumCats> calls{};
    std::int64_t stepUnits = 0;        ///< work units returned by step()
    std::int64_t iterLimitSteps = 0;   ///< steps that ran >= the LP limit

    void add(const InstanceTotals& o);
};

class Tracer {
public:
    /// Turn recording on; spans opened while off cost one branch.
    static void enable(std::size_t maxRawSpans);
    static bool enabled();

    /// The instance subsequent root-level spans are attributed to.
    static void setInstance(int inst);

    /// Open/close a span on the calling thread.
    static void begin(Cat c);
    static void end();

    /// Step bookkeeping for the innermost open Step span.
    static void addStepUnits(std::int64_t units, std::int64_t lpIterations);

    /// Merge every thread's aggregates (call only while no traced thread is
    /// running). Index = instance id.
    static std::vector<InstanceTotals> totals();

    /// Write all recorded spans as Chrome trace-event JSON (Perfetto and
    /// chrome://tracing open it; the event category is the layer). Returns
    /// false on I/O failure.
    static bool writeChromeJson(const std::string& path);
};

/// RAII span; a no-op while tracing is disabled.
class Span {
public:
    explicit Span(Cat c) : on_(Tracer::enabled()) {
        if (on_) Tracer::begin(c);
    }
    ~Span() {
        if (on_) Tracer::end();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    bool on_;
};

/// LP iterations a single step must reach to count as an LP iteration-limit
/// event (the simplex's default limit; a solve hitting it is cycling).
inline constexpr std::int64_t kLpIterLimit = 200000;

}  // namespace e2e
