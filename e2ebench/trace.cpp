#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;

struct RawSpan {
    std::int64_t id;
    std::int64_t parent;
    std::int64_t t0Ns;
    std::int64_t t1Ns;
    int inst;
    Cat cat;
};

struct Frame {
    std::int64_t id;
    std::int64_t t0Ns;
    std::int64_t childNs;
    Cat cat;
    int inst;
};

struct ThreadBuffer {
    int tid = 0;
    std::vector<Frame> stack;
    std::vector<RawSpan> raw;
    std::vector<InstanceTotals> totals;  ///< index = instance id
};

struct Registry {
    std::mutex mutex;  ///< guards buffers (registration and merging)
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
    static Registry r;
    return r;
}

std::atomic<bool> gEnabled{false};
std::atomic<int> gInstance{0};
/// Span id of the driver's open Solve span: the parent of root-level spans
/// that engine threads open on its behalf.
std::atomic<std::int64_t> gSolveSpan{0};
std::atomic<std::int64_t> gNextId{1};
std::atomic<std::int64_t> gRawBudget{0};
std::atomic<std::int64_t> gRawDropped{0};
const Clock::time_point gEpoch = Clock::now();

thread_local ThreadBuffer* tBuffer = nullptr;

ThreadBuffer& buffer() {
    if (tBuffer) return *tBuffer;
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    tBuffer = r.buffers.back().get();
    tBuffer->tid = static_cast<int>(r.buffers.size());
    return *tBuffer;
}

std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                gEpoch)
        .count();
}

InstanceTotals& totalsFor(ThreadBuffer& b, int inst) {
    if (static_cast<int>(b.totals.size()) <= inst) b.totals.resize(inst + 1);
    return b.totals[inst];
}

}  // namespace

const char* catName(Cat c) {
    switch (c) {
        case Cat::Solve: return "ug.solve";
        case Cat::Create: return "ugcip.create";
        case Cat::Load: return "ugcip.load";
        case Cat::Step: return "ugcip.step";
        case Cat::Extract: return "ugcip.extract";
        case Cat::Share: return "ugcip.share";
        case Cat::StpSepa: return "steiner.sepa";
        case Cat::StpCheck: return "steiner.check";
        case Cat::StpNode: return "steiner.node";
        case Cat::StpHeur: return "steiner.heur";
        case Cat::StpBranch: return "steiner.branch";
        case Cat::StpRedprop: return "steiner.redprop";
        case Cat::StpPresolve: return "steiner.layered_presolve";
        case Cat::MisdpEigencut: return "misdp.eigencut";
        case Cat::MisdpRelax: return "misdp.relax";
        case Cat::MisdpHeur: return "misdp.heur";
        case Cat::Count: break;
    }
    return "?";
}

void InstanceTotals::add(const InstanceTotals& o) {
    for (int c = 0; c < kNumCats; ++c) {
        selfNs[c] += o.selfNs[c];
        totalNs[c] += o.totalNs[c];
        calls[c] += o.calls[c];
    }
    stepUnits += o.stepUnits;
    iterLimitSteps += o.iterLimitSteps;
}

void Tracer::enable(std::size_t maxRawSpans) {
    gRawBudget = static_cast<std::int64_t>(maxRawSpans);
    gEnabled = true;
}

bool Tracer::enabled() { return gEnabled.load(std::memory_order_relaxed); }

void Tracer::setInstance(int inst) { gInstance = inst; }

void Tracer::begin(Cat c) {
    ThreadBuffer& b = buffer();
    const std::int64_t id = gNextId.fetch_add(1, std::memory_order_relaxed);
    if (c == Cat::Solve) gSolveSpan = id;
    b.stack.push_back(Frame{id, nowNs(), 0, c, gInstance.load()});
}

void Tracer::end() {
    ThreadBuffer& b = buffer();
    const std::int64_t t1 = nowNs();
    const Frame f = b.stack.back();
    b.stack.pop_back();
    const std::int64_t dur = t1 - f.t0Ns;
    std::int64_t parent = 0;
    if (!b.stack.empty()) {
        b.stack.back().childNs += dur;
        parent = b.stack.back().id;
    } else if (f.cat != Cat::Solve) {
        parent = gSolveSpan.load();  // engine thread working for the solve
    }
    InstanceTotals& t = totalsFor(b, f.inst);
    const int c = static_cast<int>(f.cat);
    t.selfNs[c] += dur - f.childNs;
    t.totalNs[c] += dur;
    t.calls[c] += 1;
    if (gRawBudget.fetch_sub(1, std::memory_order_relaxed) > 0)
        b.raw.push_back(RawSpan{f.id, parent, f.t0Ns, t1, f.inst, f.cat});
    else
        gRawDropped.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::addStepUnits(std::int64_t units, std::int64_t lpIterations) {
    ThreadBuffer& b = buffer();
    InstanceTotals& t = totalsFor(b, gInstance.load());
    t.stepUnits += units;
    if (lpIterations >= kLpIterLimit) ++t.iterLimitSteps;
}

std::vector<InstanceTotals> Tracer::totals() {
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    std::vector<InstanceTotals> out;
    for (const auto& b : r.buffers) {
        if (out.size() < b->totals.size()) out.resize(b->totals.size());
        for (std::size_t i = 0; i < b->totals.size(); ++i)
            out[i].add(b->totals[i]);
    }
    return out;
}

bool Tracer::writeChromeJson(const std::string& path) {
    Registry& r = registry();
    std::lock_guard lock(r.mutex);
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedSpans\":"
       << gRawDropped.load() << "},\"traceEvents\":[\n";
    bool first = true;
    char buf[320];
    for (const auto& b : r.buffers) {
        for (const RawSpan& s : b->raw) {
            const std::string name = catName(s.cat);
            const std::string layer = name.substr(0, name.find('.'));
            std::snprintf(
                buf, sizeof buf,
                "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%lld,"
                "\"parent\":%lld,\"inst\":%d}}",
                first ? "" : ",\n", name.c_str(), layer.c_str(),
                static_cast<double>(s.t0Ns) / 1e3,
                static_cast<double>(s.t1Ns - s.t0Ns) / 1e3, b->tid,
                static_cast<long long>(s.id),
                static_cast<long long>(s.parent), s.inst);
            os << buf;
            first = false;
        }
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

}  // namespace e2e
