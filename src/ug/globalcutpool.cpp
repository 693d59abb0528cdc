#include "ug/globalcutpool.hpp"

#include <algorithm>

namespace ug {

GlobalCutPool::GlobalCutPool(int numRanks, int capacity)
    : knownWords_(std::max(1, (numRanks + 63) / 64)),
      capacity_(std::max(1, capacity)) {}

GlobalCutPool::MergeStats GlobalCutPool::merge(const CutBundle& bundle,
                                               int origin) {
    MergeStats ms;
    if (bundle.empty()) return ms;
    std::vector<CutSupport> cuts;
    if (!bundle.decode(cuts)) {  // corrupt: drop whole bundle
        ms.decodeFailed = true;
        return ms;
    }
    ms.reported = static_cast<int>(cuts.size());
    for (const CutSupport& cs : cuts)
        if (offer(cs, origin)) ++ms.pooled;
    return ms;
}

bool GlobalCutPool::offer(const CutSupport& cs, int origin) {
    int id = -1;
    const cip::SupportPool::Verdict v =
        pool_.offer(cs.vars, cs.rhsClass, id);
    if (v == cip::SupportPool::Verdict::Duplicate) {
        Share& s = shares_[static_cast<std::size_t>(id)];
        markKnown(s, origin);
        markReported(s, origin);  // independent re-find: popularity++
        s.touch = ++clock_;       // re-reported: still in circulation
    }
    if (v != cip::SupportPool::Verdict::Admitted) return false;

    if (id >= static_cast<int>(shares_.size()))
        shares_.resize(static_cast<std::size_t>(id) + 1);
    Share& s = shares_[static_cast<std::size_t>(id)];
    s.touch = ++clock_;
    s.known.assign(static_cast<std::size_t>(knownWords_), 0);
    s.reporters.assign(static_cast<std::size_t>(knownWords_), 0);
    s.admits = 0;
    markKnown(s, origin);
    markReported(s, origin);

    if (pool_.size() > capacity_) evictOldestOver(id);
    return true;
}

CutBundle GlobalCutPool::bundleFor(int receiver,
                                   const cip::SubproblemDesc& desc,
                                   int maxCuts) {
    CutBundle out;
    if (maxCuts <= 0 || pool_.size() == 0) return out;

    // Vars fixed to 1 on the node's root path make "sum >= 1" rows over them
    // trivially satisfied — not worth the receiver's certification work.
    int maxFixed = -1;
    for (const cip::BoundChange& bc : desc.boundChanges)
        if (bc.lb > 0.5 && bc.var > maxFixed) maxFixed = bc.var;
    fixedOne_.assign(static_cast<std::size_t>(maxFixed) + 1, 0);
    for (const cip::BoundChange& bc : desc.boundChanges)
        if (bc.lb > 0.5 && bc.var >= 0)
            fixedOne_[static_cast<std::size_t>(bc.var)] = 1;

    order_.clear();
    for (int id = 0; id < pool_.slots(); ++id)
        if (pool_.contains(id) &&
            !knows(shares_[static_cast<std::size_t>(id)], receiver))
            order_.push_back(id);
    // Popular supports first — a cut independently admitted by >= 2 local
    // dominance pools has proved itself across subtrees — then
    // newest-touched within each class. The touch clock is strictly
    // monotone, so the order (and with it the whole run) is deterministic.
    std::sort(order_.begin(), order_.end(), [this](int a, int b) {
        const Share& ea = shares_[static_cast<std::size_t>(a)];
        const Share& eb = shares_[static_cast<std::size_t>(b)];
        const bool pa = ea.admits >= 2, pb = eb.admits >= 2;
        if (pa != pb) return pa;
        return ea.touch > eb.touch;
    });

    for (int id : order_) {
        if (out.count() >= maxCuts) break;
        const std::vector<int>& vars = pool_.vars(id);
        bool trivial = false;
        for (int v : vars)
            if (v <= maxFixed && fixedOne_[static_cast<std::size_t>(v)]) {
                trivial = true;
                break;
            }
        if (trivial) continue;
        if (!out.append(vars, pool_.rhsClass(id))) continue;
        Share& s = shares_[static_cast<std::size_t>(id)];
        markKnown(s, receiver);
        s.touch = ++clock_;
    }
    return out;
}

std::vector<CutSupport> GlobalCutPool::snapshot() const {
    std::vector<CutSupport> out;
    for (int id = 0; id < pool_.slots(); ++id)
        if (pool_.contains(id))
            out.push_back({pool_.vars(id), pool_.rhsClass(id)});
    return out;
}

void GlobalCutPool::evictOldestOver(int keepId) {
    const auto touch = [this](int id) {
        return shares_[static_cast<std::size_t>(id)].touch;
    };
    while (pool_.size() > capacity_) {
        int oldest = -1;
        for (int id = 0; id < pool_.slots(); ++id) {
            if (!pool_.contains(id) || id == keepId) continue;
            if (oldest < 0 || touch(id) < touch(oldest)) oldest = id;
        }
        if (oldest < 0) return;  // only the just-admitted entry is left
        pool_.remove(oldest);
        ++capacityEvicted_;
    }
}

}  // namespace ug
