#include "steiner/cutpool.hpp"

#include <algorithm>

namespace steiner {

void CutPool::unindex(int id) {
    Entry& e = cuts_[static_cast<std::size_t>(id)];
    for (int v : e.vars) {
        auto& lst = index_[static_cast<std::size_t>(v)];
        lst.erase(std::remove(lst.begin(), lst.end(), id), lst.end());
    }
}

void CutPool::remove(int id) {
    if (!contains(id)) return;
    unindex(id);
    Entry& e = cuts_[static_cast<std::size_t>(id)];
    e.alive = false;
    e.vars.clear();
    e.vars.shrink_to_fit();
    freeIds_.push_back(id);
    --alive_;
}

CutPool::Verdict CutPool::offer(const std::vector<int>& support, int* id,
                                std::vector<int>* evicted) {
    if (evicted) evicted->clear();
    ++stats_.offered;

    sorted_.assign(support.begin(), support.end());
    std::sort(sorted_.begin(), sorted_.end());
    sorted_.erase(std::unique(sorted_.begin(), sorted_.end()), sorted_.end());
    if (sorted_.empty()) {
        ++stats_.untracked;
        return Verdict::Untracked;
    }
    const int n = static_cast<int>(sorted_.size());

    // Count, per pooled cut sharing at least one variable with the incoming
    // support C, how many of C's variables it contains. A pooled cut P with
    // count == |P| satisfies P subseteq C; with count == |C| it satisfies
    // C subseteq P. Supports are unique-element sets, so the counts are
    // exact. touchCount_ is kept all-zero between calls via touched_.
    touched_.clear();
    for (int v : sorted_) {
        if (v < 0 || v >= static_cast<int>(index_.size())) continue;
        for (int cid : index_[static_cast<std::size_t>(v)]) {
            if (touchCount_[static_cast<std::size_t>(cid)] == 0)
                touched_.push_back(cid);
            ++touchCount_[static_cast<std::size_t>(cid)];
        }
    }

    Verdict verdict = Verdict::Admitted;
    for (int cid : touched_) {
        const int common = touchCount_[static_cast<std::size_t>(cid)];
        const int psize =
            static_cast<int>(cuts_[static_cast<std::size_t>(cid)].vars.size());
        if (common == psize) {
            // P subseteq C: the pooled cut is at least as strong.
            verdict = (psize == n) ? Verdict::Duplicate : Verdict::Dominated;
            break;
        }
    }

    int newId = -1;
    if (verdict == Verdict::Admitted) {
        // Claim the new cut's slot *before* evicting, so an id freed by this
        // very call is never handed back as the id of the cut that evicted
        // it — callers observe evicted ids as dead after offer() returns.
        if (!freeIds_.empty()) {
            newId = freeIds_.back();
            freeIds_.pop_back();
        } else {
            newId = static_cast<int>(cuts_.size());
            cuts_.emplace_back();
            touchCount_.push_back(0);
        }
        // No pooled cut dominates C; evict every pooled strict superset of C.
        for (int cid : touched_) {
            const int common = touchCount_[static_cast<std::size_t>(cid)];
            const int psize = static_cast<int>(
                cuts_[static_cast<std::size_t>(cid)].vars.size());
            if (common == n && psize > n) {
                remove(cid);
                ++stats_.dominatedEvicted;
                if (evicted) evicted->push_back(cid);
            }
        }
    }

    for (int cid : touched_) touchCount_[static_cast<std::size_t>(cid)] = 0;

    if (verdict == Verdict::Duplicate) {
        ++stats_.dupRejected;
        return verdict;
    }
    if (verdict == Verdict::Dominated) {
        ++stats_.dominatedRejected;
        return verdict;
    }

    Entry& e = cuts_[static_cast<std::size_t>(newId)];
    e.vars = sorted_;
    e.stamp = ++admitClock_;
    e.alive = true;
    admitLog_.emplace_back(newId, e.stamp);
    for (int v : e.vars) {
        if (v >= static_cast<int>(index_.size()))
            index_.resize(static_cast<std::size_t>(v) + 1);
        if (v >= 0) index_[static_cast<std::size_t>(v)].push_back(newId);
    }
    ++alive_;
    ++stats_.admitted;
    if (id) *id = newId;
    return Verdict::Admitted;
}

int CutPool::exportNewAdmitted(ug::CutBundle& bundle, int maxCuts) {
    int appended = 0;
    while (shareCursor_ < admitLog_.size() && appended < maxCuts) {
        const auto [cid, stamp] = admitLog_[shareCursor_++];
        const Entry& e = cuts_[static_cast<std::size_t>(cid)];
        // Skip entries that died (or whose id was recycled by a *later*
        // admission — that one has its own log record) before export.
        if (!e.alive || e.stamp != stamp) continue;
        if (bundle.append(e.vars, /*rhsClass=*/1)) ++appended;
    }
    return appended;
}

}  // namespace steiner
