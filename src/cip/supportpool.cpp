#include "cip/supportpool.hpp"

#include <algorithm>

namespace cip {

void SupportPool::remove(int id) {
    if (!contains(id)) return;
    Entry& e = entries_[static_cast<std::size_t>(id)];
    for (int v : e.vars) {
        std::vector<int>& lst = index_[static_cast<std::size_t>(v)];
        lst.erase(std::remove(lst.begin(), lst.end(), id), lst.end());
    }
    e.alive = false;
    e.vars.clear();
    e.vars.shrink_to_fit();
    freeIds_.push_back(id);
    --size_;
}

SupportPool::Verdict SupportPool::offer(const std::vector<int>& vars,
                                        int rhsClass, int& id,
                                        std::vector<int>* evicted) {
    if (evicted) evicted->clear();
    const int n = static_cast<int>(vars.size());
    if (vars.back() >= static_cast<int>(index_.size()))
        index_.resize(static_cast<std::size_t>(vars.back()) + 1);

    // A pooled entry P sharing `common` variables with the incoming support
    // C satisfies P subseteq C iff common == |P|, and C subseteq P iff
    // common == |C|. Supports are duplicate-free, so the counts are exact.
    touched_.clear();
    for (int v : vars)
        for (int pid : index_[static_cast<std::size_t>(v)])
            if (touchCount_[static_cast<std::size_t>(pid)]++ == 0)
                touched_.push_back(pid);

    Verdict verdict = Verdict::Admitted;
    for (int pid : touched_) {
        const Entry& e = entries_[static_cast<std::size_t>(pid)];
        const int psize = static_cast<int>(e.vars.size());
        if (e.rhsClass == rhsClass &&
            touchCount_[static_cast<std::size_t>(pid)] == psize) {
            verdict = psize == n ? Verdict::Duplicate : Verdict::Dominated;
            id = pid;
            break;
        }
    }

    if (verdict == Verdict::Admitted) {
        // Claim the slot before evicting, so an id freed by this offer is
        // never handed back as the id of the entry that evicted it.
        if (!freeIds_.empty()) {
            id = freeIds_.back();
            freeIds_.pop_back();
        } else {
            id = slots();
            entries_.emplace_back();
            touchCount_.push_back(0);
        }
        for (int pid : touched_) {
            const Entry& e = entries_[static_cast<std::size_t>(pid)];
            if (e.rhsClass == rhsClass &&
                touchCount_[static_cast<std::size_t>(pid)] == n &&
                static_cast<int>(e.vars.size()) > n) {
                remove(pid);
                if (evicted) evicted->push_back(pid);
            }
        }
    }
    for (int pid : touched_) touchCount_[static_cast<std::size_t>(pid)] = 0;
    if (verdict != Verdict::Admitted) return verdict;

    Entry& e = entries_[static_cast<std::size_t>(id)];
    e.vars = vars;
    e.rhsClass = rhsClass;
    e.alive = true;
    for (int v : vars) index_[static_cast<std::size_t>(v)].push_back(id);
    ++size_;
    return verdict;
}

}  // namespace cip
