#include "steiner/cutpool.hpp"

#include <algorithm>

namespace steiner {

CutPool::Verdict CutPool::offer(const std::vector<int>& support, int* id,
                                std::vector<int>* evicted) {
    if (evicted) evicted->clear();
    ++stats_.offered;

    sorted_.assign(support.begin(), support.end());
    std::sort(sorted_.begin(), sorted_.end());
    sorted_.erase(std::unique(sorted_.begin(), sorted_.end()), sorted_.end());
    if (sorted_.empty() || sorted_.front() < 0) {
        ++stats_.untracked;
        return Verdict::Untracked;
    }

    const int before = pool_.size();
    int pid = -1;
    switch (pool_.offer(sorted_, /*rhsClass=*/1, pid, evicted)) {
        case cip::SupportPool::Verdict::Duplicate:
            ++stats_.dupRejected;
            return Verdict::Duplicate;
        case cip::SupportPool::Verdict::Dominated:
            ++stats_.dominatedRejected;
            return Verdict::Dominated;
        case cip::SupportPool::Verdict::Admitted:
            break;
    }
    // One entry came in; every other change in size is an evicted superset.
    stats_.dominatedEvicted += before + 1 - pool_.size();
    if (pid >= static_cast<int>(stamp_.size()))
        stamp_.resize(static_cast<std::size_t>(pid) + 1);
    stamp_[static_cast<std::size_t>(pid)] = ++admitClock_;
    admitLog_.emplace_back(pid, admitClock_);
    ++stats_.admitted;
    if (id) *id = pid;
    return Verdict::Admitted;
}

int CutPool::exportNewAdmitted(ug::CutBundle& bundle, int maxCuts) {
    int appended = 0;
    while (shareCursor_ < admitLog_.size() && appended < maxCuts) {
        const auto [cid, stamp] = admitLog_[shareCursor_++];
        // Skip entries that died (or whose id was recycled by a *later*
        // admission — that one has its own log record) before export.
        if (!pool_.contains(cid) ||
            stamp_[static_cast<std::size_t>(cid)] != stamp)
            continue;
        if (bundle.append(pool_.vars(cid), /*rhsClass=*/1)) ++appended;
    }
    return appended;
}

}  // namespace steiner
