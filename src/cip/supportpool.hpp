// Dominance-filtered pool of covering-row supports: each entry stands for
// the row  sum_{v in S} x_v >= k  over a sorted support S and an RHS class
// k. Within one class, S(P) subseteq S(C) means row P implies row C, and the
// pool keeps each class an antichain under inclusion. An offer is counted
// against the pooled entries it shares variables with, over a var -> ids
// inverted index, so it costs O(|S| + touched index lists), not O(pool).
//
// Order is part of the contract, because callers route cuts by id:
//   - index lists grow in push order and shrink by erase-remove;
//   - freed ids are reused last-freed-first;
//   - the new id is claimed before its supersets are freed;
//   - if several pooled entries reject an offer, the first touched wins.
// See src/cip/README.md, "Dominance filter for covering rows".
#pragma once

#include <cstddef>
#include <vector>

namespace cip {

class SupportPool {
public:
    enum class Verdict {
        Admitted,   ///< pooled under `id`; dominated supersets evicted
        Duplicate,  ///< an identical support of the same class is pooled
        Dominated,  ///< a pooled strict subset of the same class exists
    };

    /// Offers one support. `vars` must be non-empty, sorted, strictly
    /// increasing and non-negative. On Admitted, `id` receives the new
    /// entry's id and `*evicted` (if non-null) the ids of the evicted strict
    /// supersets, already removed. On Duplicate or Dominated, `id` names the
    /// pooled entry that rejects the offer and `*evicted` comes back empty.
    Verdict offer(const std::vector<int>& vars, int rhsClass, int& id,
                  std::vector<int>* evicted = nullptr);

    /// Drops a pooled entry; its id becomes reusable. No-op on a dead id.
    void remove(int id);

    bool contains(int id) const {
        return id >= 0 && id < slots() &&
               entries_[static_cast<std::size_t>(id)].alive;
    }
    /// Sorted support of a pooled entry; only valid while contains(id).
    const std::vector<int>& vars(int id) const {
        return entries_[static_cast<std::size_t>(id)].vars;
    }
    int rhsClass(int id) const {
        return entries_[static_cast<std::size_t>(id)].rhsClass;
    }
    /// Every id ever handed out is below slots().
    int slots() const { return static_cast<int>(entries_.size()); }
    /// Number of pooled entries.
    int size() const { return size_; }

private:
    struct Entry {
        std::vector<int> vars;
        int rhsClass = 1;
        bool alive = false;
    };

    std::vector<Entry> entries_;
    std::vector<std::vector<int>> index_;  ///< var -> pooled ids
    std::vector<int> freeIds_;
    // offer() scratch: per-id overlap counts, reset through touched_ after
    // every call so no O(pool) clearing happens per offer.
    std::vector<int> touchCount_;
    std::vector<int> touched_;
    int size_ = 0;
};

}  // namespace cip
