// Indexed sparse vector for the hyper-sparse simplex pipeline.
//
// A SparseVec is a dense value array paired with an explicit nonzero index
// list and a touched-flag scratch array. The invariant every producer
// maintains is
//
//     val[i] == 0.0  for every i not listed in idx,
//
// i.e. idx is a *superset* of the support (it may contain positions whose
// value cancelled to an exact zero — consumers that care re-check the
// value). flag[i] != 0 iff i is listed in idx, so membership tests during
// reach computation are O(1) and clearing is O(|idx|), never O(m).
//
// idx is kept sorted ascending by every LuFactor solve entry point.
// That is not cosmetic: the simplex ratio tests and devex updates break
// exact ties by iteration order, so producing the support in ascending
// order is what keeps the hyper-sparse and dense solve paths bit-identical
// (see src/lp/README.md, "Hyper-sparse solves").
//
// Dense-result mode: a solve that ran through the dense fallback kernel
// marks the vector dense instead of rescanning all m positions to rebuild
// idx. In that state val alone is authoritative, idx is empty and flag is
// all-zero; consumers iterate 0..m-1 (ascending, so tie-break order is
// unchanged) with the same val != 0 guards the sparse walk needs anyway.
#pragma once

#include <algorithm>
#include <vector>

namespace lp {

struct SparseVec {
    std::vector<double> val;  ///< dense values, size dim
    std::vector<int> idx;     ///< superset of the support (empty when dense)
    std::vector<char> flag;   ///< flag[i] != 0 iff i is in idx
    bool dense = false;       ///< val authoritative, idx/flag unmaintained

    int dim() const { return static_cast<int>(val.size()); }

    /// Resize to dimension m and clear. Shrinking keeps no stale support.
    void reset(int m) {
        val.assign(m, 0.0);
        flag.assign(m, 0);
        idx.clear();
        dense = false;
    }

    /// Zero out the entries and empty the support: O(|idx|) in sparse mode,
    /// O(m) after a dense-mode solve (matching what a dense pipeline pays).
    void clear() {
        if (dense) {
            std::fill(val.begin(), val.end(), 0.0);
            dense = false;
            return;  // idx already empty, flag already all-zero
        }
        for (int i : idx) {
            val[i] = 0.0;
            flag[i] = 0;
        }
        idx.clear();
    }

    /// Enter dense-result mode: drop the (stale) support bookkeeping and
    /// declare val authoritative. Called by the solve wrappers right before
    /// running a dense fallback kernel.
    void markDense() {
        for (int i : idx) flag[i] = 0;
        idx.clear();
        dense = true;
    }

    /// Support size a consumer loop walks: |idx| for a sparse result, all
    /// m positions after a dense-mode solve. O(1) — deliberately *not* a
    /// val scan; this feeds the density EWMA and the solve telemetry on
    /// every solve, and an O(m) count there would tax exactly the dense
    /// fallback path the hyper-sparse machinery exists to keep cheap.
    int nnz() const {
        return dense ? dim() : static_cast<int>(idx.size());
    }

    /// Add i to the support if not yet present (value untouched).
    void touch(int i) {
        if (!flag[i]) {
            flag[i] = 1;
            idx.push_back(i);
        }
    }

    /// Set value and record the index.
    void set(int i, double v) {
        val[i] = v;
        touch(i);
    }

    void sortSupport() { std::sort(idx.begin(), idx.end()); }

    /// Rebuild the support from the dense values (exits dense mode for
    /// consumers that need an explicit index list). Produces the exact
    /// nonzero set, ascending. O(m).
    void rebuildSupport() {
        for (int i : idx) flag[i] = 0;
        idx.clear();
        dense = false;
        const int m = dim();
        for (int i = 0; i < m; ++i) {
            if (val[i] != 0.0) {
                flag[i] = 1;
                idx.push_back(i);
            }
        }
    }
};

}  // namespace lp
