#pragma once

// Compact wire format for cross-solver cut sharing.
//
// A shared cut is a support (sorted set of model variable ids) plus an RHS
// class: the row it stands for is  sum_{v in support} x_v >= rhsClass.
// For directed Steiner cuts rhsClass is always 1, but the framing carries it
// so other problem classes can reuse the channel.
//
// Supports are delta-encoded into a flat int32 blob
// ([rhsClass, k, var0, delta1, ..., delta_{k-1}] per cut) so a bundle is a
// single contiguous buffer regardless of cut count. The header is
// dependency-free on purpose: the steiner layer encodes bundles without
// linking the ug library (top-level include path only), and the
// LoadCoordinator decodes them without knowing anything about graphs.

#include <cstdint>
#include <vector>

namespace ug {

/// One decoded shared cut: sorted unique variable ids + RHS class.
struct CutSupport {
    std::vector<int> vars;
    int rhsClass = 1;
};

class CutBundle {
public:
    /// Appends one support. Rejects (returns false, leaves the bundle
    /// unchanged) unless `vars` is non-empty, sorted, strictly increasing,
    /// non-negative, and rhsClass >= 1 — so every encoded bundle decodes.
    bool append(const std::vector<int>& vars, int rhsClass = 1) {
        if (vars.empty() || rhsClass < 1) return false;
        if (vars.front() < 0) return false;
        for (std::size_t i = 1; i < vars.size(); ++i)
            if (vars[i] <= vars[i - 1]) return false;
        blob_.push_back(rhsClass);
        blob_.push_back(static_cast<std::int32_t>(vars.size()));
        blob_.push_back(vars.front());
        for (std::size_t i = 1; i < vars.size(); ++i)
            blob_.push_back(vars[i] - vars[i - 1]);
        ++count_;
        return true;
    }

    /// Decodes every cut into `out` (appending). Returns false — with `out`
    /// restored to its input size — if the blob is truncated or violates the
    /// encoding invariants, so a corrupt bundle is rejected wholesale rather
    /// than half-applied.
    bool decode(std::vector<CutSupport>& out) const {
        const std::size_t outStart = out.size();
        std::size_t pos = 0;
        for (std::int32_t c = 0; c < count_; ++c) {
            if (pos + 2 > blob_.size()) return fail(out, outStart);
            const std::int32_t rhs = blob_[pos++];
            const std::int32_t k = blob_[pos++];
            if (rhs < 1 || k < 1 || pos + static_cast<std::size_t>(k) > blob_.size())
                return fail(out, outStart);
            CutSupport cs;
            cs.rhsClass = rhs;
            cs.vars.resize(static_cast<std::size_t>(k));
            // Summed in 64 bits: a corrupt delta must fail the bundle, not
            // overflow into a negative id.
            std::int64_t v = blob_[pos++];
            if (v < 0) return fail(out, outStart);
            cs.vars[0] = static_cast<int>(v);
            for (std::int32_t i = 1; i < k; ++i) {
                const std::int32_t d = blob_[pos++];
                v += d;
                if (d < 1 || v > INT32_MAX) return fail(out, outStart);
                cs.vars[static_cast<std::size_t>(i)] = static_cast<int>(v);
            }
            out.push_back(std::move(cs));
        }
        if (pos != blob_.size()) return fail(out, outStart);
        return true;
    }

    int count() const { return count_; }
    bool empty() const { return count_ == 0; }
    /// Wire payload size in int32 words (count_ travels in the framing).
    std::size_t wireWords() const { return blob_.size(); }
    void clear() {
        blob_.clear();
        count_ = 0;
    }

    /// Raw wire words — serialization (checkpointing) and fault-injection
    /// hooks only; the encoding invariants are documented above.
    const std::vector<std::int32_t>& wire() const { return blob_; }

    /// Restore from a serialized (count, wire words) pair, validating by a
    /// full decode. On malformed input the bundle is left empty and false is
    /// returned — a corrupt checkpoint section cannot smuggle in a blob that
    /// later decode() calls would reject.
    bool restoreWire(std::int32_t count, std::vector<std::int32_t> blob) {
        count_ = count;
        blob_ = std::move(blob);
        std::vector<CutSupport> scratch;
        if (count_ < 0 || !decode(scratch)) {
            clear();
            return false;
        }
        return true;
    }

    /// Fault-injection hook: flip one bit of one wire word (payload
    /// corruption in transit). No-op on an empty bundle.
    void flipWireBit(std::size_t word, unsigned bit) {
        if (word < blob_.size())
            blob_[word] ^= static_cast<std::int32_t>(1u << (bit & 31u));
    }

private:
    static bool fail(std::vector<CutSupport>& out, std::size_t outStart) {
        out.resize(outStart);
        return false;
    }

    std::vector<std::int32_t> blob_;
    std::int32_t count_ = 0;
};

}  // namespace ug
