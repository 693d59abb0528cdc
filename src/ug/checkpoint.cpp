#include "ug/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <type_traits>

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ug {

namespace {

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, polynomial 0xEDB88320), table-driven.

const std::array<std::uint32_t, 256>& crcTable() {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

std::uint32_t crc32(const unsigned char* p, std::size_t n) {
    const auto& t = crcTable();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i)
        c = t[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Flat byte buffer I/O. The reader is bounds-checked on every primitive so a
// truncated or bit-flipped payload fails parsing instead of reading garbage.

class Writer {
public:
    void raw(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        buf_.insert(buf_.end(), b, b + n);
    }
    void u8(std::uint8_t v) { raw(&v, 1); }
    void u32(std::uint32_t v) { raw(&v, 4); }
    void u64(std::uint64_t v) { raw(&v, 8); }
    void i32(std::int32_t v) { raw(&v, 4); }
    void i64(std::int64_t v) { raw(&v, 8); }
    void f64(double v) { raw(&v, 8); }
    void str(const std::string& s) {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    std::vector<unsigned char>& bytes() { return buf_; }

private:
    std::vector<unsigned char> buf_;
};

class Reader {
public:
    Reader(const unsigned char* p, std::size_t n) : p_(p), n_(n) {}

    bool raw(void* out, std::size_t n) {
        if (pos_ + n > n_) return false;
        std::memcpy(out, p_ + pos_, n);
        pos_ += n;
        return true;
    }
    bool u8(std::uint8_t& v) { return raw(&v, 1); }
    bool u32(std::uint32_t& v) { return raw(&v, 4); }
    bool u64(std::uint64_t& v) { return raw(&v, 8); }
    bool i32(std::int32_t& v) { return raw(&v, 4); }
    bool i64(std::int64_t& v) { return raw(&v, 8); }
    bool f64(double& v) { return raw(&v, 8); }
    bool str(std::string& s) {
        std::uint32_t n = 0;
        if (!u32(n) || pos_ + n > n_) return false;
        s.assign(reinterpret_cast<const char*>(p_ + pos_), n);
        pos_ += n;
        return true;
    }
    bool skip(std::size_t n) {
        if (pos_ + n > n_) return false;
        pos_ += n;
        return true;
    }

    std::size_t remaining() const { return n_ - pos_; }
    bool done() const { return pos_ == n_; }

private:
    const unsigned char* p_;
    std::size_t n_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// UgStats <-> bytes: the coordinator's fields, then the inherited worker
// counters. The same two visitors define the field order for both
// directions, so writer and reader cannot drift apart; the serialized field
// count guards against loading a checkpoint written by a different stats
// layout.

template <class S, class F>
void visitStatFields(S& s, F&& f) {
    forEachCoordinatorField(s, f);
    cip::forEachCounter(s, [&](auto& v, cip::Kind) { f(v); });
}

std::uint32_t countStatFields() {
    const UgStats s;
    std::uint32_t n = 0;
    visitStatFields(s, [&](auto&) { ++n; });
    return n;
}

// ---------------------------------------------------------------------------
// Section payloads. Writer/parser pairs; every parser must consume its
// payload exactly (the section loop verifies that).

constexpr std::uint32_t kMagic = 0x50434755u;  // "UGCP"
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kSecPhase = 1;
constexpr std::uint32_t kSecNodes = 2;
constexpr std::uint32_t kSecIncumbent = 3;
constexpr std::uint32_t kSecCuts = 4;
constexpr std::uint32_t kSecStats = 5;
constexpr std::size_t kHeaderBytes = 24;  // magic,version,gen,count,crc

void writePhase(Writer& w, const Checkpoint& cp) {
    w.f64(cp.dualBound);
    w.u8(cp.racingDone ? 1 : 0);
    w.u8(cp.hasStats ? 1 : 0);
}

bool parsePhase(Reader& r, Checkpoint& cp) {
    std::uint8_t racing = 0, hasStats = 0;
    if (!r.f64(cp.dualBound) || !r.u8(racing) || !r.u8(hasStats)) return false;
    if (racing > 1 || hasStats > 1) return false;
    cp.racingDone = racing != 0;
    cp.hasStats = hasStats != 0;
    return true;
}

void writeNodes(Writer& w, const Checkpoint& cp) {
    w.u64(cp.nodes.size());
    for (const cip::SubproblemDesc& d : cp.nodes) {
        w.f64(d.lowerBound);
        w.i32(d.retryLevel);
        w.u32(static_cast<std::uint32_t>(d.boundChanges.size()));
        for (const cip::BoundChange& bc : d.boundChanges) {
            w.i32(bc.var);
            w.f64(bc.lb);
            w.f64(bc.ub);
        }
        w.u32(static_cast<std::uint32_t>(d.customBranches.size()));
        for (const cip::CustomBranch& cb : d.customBranches) {
            w.str(cb.plugin);
            w.u64(cb.data.size());
            for (std::int64_t v : cb.data) w.i64(v);
        }
    }
}

bool parseNodes(Reader& r, Checkpoint& cp) {
    std::uint64_t n = 0;
    if (!r.u64(n)) return false;
    // Cheap sanity bound before resize: every node costs >= 20 payload bytes,
    // so a bit-flipped count cannot trigger a huge allocation.
    if (n > r.remaining() / 20 + 1) return false;
    cp.nodes.resize(static_cast<std::size_t>(n));
    for (cip::SubproblemDesc& d : cp.nodes) {
        std::uint32_t nbc = 0, ncb = 0;
        if (!r.f64(d.lowerBound) || !r.i32(d.retryLevel) || !r.u32(nbc))
            return false;
        if (nbc > r.remaining() / 20 + 1) return false;
        d.boundChanges.resize(nbc);
        for (cip::BoundChange& bc : d.boundChanges)
            if (!r.i32(bc.var) || !r.f64(bc.lb) || !r.f64(bc.ub)) return false;
        if (!r.u32(ncb) || ncb > r.remaining() / 12 + 1) return false;
        d.customBranches.resize(ncb);
        for (cip::CustomBranch& cb : d.customBranches) {
            std::uint64_t nd = 0;
            if (!r.str(cb.plugin) || !r.u64(nd) || nd > r.remaining() / 8 + 1)
                return false;
            cb.data.resize(static_cast<std::size_t>(nd));
            for (std::int64_t& v : cb.data)
                if (!r.i64(v)) return false;
        }
    }
    return true;
}

void writeIncumbent(Writer& w, const Checkpoint& cp) {
    w.u8(cp.incumbent.valid() ? 1 : 0);
    if (cp.incumbent.valid()) {
        w.f64(cp.incumbent.obj);
        w.u64(cp.incumbent.x.size());
        for (double v : cp.incumbent.x) w.f64(v);
    }
    w.i32(cp.incumbentSource);
    w.i32(cp.incumbentSetting);
}

bool parseIncumbent(Reader& r, Checkpoint& cp) {
    std::uint8_t valid = 0;
    if (!r.u8(valid) || valid > 1) return false;
    if (valid) {
        std::uint64_t n = 0;
        if (!r.f64(cp.incumbent.obj) || !r.u64(n) ||
            n > r.remaining() / 8 + 1)
            return false;
        cp.incumbent.x.resize(static_cast<std::size_t>(n));
        for (double& v : cp.incumbent.x)
            if (!r.f64(v)) return false;
        // A marked-valid incumbent with no coordinates would deserialize to
        // Solution::valid() == false and silently drop the objective —
        // reject the inconsistent frame instead.
        if (cp.incumbent.x.empty()) return false;
    }
    return r.i32(cp.incumbentSource) && r.i32(cp.incumbentSetting);
}

void writeCuts(Writer& w, const Checkpoint& cp) {
    w.i32(cp.cuts.count());
    const std::vector<std::int32_t>& wire = cp.cuts.wire();
    w.u64(wire.size());
    for (std::int32_t v : wire) w.i32(v);
}

bool parseCuts(Reader& r, Checkpoint& cp) {
    std::int32_t count = 0;
    std::uint64_t words = 0;
    if (!r.i32(count) || !r.u64(words) || words > r.remaining() / 4)
        return false;
    std::vector<std::int32_t> wire(static_cast<std::size_t>(words));
    for (std::int32_t& v : wire)
        if (!r.i32(v)) return false;
    // restoreWire re-validates the delta coding itself.
    return cp.cuts.restoreWire(count, std::move(wire));
}

// Every stats field travels as an i64, floating-point ones as an f64.
void writeStats(Writer& w, const Checkpoint& cp) {
    w.u32(countStatFields());
    visitStatFields(cp.stats, [&](const auto& v) {
        if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>)
            w.f64(v);
        else
            w.i64(static_cast<std::int64_t>(v));
    });
}

bool parseStats(Reader& r, Checkpoint& cp) {
    std::uint32_t n = 0;
    if (!r.u32(n) || n != countStatFields()) return false;
    bool ok = true;
    visitStatFields(cp.stats, [&](auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_floating_point_v<T>) {
            ok = ok && r.f64(v);
        } else {
            std::int64_t x = 0;
            ok = ok && r.i64(x);
            v = static_cast<T>(x);
        }
    });
    return ok;
}

// ---------------------------------------------------------------------------
// Whole-image serialize / parse.

std::vector<unsigned char> serializeImage(const Checkpoint& cp,
                                          std::uint64_t generation) {
    Writer header;
    header.u32(kMagic);
    header.u32(kVersion);
    header.u64(generation);
    header.u32(5);  // section count
    header.u32(crc32(header.bytes().data(), header.bytes().size()));

    std::vector<unsigned char> img = std::move(header.bytes());
    const auto addSection = [&](std::uint32_t id, auto&& writeBody) {
        Writer body;
        writeBody(body);
        Writer frame;
        frame.u32(id);
        frame.u64(body.bytes().size());
        frame.u32(crc32(body.bytes().data(), body.bytes().size()));
        img.insert(img.end(), frame.bytes().begin(), frame.bytes().end());
        img.insert(img.end(), body.bytes().begin(), body.bytes().end());
    };
    addSection(kSecPhase, [&](Writer& w) { writePhase(w, cp); });
    addSection(kSecNodes, [&](Writer& w) { writeNodes(w, cp); });
    addSection(kSecIncumbent, [&](Writer& w) { writeIncumbent(w, cp); });
    addSection(kSecCuts, [&](Writer& w) { writeCuts(w, cp); });
    addSection(kSecStats, [&](Writer& w) { writeStats(w, cp); });
    return img;
}

struct ParsedImage {
    Checkpoint cp;
    std::uint64_t generation = 0;
};

std::optional<ParsedImage> parseImage(const unsigned char* data,
                                      std::size_t size, std::string* err) {
    const auto fail = [&](const char* why) -> std::optional<ParsedImage> {
        if (err) *err = why;
        return std::nullopt;
    };
    if (size < kHeaderBytes) return fail("file shorter than header");
    Reader hr(data, kHeaderBytes);
    std::uint32_t magic = 0, version = 0, sections = 0, hcrc = 0;
    std::uint64_t generation = 0;
    hr.u32(magic);
    hr.u32(version);
    hr.u64(generation);
    hr.u32(sections);
    hr.u32(hcrc);
    if (magic != kMagic) return fail("bad magic");
    if (version != kVersion) return fail("unsupported version");
    if (hcrc != crc32(data, kHeaderBytes - 4))
        return fail("header CRC mismatch");
    if (sections != 5) return fail("unexpected section count");
    if (generation == 0) return fail("zero generation");

    ParsedImage out;
    out.generation = generation;
    Reader r(data + kHeaderBytes, size - kHeaderBytes);
    // Sections are written (and required) in a fixed order.
    const std::uint32_t expect[5] = {kSecPhase, kSecNodes, kSecIncumbent,
                                     kSecCuts, kSecStats};
    for (std::uint32_t want : expect) {
        std::uint32_t id = 0, crc = 0;
        std::uint64_t len = 0;
        if (!r.u32(id) || !r.u64(len) || !r.u32(crc))
            return fail("truncated section frame");
        if (id != want) return fail("unexpected section id");
        if (len > r.remaining()) return fail("truncated section payload");
        const unsigned char* payload = data + (size - r.remaining());
        if (crc != crc32(payload, static_cast<std::size_t>(len)))
            return fail("section CRC mismatch");
        Reader body(payload, static_cast<std::size_t>(len));
        bool ok = false;
        switch (id) {
            case kSecPhase: ok = parsePhase(body, out.cp); break;
            case kSecNodes: ok = parseNodes(body, out.cp); break;
            case kSecIncumbent: ok = parseIncumbent(body, out.cp); break;
            case kSecCuts: ok = parseCuts(body, out.cp); break;
            case kSecStats: ok = parseStats(body, out.cp); break;
        }
        if (!ok) return fail("section payload malformed");
        if (!body.done()) return fail("section payload has trailing bytes");
        r.skip(static_cast<std::size_t>(len));
    }
    if (!r.done()) return fail("trailing bytes after last section");
    return out;
}

// ---------------------------------------------------------------------------
// File I/O.

std::optional<std::vector<unsigned char>> readFile(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f) return std::nullopt;
    std::vector<unsigned char> buf;
    unsigned char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
        buf.insert(buf.end(), chunk, chunk + n);
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    if (!ok) return std::nullopt;
    return buf;
}

bool writeAtomic(const std::string& dest, const unsigned char* data,
                 std::size_t n) {
    const std::string tmp = dest + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f) return false;
    bool ok = n == 0 || std::fwrite(data, 1, n, f) == n;
    ok = std::fflush(f) == 0 && ok;
#ifdef __unix__
    if (ok) ok = ::fsync(fileno(f)) == 0;
#endif
    ok = std::fclose(f) == 0 && ok;
    if (!ok || std::rename(tmp.c_str(), dest.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
#ifdef __unix__
    // Persist the rename itself: fsync the containing directory.
    std::string dir = dest;
    const std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos
              ? "."
              : dir.substr(0, std::max<std::size_t>(slash, 1));
    const int dfd = ::open(dir.c_str(), O_RDONLY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
#endif
    return true;
}

/// Fully validate a slot; its generation on success, 0 otherwise.
std::uint64_t slotGeneration(const std::string& slot) {
    const auto bytes = readFile(slot);
    if (!bytes) return 0;
    const auto img = parseImage(bytes->data(), bytes->size(), nullptr);
    return img ? img->generation : 0;
}

}  // namespace

std::string checkpointSlotA(const std::string& path) { return path + ".a"; }
std::string checkpointSlotB(const std::string& path) { return path + ".b"; }

void removeCheckpointFiles(const std::string& path) {
    for (const std::string& p :
         {checkpointSlotA(path), checkpointSlotB(path)}) {
        std::remove(p.c_str());
        std::remove((p + ".tmp").c_str());
    }
    std::remove(path.c_str());  // pre-A/B single-file layout leftovers
}

bool saveCheckpoint(const std::string& path, const Checkpoint& cp,
                    TornWriter* torn) {
    const std::string slotA = checkpointSlotA(path);
    const std::string slotB = checkpointSlotB(path);
    const std::uint64_t genA = slotGeneration(slotA);
    const std::uint64_t genB = slotGeneration(slotB);
    // Overwrite the invalid slot if there is one, else the older generation;
    // either way the newest good generation survives this write even if it
    // tears.
    const std::string& target =
        genA == 0 ? slotA : (genB == 0 || genB < genA) ? slotB : slotA;
    const std::uint64_t newGen = std::max(genA, genB) + 1;

    std::vector<unsigned char> img = serializeImage(cp, newGen);
    const std::size_t keep = torn ? torn->truncateAt(img.size()) : img.size();
    return writeAtomic(target, img.data(), keep);
}

std::optional<Checkpoint> loadCheckpoint(const std::string& path,
                                         CheckpointLoadReport* report) {
    CheckpointLoadReport rep;
    std::optional<ParsedImage> best;
    for (const std::string& slot :
         {checkpointSlotA(path), checkpointSlotB(path)}) {
        const auto bytes = readFile(slot);
        if (!bytes) continue;
        ++rep.slotsPresent;
        std::string err;
        auto img = parseImage(bytes->data(), bytes->size(), &err);
        if (!img) {
            ++rep.slotsCorrupt;
            if (rep.error.empty()) rep.error = slot + ": " + err;
            continue;
        }
        if (!best || img->generation > best->generation) best = std::move(img);
    }
    if (best) {
        rep.generation = best->generation;
        if (report) *report = std::move(rep);
        return std::move(best->cp);
    }
    if (rep.slotsPresent == 0 && rep.error.empty())
        rep.error = "no checkpoint slot file exists";
    if (report) *report = std::move(rep);
    return std::nullopt;
}

}  // namespace ug
