#include "misdp/io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace misdp {

namespace {
constexpr double kBoundInf = 1e29;

/// Largest variable count, block count and block dimension the reader
/// accepts. Blocks are stored dense, so the summed dim^2 of the SDP blocks
/// is capped at its square (8 MB of doubles) too; every cap is checked
/// before the header sizes allocate anything.
constexpr int kMaxSdpaSize = 1024;

bool blankLine(const std::string& line) {
    return std::all_of(line.begin(), line.end(),
                       [](unsigned char c) { return std::isspace(c) != 0; });
}
}  // namespace

bool writeSdpa(std::ostream& os, const MisdpProblem& prob) {
    os << "\"" << (prob.name.empty() ? "misdp" : prob.name) << "\"\n";
    const int m = prob.numVars;
    // Blocks: the SDP blocks, then one diagonal block holding linear rows
    // and finite variable bounds (SDPA encodes LP rows as a negative-size
    // diagonal block).
    int diagSize = 0;
    struct DiagEntry {
        // row: a'y >= rhs  encoded as sum a_i y_i - rhs on the diagonal.
        std::vector<std::pair<int, double>> coefs;
        double rhs;
    };
    std::vector<DiagEntry> diag;
    for (const lp::Row& r : prob.linearRows) {
        if (r.lhs > -kBoundInf) {
            DiagEntry d;
            d.coefs = r.coefs;
            d.rhs = r.lhs;
            diag.push_back(std::move(d));
        }
        if (r.rhs < kBoundInf) {
            DiagEntry d;
            for (auto [j, c] : r.coefs) d.coefs.emplace_back(j, -c);
            d.rhs = -r.rhs;
            diag.push_back(std::move(d));
        }
    }
    for (int j = 0; j < m; ++j) {
        if (prob.lb[j] > -kBoundInf) {
            DiagEntry d;
            d.coefs = {{j, 1.0}};
            d.rhs = prob.lb[j];
            diag.push_back(std::move(d));
        }
        if (prob.ub[j] < kBoundInf) {
            DiagEntry d;
            d.coefs = {{j, -1.0}};
            d.rhs = -prob.ub[j];
            diag.push_back(std::move(d));
        }
    }
    diagSize = static_cast<int>(diag.size());
    const int nBlocks =
        static_cast<int>(prob.blocks.size()) + (diagSize > 0 ? 1 : 0);
    os << m << " = mDIM\n" << nBlocks << " = nBLOCK\n";
    for (std::size_t k = 0; k < prob.blocks.size(); ++k)
        os << prob.blocks[k].dim << (k + 1 < prob.blocks.size() || diagSize
                                         ? " "
                                         : "");
    if (diagSize > 0) os << -diagSize;
    os << " = bLOCKsTRUCT\n";
    os.precision(17);
    for (int j = 0; j < m; ++j) os << prob.obj[j] << (j + 1 < m ? " " : "");
    os << "\n";
    // Entries: <matno> <blkno> <i> <j> <value>, matno 0 = constant matrix.
    // SDPA convention: max b'y s.t. sum_i y_i F_i - F_0 >= 0, i.e.
    // F_i = -A_i and F_0 = -C in our C - sum A_i y_i >= 0 form.
    auto emit = [&](int matno, int blkno, int i, int j, double v) {
        if (std::fabs(v) < 1e-300) return;
        os << matno << " " << blkno << " " << i + 1 << " " << j + 1 << " "
           << v << "\n";
    };
    for (std::size_t k = 0; k < prob.blocks.size(); ++k) {
        const sdp::SdpBlock& blk = prob.blocks[k];
        for (int i = 0; i < blk.dim; ++i)
            for (int j = i; j < blk.dim; ++j)
                emit(0, static_cast<int>(k) + 1, i, j, -blk.c(i, j));
        for (int v = 0; v < m && v < static_cast<int>(blk.a.size()); ++v) {
            if (blk.a[v].empty()) continue;
            for (int i = 0; i < blk.dim; ++i)
                for (int j = i; j < blk.dim; ++j)
                    emit(v + 1, static_cast<int>(k) + 1, i, j,
                         -blk.a[v](i, j));
        }
    }
    const int diagBlk = static_cast<int>(prob.blocks.size()) + 1;
    for (int d = 0; d < diagSize; ++d) {
        emit(0, diagBlk, d, d, diag[d].rhs);
        for (auto [j, c] : diag[d].coefs) emit(j + 1, diagBlk, d, d, c);
    }
    os << "*INTEGER\n";
    for (int j = 0; j < m; ++j)
        if (prob.isInt[j]) os << "*" << j + 1 << "\n";
    return static_cast<bool>(os);
}

std::optional<MisdpProblem> readSdpa(std::istream& is) {
    // Line-based parser for the subset written above. A file it cannot read
    // in full is rejected, never guessed at.
    std::string line;
    auto nextContentLine = [&](std::string& out) -> bool {
        while (std::getline(is, line)) {
            if (line.empty()) continue;
            if (line[0] == '"' || line[0] == '#') continue;
            out = line;
            return true;
        }
        return false;
    };
    // Optional comment/title line is skipped by nextContentLine's '"' rule.
    std::string l;
    if (!nextContentLine(l)) return std::nullopt;
    int m = 0;
    {
        std::istringstream ls(l);
        if (!(ls >> m) || m <= 0 || m > kMaxSdpaSize) return std::nullopt;
    }
    if (!nextContentLine(l)) return std::nullopt;
    int nBlocks = 0;
    {
        std::istringstream ls(l);
        if (!(ls >> nBlocks) || nBlocks <= 0 || nBlocks > kMaxSdpaSize)
            return std::nullopt;
    }
    if (!nextContentLine(l)) return std::nullopt;
    std::vector<int> blockStruct;
    {
        // Strip commas/braces occasionally used in SDPA files.
        for (char& c : l)
            if (c == ',' || c == '{' || c == '}' || c == '(' || c == ')')
                c = ' ';
        std::istringstream ls(l);
        int b;
        while (ls >> b) blockStruct.push_back(b);
        if (static_cast<int>(blockStruct.size()) < nBlocks)
            return std::nullopt;
        blockStruct.resize(nBlocks);
        long long cells = 0;
        for (int b : blockStruct) {
            if (b == 0 || b > kMaxSdpaSize || b < -kMaxSdpaSize)
                return std::nullopt;
            if (b > 0) cells += static_cast<long long>(b) * b;
        }
        if (cells > static_cast<long long>(kMaxSdpaSize) * kMaxSdpaSize)
            return std::nullopt;
    }
    if (!nextContentLine(l)) return std::nullopt;
    MisdpProblem prob;
    prob.init(m);
    {
        for (char& c : l)
            if (c == ',' || c == '{' || c == '}') c = ' ';
        std::istringstream ls(l);
        for (int j = 0; j < m; ++j)
            if (!(ls >> prob.obj[j]) || !std::isfinite(prob.obj[j]))
                return std::nullopt;
    }
    // Prepare blocks (diagonal blocks become linear rows).
    std::vector<int> sdpBlockIndex(nBlocks, -1);
    std::vector<int> diagOfBlock(nBlocks, 0);
    for (int k = 0; k < nBlocks; ++k) {
        if (blockStruct[k] > 0) {
            sdp::SdpBlock blk;
            blk.dim = blockStruct[k];
            blk.c = linalg::Matrix(blk.dim, blk.dim);
            blk.a.assign(m, linalg::Matrix{});
            sdpBlockIndex[k] = static_cast<int>(prob.blocks.size());
            prob.blocks.push_back(std::move(blk));
        } else {
            diagOfBlock[k] = -blockStruct[k];
        }
    }
    // Diagonal entries accumulate into rows: sum coef*y >= rhs.
    std::map<std::pair<int, int>, lp::Row> diagRows;  // (block, i) -> row
    // Entry lines, then the *INTEGER section. A '*' line before *INTEGER
    // is a comment; after it, every '*' line must name a variable in 1..m,
    // or an integrality restriction would be lost silently.
    std::vector<int> integer;
    bool inInteger = false;
    while (std::getline(is, line)) {
        if (blankLine(line)) continue;
        if (line[0] == '*') {
            std::istringstream ls(line.substr(1));
            if (!inInteger) {
                std::string word;
                inInteger = ls >> word && word == "INTEGER";
                continue;
            }
            int v;
            std::string rest;
            if (!(ls >> v) || v < 1 || v > m || ls >> rest)
                return std::nullopt;
            integer.push_back(v - 1);
            continue;
        }
        for (char& c : line)
            if (c == ',' || c == '{' || c == '}') c = ' ';
        std::istringstream ls(line);
        int matno, blkno, i, j;
        double val;
        // A line that does not parse would drop an entry: reject the file.
        if (!(ls >> matno >> blkno >> i >> j >> val) || !std::isfinite(val))
            return std::nullopt;
        if (blkno < 1 || blkno > nBlocks || matno < 0 || matno > m)
            return std::nullopt;
        const int k = blkno - 1;
        if (sdpBlockIndex[k] >= 0) {
            sdp::SdpBlock& blk = prob.blocks[sdpBlockIndex[k]];
            if (i < 1 || j < 1 || i > blk.dim || j > blk.dim)
                return std::nullopt;
            // F_i = -A_i, F_0 = -C.
            if (matno == 0) {
                blk.c(i - 1, j - 1) = -val;
                blk.c(j - 1, i - 1) = -val;
            } else {
                if (blk.a[matno - 1].empty())
                    blk.a[matno - 1] = linalg::Matrix(blk.dim, blk.dim);
                blk.a[matno - 1](i - 1, j - 1) = -val;
                blk.a[matno - 1](j - 1, i - 1) = -val;
            }
        } else {
            if (i != j || i < 1 || i > diagOfBlock[k]) return std::nullopt;
            lp::Row& row = diagRows[{k, i}];
            if (matno == 0)
                row.lhs = val;  // rhs of (sum coef y >= rhs)
            else
                row.coefs.emplace_back(matno - 1, val);
        }
    }
    for (auto& [key, row] : diagRows) {
        row.rhs = lp::kInf;
        if (row.lhs <= -kBoundInf) row.lhs = 0.0;  // entries default to 0
        // Single-variable rows become bounds.
        if (row.coefs.size() == 1) {
            auto [j, c] = row.coefs[0];
            if (c > 0)
                prob.lb[j] = std::max(prob.lb[j], row.lhs / c);
            else if (c < 0)
                prob.ub[j] = std::min(prob.ub[j], row.lhs / c);
            continue;
        }
        prob.linearRows.push_back(row);
    }
    for (int j : integer) prob.isInt[j] = true;
    return prob;
}

bool writeSdpaFile(const std::string& path, const MisdpProblem& prob) {
    std::ofstream out(path);
    if (!out) return false;
    return writeSdpa(out, prob);
}

std::optional<MisdpProblem> readSdpaFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) return std::nullopt;
    return readSdpa(in);
}

}  // namespace misdp
