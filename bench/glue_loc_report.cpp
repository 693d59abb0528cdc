// Section 2.3 claim check: "the additional effort needed to parallelize
// their sequential versions is less than 200 lines of code" — the paper's
// stp_plugins.cpp is 173 LoC and misdp_plugins.cpp 106 LoC (cloc counts,
// no blanks/comments). This bench counts the same metric for this
// repository's glue files.
//
// Usage: glue_loc_report [<file>=<max LoC> ...]. Each argument caps one glue
// file's count, turning the report into a size gate: the exit status is 1
// when a file reaches 200 LoC or grows past its cap.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "benchutil.hpp"

#ifndef UGCOP_SOURCE_DIR
#define UGCOP_SOURCE_DIR "."
#endif

namespace {

/// cloc-style count: skip blank lines, // lines and /* */ blocks.
int countLoc(const std::string& path) {
    std::ifstream in(path);
    if (!in) return -1;
    int loc = 0;
    bool inBlock = false;
    std::string line;
    while (std::getline(in, line)) {
        std::string t;
        for (char c : line)
            if (!isspace(static_cast<unsigned char>(c)) || !t.empty())
                t += c;
        while (!t.empty() && isspace(static_cast<unsigned char>(t.back())))
            t.pop_back();
        if (t.empty()) continue;
        if (inBlock) {
            if (t.find("*/") != std::string::npos) inBlock = false;
            continue;
        }
        if (t.rfind("//", 0) == 0) continue;
        if (t.rfind("/*", 0) == 0) {
            if (t.find("*/") == std::string::npos) inBlock = true;
            continue;
        }
        ++loc;
    }
    return loc;
}

}  // namespace

int main(int argc, char** argv) {
    std::map<std::string, int> caps;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos || eq + 1 == arg.size()) {
            std::fprintf(stderr, "usage: %s [<file>=<max LoC> ...]\n",
                         argv[0]);
            return 2;
        }
        caps[arg.substr(0, eq)] = std::stoi(arg.substr(eq + 1));
    }
    benchutil::header(
        "Glue-code size report (paper section 2.3: parallelization in\n"
        "< 200 lines of code per customized solver)");
    const std::string base = std::string(UGCOP_SOURCE_DIR) + "/src/ugcip/";
    struct File {
        const char* name;
        int paperLoc;
    };
    const std::vector<File> files = {
        {"stp_plugins.cpp", 173},
        {"misdp_plugins.cpp", 106},
    };
    bool ok = true;
    bool capsOk = true;
    std::printf("%-22s %10s %14s   %-6s %s\n", "glue file", "LoC",
                "paper's LoC", "< 200?", "cap");
    benchutil::hline(60);
    for (const File& f : files) {
        const int loc = countLoc(base + f.name);
        if (loc < 0) {
            std::printf("%-22s  (not found at %s)\n", f.name,
                        (base + f.name).c_str());
            ok = false;
            continue;
        }
        bool withinCap = true;
        std::string capText = "-";
        if (const auto cap = caps.find(f.name); cap != caps.end()) {
            withinCap = loc <= cap->second;
            capText = (withinCap ? "<= " : "EXCEEDS ") +
                      std::to_string(cap->second);
            caps.erase(cap);
        }
        std::printf("%-22s %10d %14d   %-6s %s\n", f.name, loc, f.paperLoc,
                    loc < 200 ? "yes" : "NO", capText.c_str());
        ok = ok && loc < 200;
        capsOk = capsOk && withinCap;
    }
    for (const auto& entry : caps) {
        std::printf("cap given for unknown glue file %s\n",
                    entry.first.c_str());
        capsOk = false;
    }
    std::printf("\n%s\n", ok ? "claim reproduced: all glue files < 200 LoC"
                             : "claim NOT reproduced");
    if (!capsOk) std::printf("glue size gate failed: see the cap column\n");
    return ok && capsOk ? 0 : 1;
}
