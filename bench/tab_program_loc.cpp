/**
 * @file
 * The paper's programmability claim (§7): "All our programs require
 * less than 30 lines of code". This table reports each catalogued
 * algorithm's DSL statement count together with what the compiler
 * expands it into — traced operations, instructions before/after
 * fusion, channels and thread blocks — the quantitative version of
 * the paper's 15-vs-70-line Two-Step comparison.
 *
 * A second table counts the library itself: non-blank, non-comment
 * lines of every .cpp/.h file per library directory under src/, the
 * "least code" measure net-deletion changes are reported in. The
 * source tree defaults to the one this binary was built from;
 * `--src DIR` points it elsewhere (e.g. at another checkout).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "collectives/catalog.h"
#include "common/flags.h"
#include "compiler/compiler.h"

using namespace mscclang;

namespace {

/**
 * Lines of @p path holding code: anything outside // and block
 * comments that is not whitespace. String and character literals are
 * skipped so comment markers inside them do not count.
 */
int
codeLines(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::string line;
    bool in_block = false;
    int count = 0;
    while (std::getline(in, line)) {
        bool code = false;
        for (size_t i = 0; i < line.size(); i++) {
            char c = line[i];
            char next = i + 1 < line.size() ? line[i + 1] : '\0';
            if (in_block) {
                if (c == '*' && next == '/') {
                    in_block = false;
                    i++;
                }
            } else if (c == '/' && next == '/') {
                break;
            } else if (c == '/' && next == '*') {
                in_block = true;
                i++;
            } else if (c == '"' || c == '\'') {
                code = true;
                for (i++; i < line.size() && line[i] != c; i++) {
                    if (line[i] == '\\')
                        i++;
                }
            } else if (c != ' ' && c != '\t' && c != '\r') {
                code = true;
            }
        }
        if (code)
            count++;
    }
    return count;
}

/** Prints files and code lines per library directory of @p src. */
int
printLibraryLoc(const std::filesystem::path &src)
{
    namespace fs = std::filesystem;
    if (!fs::is_directory(src)) {
        std::fprintf(stderr, "tab_program_loc: no source tree at %s\n",
                     src.string().c_str());
        return 1;
    }
    std::vector<fs::path> libs;
    for (const fs::directory_entry &entry : fs::directory_iterator(src)) {
        if (entry.is_directory())
            libs.push_back(entry.path());
    }
    std::sort(libs.begin(), libs.end());
    std::printf("# Library size (non-blank, non-comment lines of "
                ".cpp/.h under %s)\n",
                src.string().c_str());
    std::printf("%-12s %6s %7s\n", "library", "files", "LoC");
    int total_files = 0;
    int total_loc = 0;
    for (const fs::path &lib : libs) {
        int files = 0;
        int loc = 0;
        for (const fs::directory_entry &entry :
             fs::recursive_directory_iterator(lib)) {
            std::string ext = entry.path().extension().string();
            if (!entry.is_regular_file() || (ext != ".cpp" && ext != ".h"))
                continue;
            files++;
            loc += codeLines(entry.path());
        }
        std::printf("%-12s %6d %7d\n", lib.filename().string().c_str(),
                    files, loc);
        total_files += files;
        total_loc += loc;
    }
    std::printf("%-12s %6d %7d\n", "total", total_files, total_loc);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string src = MSCCLANG_SOURCE_DIR;
    Flags flags;
    flags.text("--src <dir>", "source tree to count (default: the one built)",
               &src);
    flags.parse(argc, argv);

    // Every catalogue entry, built as mscclang_compile builds it with
    // default flags: on ndv4:2, or on the DGX-1 when the entry's
    // shape check needs it.
    Topology ndv4 = makeNdv4(2);
    Topology dgx1 = makeDgx1();
    std::printf("# Program size table (paper §7: every program < 30 "
                "DSL lines)\n");
    std::printf("%-24s %6s %9s %10s %9s %6s %5s %5s %5s %5s\n",
                "program", "LoC", "trace-ops", "instr-pre",
                "instr-post", "chans", "tbs", "rcs", "rrcs", "rrs");
    for (const AlgoEntry &entry : algoCatalog()) {
        const Topology &topo = entry.fits(ndv4) ? ndv4 : dgx1;
        std::unique_ptr<Program> prog = entry.build(
            topo, AlgoConfig{}, /*channels=*/1, /*root=*/0, /*chunks=*/4);
        CompileOptions copts;
        copts.topology = &topo;
        Compiled out = compileProgram(*prog, copts);
        std::printf("%-24s %6d %9d %10d %9d %6d %5d %5d %5d %5d\n",
                    entry.name, entry.loc, out.stats.traceOps,
                    out.stats.instrsBeforeFusion,
                    out.stats.instrsAfterFusion, out.stats.channels,
                    out.stats.maxThreadBlocks, out.stats.fusion.rcs,
                    out.stats.fusion.rrcs, out.stats.fusion.rrs);
    }
    std::printf("\n");
    return printLibraryLoc(src);
}
