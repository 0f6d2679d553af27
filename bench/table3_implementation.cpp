// Reproduction of Table III: "Implementation results."
//
// Eight design points (three sequence lengths x up to three tiers):
//  * the test-inclusion dot matrix,
//  * FPGA figures from the calibrated Spartan-6 model (slices / FF / LUT /
//    max frequency),
//  * ASIC gate equivalents from the UMC 0.13 um model,
//  * 16-bit software instruction counts, *measured* by running the real
//    software routines of each design on its own hardware counters.
//
// The paper's reported values are printed next to the model's so the
// shapes can be compared directly (we reproduce ordering and scaling, not
// synthesis-exact numbers -- the technology models' calibration is
// documented in src/rtl/resources.hpp).
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "trng/sources.hpp"

#include <cstdio>
#include <vector>

using namespace otf;

namespace {

struct paper_row {
    const char* name;
    unsigned slices, ff, luts;
    double mhz;
    unsigned ge;
    unsigned add, sub, mul, sqr, shift, comp, lut, read;
};

// Table III as printed in the paper.
const paper_row paper_rows[8] = {
    {"n=128 light", 52, 110, 158, 156, 1210, 9, 8, 4, 8, 0, 22, 0, 10},
    {"n=128 medium", 149, 329, 471, 147, 3632, 153, 14, 28, 36, 3, 28, 24,
     24},
    {"n=65536 light", 144, 307, 420, 143, 3243, 108, 16, 24, 14, 0, 42, 0,
     18},
    {"n=65536 medium", 168, 375, 454, 136, 3850, 122, 24, 24, 22, 8, 44, 0,
     22},
    {"n=65536 high", 377, 836, 1103, 133, 8983, 266, 30, 48, 50, 11, 50, 24,
     50},
    {"n=1048576 light", 173, 379, 546, 125, 4013, 130, 24, 15, 23, 0, 34, 0,
     21},
    {"n=1048576 medium", 291, 585, 828, 122, 5993, 358, 40, 47, 45, 8, 42,
     0, 35},
    {"n=1048576 high", 552, 1156, 1699, 121, 12416, 890, 50, 91, 101, 11,
     48, 24, 91},
};

} // namespace

int main()
{
    const auto designs = core::all_paper_designs();

    std::printf("Table III -- implementation results "
                "(model vs paper in parentheses)\n\n");

    // Dot matrix.
    std::printf("%-8s", "");
    for (const auto& cfg : designs) {
        std::printf(" %-10s",
                    cfg.name.substr(cfg.name.find(' ') + 1).c_str());
    }
    std::printf("\n");
    const hw::test_id all_ids[] = {
        hw::test_id::frequency, hw::test_id::block_frequency,
        hw::test_id::runs, hw::test_id::longest_run,
        hw::test_id::non_overlapping_template,
        hw::test_id::overlapping_template, hw::test_id::serial,
        hw::test_id::approximate_entropy, hw::test_id::cumulative_sums};
    for (const auto id : all_ids) {
        std::printf("test%-4u", static_cast<unsigned>(id));
        for (const auto& cfg : designs) {
            std::printf(" %-10s", cfg.tests.has(id) ? "*" : "");
        }
        std::printf("\n");
    }

    std::printf("\nFPGA (Spartan-6 model):\n");
    std::printf("%-18s %16s %14s %14s %16s %16s\n", "design",
                "slices(paper)", "FF(paper)", "LUT(paper)",
                "MaxFreq(paper)", "GE(paper)");
    for (std::size_t i = 0; i < designs.size(); ++i) {
        const hw::testing_block block(designs[i]);
        const auto fpga = rtl::estimate_spartan6(block.cost());
        const auto asic = rtl::estimate_umc130(block.cost());
        char slices[32], ffs[32], luts[32], mhz[32], ge[32];
        std::snprintf(slices, sizeof slices, "%u(%u)", fpga.slices,
                      paper_rows[i].slices);
        std::snprintf(ffs, sizeof ffs, "%u(%u)", fpga.ffs,
                      paper_rows[i].ff);
        std::snprintf(luts, sizeof luts, "%u(%u)", fpga.luts,
                      paper_rows[i].luts);
        std::snprintf(mhz, sizeof mhz, "%.0f(%.0f)", fpga.max_freq_mhz,
                      paper_rows[i].mhz);
        std::snprintf(ge, sizeof ge, "%u(%u)", asic.gate_equivalents,
                      paper_rows[i].ge);
        std::printf("%-18s %16s %14s %14s %16s %16s\n",
                    designs[i].name.c_str(), slices, ffs, luts, mhz, ge);
    }

    std::printf("\nSW: 16-bit instructions, measured on one window "
                "(paper values in parentheses)\n");
    std::printf("%-18s %12s %10s %10s %10s %10s %10s %9s %10s\n", "design",
                "ADD", "SUB", "MUL", "SQR", "SHIFT", "COMP", "LUT", "READ");
    for (std::size_t i = 0; i < designs.size(); ++i) {
        core::monitor mon(designs[i], 0.01);
        trng::ideal_source src(0xCAFE + i);
        const auto rep = mon.test_window(src);
        const auto& ops = rep.software.total_ops;
        const auto& p = paper_rows[i];
        char add[32], sub[32], mul[32], sqr[32], shift[32], comp[32],
            lut[32], read[32];
        std::snprintf(add, sizeof add, "%llu(%u)",
                      static_cast<unsigned long long>(ops.add), p.add);
        std::snprintf(sub, sizeof sub, "%llu(%u)",
                      static_cast<unsigned long long>(ops.sub), p.sub);
        std::snprintf(mul, sizeof mul, "%llu(%u)",
                      static_cast<unsigned long long>(ops.mul), p.mul);
        std::snprintf(sqr, sizeof sqr, "%llu(%u)",
                      static_cast<unsigned long long>(ops.sqr), p.sqr);
        std::snprintf(shift, sizeof shift, "%llu(%u)",
                      static_cast<unsigned long long>(ops.shift), p.shift);
        std::snprintf(comp, sizeof comp, "%llu(%u)",
                      static_cast<unsigned long long>(ops.comp), p.comp);
        std::snprintf(lut, sizeof lut, "%llu(%u)",
                      static_cast<unsigned long long>(ops.lut), p.lut);
        std::snprintf(read, sizeof read, "%llu(%u)",
                      static_cast<unsigned long long>(ops.read), p.read);
        std::printf("%-18s %12s %10s %10s %10s %10s %10s %9s %10s\n",
                    designs[i].name.c_str(), add, sub, mul, sqr, shift,
                    comp, lut, read);
    }

    std::printf("\nshape checks:\n");
    std::printf("  - area ordered light < medium < high at every length\n");
    std::printf("  - area grows with n at fixed tier\n");
    std::printf("  - every design above 100 MHz\n");
    std::printf("  - LUT column is 24 exactly when test 12 is present "
                "(16+8 PWL lookups)\n");
    return 0;
}
