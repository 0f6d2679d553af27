// Golden accounting of the software pass on the Table III windows.
//
// Window i is the first window a fresh core::monitor(design, 0.01) tests
// from trng::ideal_source(kGoldenSeedBase + i) -- the windows the
// Table III bench measures (bench/table3_implementation.cpp), plus one
// serial_transfer_marginals and one double_buffered design.  The values
// pin the sw16 instruction vector, the MSP430 cycle count and every
// verdict exactly: any change to how the pass reads the register map or
// runs its routines must leave all of them unchanged.
#pragma once

#include "core/design_config.hpp"
#include "sw16/cpu.hpp"

#include <array>
#include <cstdint>
#include <vector>

namespace otf::test {

inline constexpr std::uint64_t kGoldenSeedBase = 0xCAFE;

struct golden_verdict {
    const char* name;
    bool pass;
    std::int64_t statistic;
    std::int64_t bound;
};

struct golden_window {
    hw::block_config design;
    /// total_ops in Table III row order: ADD, SUB, MUL, SQR, SHIFT, COMP,
    /// LUT, READ.
    std::array<std::uint64_t, 8> ops;
    std::uint64_t sw_cycles;
    std::vector<golden_verdict> verdicts;
};

inline std::array<std::uint64_t, 8> op_vector(const sw16::op_counts& c)
{
    return {c.add, c.sub, c.mul, c.sqr, c.shift, c.comp, c.lut, c.read};
}

/// The eight paper designs in Table III order, then the marginal-transfer
/// and double-buffered variants; window i uses seed kGoldenSeedBase + i.
inline std::vector<golden_window> golden_windows()
{
    const auto marginal_transfer = [] {
        hw::block_config cfg = core::paper_design(16, core::tier::high);
        cfg.serial_transfer_marginals = true;
        cfg.name += " (marginal transfer)";
        return cfg;
    };
    const auto double_buffered = [] {
        hw::block_config cfg = core::paper_design(7, core::tier::medium);
        cfg.double_buffered = true;
        cfg.name += " (double buffered)";
        return cfg;
    };
    return {
        {core::paper_design(7, core::tier::light),
         {17, 12, 4, 8, 5, 23, 0, 12},
         298,
         {{"frequency", true, 18, 29},
          {"block_frequency", true, 132, 424},
          {"runs", true, 70, 76},
          {"longest_run", true, 1613017, 1792073},
          {"cumulative_sums", true, 20, 31}}},
        {core::paper_design(7, core::tier::medium),
         {222, 65, 52, 36, 110, 32, 24, 40},
         2121,
         {{"frequency", true, 16, 29},
          {"block_frequency", true, 136, 424},
          {"runs", true, 67, 77},
          {"longest_run", true, 1382992, 1792073},
          {"serial", true, 1216, 2571},
          {"approximate_entropy", true, 40748, 39281},
          {"cumulative_sums", true, 17, 31}}},
        {core::paper_design(16, core::tier::light),
         {84, 27, 18, 22, 18, 50, 0, 30},
         929,
         {{"frequency", true, 328, 659},
          {"block_frequency", true, 103496, 131071},
          {"runs", true, 32447, 33096},
          {"longest_run", true, 1087715454, 1105380030},
          {"cumulative_sums", true, 532, 718}}},
        {core::paper_design(16, core::tier::medium),
         {132, 52, 26, 38, 34, 61, 0, 38},
         1429,
         {{"frequency", true, 272, 659},
          {"block_frequency", true, 74088, 131071},
          {"runs", true, 32809, 33097},
          {"longest_run", true, 1076127862, 1105380030},
          {"non_overlapping_template", true, 20431360, 81466706},
          {"cumulative_sums", true, 445, 718}}},
        {core::paper_design(16, core::tier::high),
         {471, 111, 110, 100, 143, 75, 24, 100},
         4357,
         {{"frequency", true, 146, 659},
          {"block_frequency", true, 62084, 131071},
          {"runs", true, 32698, 33097},
          {"longest_run", true, 1091636421, 1105380030},
          {"non_overlapping_template", true, 58212864, 81466706},
          {"overlapping_template", true, 17893800, 20731992},
          {"serial", false, 1414512, 1316633},
          {"approximate_entropy", true, 45214, 45207},
          {"cumulative_sums", true, 296, 718}}},
        {core::paper_design(20, core::tier::light),
         {77, 36, 18, 23, 18, 42, 0, 31},
         922,
         {{"frequency", true, 670, 2637},
          {"block_frequency", true, 453420, 2633267},
          {"runs", true, 524789, 525606},
          {"longest_run", true, 68348476, 75923138},
          {"cumulative_sums", true, 1098, 2874}}},
        {core::paper_design(20, core::tier::medium),
         {133, 58, 26, 39, 34, 54, 0, 39},
         1440,
         {{"frequency", true, 322, 2637},
          {"block_frequency", true, 221660, 2633267},
          {"runs", true, 524161, 525606},
          {"longest_run", true, 71211388, 75923138},
          {"non_overlapping_template", true, 692142592, 1303467306},
          {"cumulative_sums", true, 1210, 2874}}},
        {core::paper_design(20, core::tier::high),
         {497, 107, 118, 101, 145, 68, 24, 101},
         4481,
         {{"frequency", true, 1530, 2637},
          {"block_frequency", true, 1252060, 2633267},
          {"runs", true, 523921, 525605},
          {"longest_run", true, 72009703, 75923138},
          {"non_overlapping_template", true, 442237440, 1303467306},
          {"overlapping_template", true, 4308381053, 4358243709},
          {"serial", true, 4542720, 21066138},
          {"approximate_entropy", true, 45395, 45362},
          {"cumulative_sums", true, 1911, 2874}}},
        {marginal_transfer(),
         {495, 116, 110, 100, 143, 75, 24, 76},
         4372,
         {{"frequency", true, 388, 659},
          {"block_frequency", true, 45320, 131071},
          {"runs", true, 32790, 33096},
          {"longest_run", true, 1100876165, 1105380030},
          {"non_overlapping_template", true, 22643200, 81466706},
          {"overlapping_template", true, 19548894, 20731992},
          {"serial", true, 570464, 1316633},
          {"approximate_entropy", true, 45289, 45207},
          {"cumulative_sums", true, 459, 718}}},
        {double_buffered(),
         {222, 65, 52, 36, 110, 32, 24, 40},
         2121,
         {{"frequency", true, 4, 29},
          {"block_frequency", true, 24, 424},
          {"runs", true, 70, 78},
          {"longest_run", true, 1190378, 1792073},
          {"serial", true, 1216, 2571},
          {"approximate_entropy", true, 42439, 39281},
          {"cumulative_sums", true, 8, 31}}},
    };
}

} // namespace otf::test
