// What ran: the build facts every BENCH_*.json records, so figures from
// different builds or kernel variants are never compared blind -- and the
// one write path every JSON-writing bench shares.
#pragma once

#include "base/bits.hpp"
#include "base/json.hpp"

#include <cstdio>
#include <fstream>
#include <string>

namespace otf {

/// \brief Write the dispatched bits kernel variant, whether the x86-64-v3
/// clone is in the binary and the ISA the dispatched span kernels run
/// into the open JSON object.
inline void write_what_ran(json_writer& json)
{
    const bits::kernel_variant variant = bits::active_kernel_variant();
    json.value("kernel_variant", bits::to_string(variant));
    json.value("simd_compiled", bits::simd_compiled());
    json.value("kernel_isa", bits::kernel_isa(variant));
}

/// \brief Write the finished document to `path`.
/// \return false, after printing "failed to write <path>" to stderr, when
/// the write or the flush fails.
inline bool write_bench_json(const std::string& path, const json_writer& json)
{
    std::ofstream out(path);
    out << json.str();
    out.flush();
    if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return false;
    }
    return true;
}

} // namespace otf
