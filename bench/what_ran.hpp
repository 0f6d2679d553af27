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

/// \brief Write the dispatched bits kernel variant and whether the AVX2
/// kernels were compiled in into the open JSON object.
inline void write_what_ran(json_writer& json)
{
    json.value("kernel_variant",
               bits::to_string(bits::active_kernel_variant()));
    json.value("simd_compiled", bits::simd_compiled());
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
