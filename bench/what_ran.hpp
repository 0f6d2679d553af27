// What ran: the build facts every BENCH_*.json records, so figures from
// different builds or kernel variants are never compared blind.
#pragma once

#include "base/bits.hpp"
#include "base/json.hpp"

namespace otf {

/// \brief Write the dispatched bits kernel variant and whether the AVX2
/// kernels were compiled in into the open JSON object.
inline void write_what_ran(json_writer& json)
{
    json.value("kernel_variant",
               bits::to_string(bits::active_kernel_variant()));
    json.value("simd_compiled", bits::simd_compiled());
}

} // namespace otf
