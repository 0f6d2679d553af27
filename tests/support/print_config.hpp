// gtest printer for hw::block_config: a failed comparison or a
// parameterised case names the design ("n=128 light") instead of dumping
// the struct's bytes.  Found by argument-dependent lookup, so every test
// that compares or parameterises on block_config includes this header.
#pragma once

#include "hw/config.hpp"

#include <ostream>

namespace otf::hw {

inline void PrintTo(const block_config& cfg, std::ostream* os)
{
    *os << cfg.name;
}

} // namespace otf::hw
