// The disk-full fixture for the WAL write-error tests: every write to
// /dev/full fails with ENOSPC, while opening it for writing succeeds.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>

namespace otf::test {

inline constexpr const char* kDevFull = "/dev/full";

/// False on hosts without the device (the tests then skip).
inline bool dev_full_available()
{
    std::FILE* file = std::fopen(kDevFull, "wb");
    if (file == nullptr) {
        return false;
    }
    std::fclose(file);
    return true;
}

/// What the std::runtime_error thrown by `fn` says ("" if none is).
template <class Fn>
std::string runtime_error_of(Fn&& fn)
{
    try {
        fn();
    } catch (const std::runtime_error& e) {
        return e.what();
    }
    return "";
}

} // namespace otf::test
