// Tiny environment knobs shared by the examples and benches.
//
// The ctest smoke targets run every example and bench binary with
// OTF_SMOKE=1, which asks the program to shrink its statistical parameters
// (window counts, sweep sizes) so the smoke pass stays fast while still
// executing every code path.  Full runs (no env var) keep the
// paper-faithful parameters.
#pragma once

#include <cstdlib>
#include <cstring>
#include <string>

namespace otf {

/// True when OTF_SMOKE is set to anything but "" or "0".
inline bool smoke_mode()
{
    const char* v = std::getenv("OTF_SMOKE");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

/// Pick the full-size parameter normally, the reduced one under OTF_SMOKE.
template <class T>
T smoke_scaled(T full, T reduced)
{
    return smoke_mode() ? reduced : full;
}

/// Process-wide bench output directory override (set by the --bench-dir=
/// CLI flag); wins over the OTF_BENCH_DIR environment variable.
inline std::string& bench_dir_override()
{
    static std::string dir;
    return dir;
}

/// \brief Recognize the shared `--bench-dir=<path>` flag of the
/// JSON-writing benches.  Returns true (and records the override) when
/// `arg` is that flag with a non-empty path; false otherwise (an empty
/// `--bench-dir=` falls through to the caller's usage/exit path rather
/// than silently writing to the default directory).
inline bool parse_bench_dir_flag(const char* arg)
{
    constexpr const char key[] = "--bench-dir=";
    constexpr std::size_t len = sizeof key - 1;
    if (std::strncmp(arg, key, len) != 0 || arg[len] == '\0') {
        return false;
    }
    bench_dir_override() = arg + len;
    return true;
}

/// Where a bench writes its BENCH_*.json telemetry: the --bench-dir=
/// flag when given, else OTF_BENCH_DIR when set (CI points it at the
/// build directory and archives the files), otherwise the current
/// working directory.
inline std::string bench_output_path(const char* filename)
{
    if (!bench_dir_override().empty()) {
        return bench_dir_override() + "/" + filename;
    }
    const char* dir = std::getenv("OTF_BENCH_DIR");
    if (dir == nullptr || dir[0] == '\0') {
        return filename;
    }
    return std::string(dir) + "/" + filename;
}

} // namespace otf
