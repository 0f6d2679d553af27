// Cross-consistency invariants of a finished window's counter values, as
// a test oracle.
//
// The paper's fault-attack argument (Section I-B): a single alarm wire can
// be grounded, but this platform transmits "a set of numerical values".
// Those values are mutually redundant -- the walk's final value bounds its
// extrema and fixes the ones count, block counts partition the ones,
// category counts partition the block count, pattern counts partition n
// and each shorter pattern file is the cyclic marginal of the longer one
// -- so a forged or stuck value breaks an identity.  The kernel-oracle
// sweep (test_kernel_oracle.cpp) holds every finished window of both
// lanes to these identities, and forges one value per invariant to show
// each one fires.
#pragma once

#include "hw/config.hpp"
#include "hw/register_map.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace otf::test {

/// \brief The invariants a finished window's values violate, by name.
/// \param cfg the design point the map was built for
/// \param map the register map after testing_block::finish()
/// \return the names of the violated invariants; empty when consistent
inline std::vector<std::string>
counter_invariant_violations(const hw::block_config& cfg,
                             const hw::register_map& map)
{
    using hw::test_id;
    std::vector<std::string> violated;
    const auto check = [&violated](bool holds, const char* invariant) {
        if (!holds) {
            violated.emplace_back(invariant);
        }
    };
    const auto value = [&map](const char* name) {
        return map.read_value(map.index_of(name));
    };
    // A counter file is `count` consecutive entries from "<name>[0]".
    const auto file = [&map](const std::string& name, std::size_t count) {
        const std::size_t base = map.index_of(name + "[0]");
        std::vector<std::int64_t> values(count);
        for (std::size_t k = 0; k < count; ++k) {
            values[k] = map.read_value(base + k);
        }
        return values;
    };
    const auto sum = [](const std::vector<std::int64_t>& values) {
        std::int64_t total = 0;
        for (const std::int64_t v : values) {
            total += v;
        }
        return total;
    };
    const auto n = static_cast<std::int64_t>(cfg.n());

    // The walk: S_min <= 0 <= S_max, S_min <= S_final <= S_max, and
    // S_final + n = 2 N_ones is even and within [0, 2n].
    const std::int64_t s_final = value("cusum.s_final");
    const std::int64_t s_max = value("cusum.s_max");
    const std::int64_t s_min = value("cusum.s_min");
    check(s_min <= 0 && s_max >= 0, "walk extrema sign");
    check(s_min <= s_final && s_final <= s_max, "walk final within extrema");
    const std::int64_t twice_ones = s_final + n;
    check(twice_ones % 2 == 0 && twice_ones >= 0 && twice_ones <= 2 * n,
          "ones count range");
    const std::int64_t ones = twice_ones / 2;

    // Runs: 1 <= N_runs <= n, and N_runs <= 2 min(N_ones, N_zeros) + 1.
    if (cfg.tests.has(test_id::runs)) {
        const std::int64_t n_runs = value("runs.n_runs");
        check(n_runs >= 1 && n_runs <= n, "runs range");
        check(n_runs <= 2 * std::min(ones, n - ones) + 1,
              "runs within ones bound");
    }

    // Block frequency: each eps_i in [0, M], and the blocks partition the
    // ones.
    if (cfg.tests.has(test_id::block_frequency)) {
        const std::int64_t m = std::int64_t{1} << cfg.bf_log2_m;
        const auto eps = file("block_frequency.eps",
                              std::size_t{1} << (cfg.log2_n - cfg.bf_log2_m));
        check(std::all_of(eps.begin(), eps.end(),
                          [m](std::int64_t e) { return e >= 0 && e <= m; }),
              "block ones range");
        check(sum(eps) == ones, "blocks partition the ones");
    }

    // Category counters partition the block count.
    if (cfg.tests.has(test_id::longest_run)) {
        const auto nu =
            file("longest_run.nu", cfg.lr_v_hi - cfg.lr_v_lo + 1);
        check(sum(nu) == n >> cfg.lr_log2_m,
              "longest-run categories partition the blocks");
    }
    if (cfg.tests.has(test_id::overlapping_template)) {
        const auto nu = file("overlapping.nu_temp", cfg.t8_max_count + 1);
        check(sum(nu) == n >> cfg.t8_log2_m,
              "overlapping categories partition the blocks");
    }

    // Serial: every mapped pattern file counts the n cyclic positions,
    // and each shorter file is the marginal of the longer one,
    // nu_{k-1}[p] = nu_k[2p] + nu_k[2p+1].
    if (cfg.tests.has(test_id::serial)) {
        const unsigned m = cfg.serial_m;
        std::vector<std::vector<std::int64_t>> files{
            file("serial.nu_m", std::size_t{1} << m)};
        if (!cfg.serial_transfer_marginals) {
            files.push_back(file("serial.nu_m1", std::size_t{1} << (m - 1)));
            files.push_back(file("serial.nu_m2", std::size_t{1} << (m - 2)));
        }
        bool partitions = true;
        bool marginals = true;
        for (std::size_t f = 0; f < files.size(); ++f) {
            partitions = partitions && sum(files[f]) == n;
            if (f == 0) {
                continue;
            }
            for (std::size_t p = 0; p < files[f].size(); ++p) {
                marginals = marginals
                    && files[f][p]
                        == files[f - 1][2 * p] + files[f - 1][2 * p + 1];
            }
        }
        check(partitions, "patterns partition n");
        check(marginals, "pattern marginal identity");
    }
    return violated;
}

} // namespace otf::test
