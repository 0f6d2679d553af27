#include "hw/config.hpp"

#include <cstdio>
#include <stdexcept>
#include <string>

namespace otf::hw {

void block_config::validate() const
{
    if (log2_n < 3 || log2_n > 30) {
        throw std::invalid_argument("block_config: log2_n out of [3, 30]");
    }
    if (tests.count() == 0) {
        throw std::invalid_argument("block_config: no tests enabled");
    }
    std::uint16_t supported = 0;
    for (const test_id id : all_tests) {
        supported |= test_set{}.with(id).to_raw();
    }
    if ((tests.to_raw() & ~supported) != 0) {
        char mask[8];
        std::snprintf(mask, sizeof mask, "0x%04x", tests.to_raw());
        throw std::invalid_argument(
            std::string("block_config: tests mask ") + mask
            + " enables a test number the platform does not support");
    }
    if (tests.has(test_id::block_frequency)) {
        if (bf_log2_m == 0 || bf_log2_m >= log2_n) {
            throw std::invalid_argument(
                "block_config: block-frequency M must be in (1, n)");
        }
    }
    if (tests.has(test_id::longest_run)) {
        if (lr_log2_m == 0 || lr_log2_m >= log2_n) {
            throw std::invalid_argument(
                "block_config: longest-run M must be in (1, n)");
        }
        if (lr_v_lo >= lr_v_hi) {
            throw std::invalid_argument(
                "block_config: longest-run categories need v_lo < v_hi");
        }
        if (lr_v_hi > (std::uint64_t{1} << lr_log2_m)) {
            throw std::invalid_argument(
                "block_config: longest-run v_hi exceeds the block length");
        }
    }
    const bool any_template = tests.has(test_id::non_overlapping_template)
        || tests.has(test_id::overlapping_template);
    if (any_template) {
        if (template_length == 0 || template_length > 16) {
            throw std::invalid_argument(
                "block_config: template length must be in [1, 16]");
        }
    }
    if (tests.has(test_id::non_overlapping_template)) {
        if (t7_log2_m >= log2_n || (std::uint64_t{1} << t7_log2_m)
                < template_length) {
            throw std::invalid_argument(
                "block_config: non-overlapping block length invalid");
        }
        if (t7_template >> template_length) {
            throw std::invalid_argument(
                "block_config: t7 template wider than template_length");
        }
    }
    if (tests.has(test_id::overlapping_template)) {
        if (t8_log2_m >= log2_n || (std::uint64_t{1} << t8_log2_m)
                < template_length) {
            throw std::invalid_argument(
                "block_config: overlapping block length invalid");
        }
        if (t8_template >> template_length) {
            throw std::invalid_argument(
                "block_config: t8 template wider than template_length");
        }
        if (t8_max_count == 0 || t8_max_count > 15) {
            throw std::invalid_argument(
                "block_config: overlapping max_count must be in [1, 15]");
        }
    }
    const bool serial_like = tests.has(test_id::serial)
        || tests.has(test_id::approximate_entropy);
    if (serial_like) {
        if (serial_m < 3 || serial_m > 8) {
            throw std::invalid_argument(
                "block_config: serial m must be in [3, 8]");
        }
        if (serial_m >= log2_n) {
            throw std::invalid_argument(
                "block_config: serial m must be smaller than log2(n)");
        }
    }
    if (tests.has(test_id::approximate_entropy)
        && !tests.has(test_id::serial)) {
        throw std::invalid_argument(
            "block_config: the approximate-entropy test reuses the serial "
            "test's pattern counters (sharing trick 3); enable test 11 too");
    }
}

} // namespace otf::hw
