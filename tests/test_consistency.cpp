// Tests of the counter cross-consistency checks (the executable form of
// the paper's fault-attack argument): genuine hardware always passes,
// and forging any single transmitted value trips an invariant.
#include "core/consistency.hpp"
#include "core/design_config.hpp"
#include "hw/testing_block.hpp"
#include "trng/sources.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>

namespace {

using namespace otf;

/// A copy of a real register map with a single named value forged (or
/// grounded) -- the model of a probing attack on the bus.
hw::register_map forge(const hw::register_map& genuine,
                       const std::string& victim, std::uint64_t forged)
{
    hw::register_map tampered = genuine;
    tampered.values()[tampered.index_of(victim)] = forged;
    return tampered;
}

class consistency : public ::testing::TestWithParam<std::uint64_t> {
protected:
    void SetUp() override
    {
        cfg_ = core::paper_design(16, core::tier::high);
        block_ = std::make_unique<hw::testing_block>(cfg_);
        trng::ideal_source src(GetParam());
        block_->run(src.generate(cfg_.n()));
    }

    hw::block_config cfg_;
    std::unique_ptr<hw::testing_block> block_;
    sw16::soft_cpu cpu_{16};
};

TEST_P(consistency, genuine_hardware_is_always_consistent)
{
    const auto violations = core::verify_counter_consistency(
        cfg_, block_->registers(), cpu_);
    for (const auto& v : violations) {
        ADD_FAILURE() << v.check << ": " << v.detail;
    }
}

TEST_P(consistency, grounding_the_runs_counter_is_detected)
{
    // The classic probing attack: force one bus value to zero.
    const auto tampered = forge(block_->registers(), "runs.n_runs", 0);
    const auto violations =
        core::verify_counter_consistency(cfg_, tampered, cpu_);
    EXPECT_FALSE(violations.empty());
}

TEST_P(consistency, forging_a_block_count_is_detected)
{
    const auto tampered =
        forge(block_->registers(), "block_frequency.eps[3]", 2048);
    const auto violations =
        core::verify_counter_consistency(cfg_, tampered, cpu_);
    EXPECT_FALSE(violations.empty())
        << "the partition sum no longer matches N_ones";
}

TEST_P(consistency, forging_a_pattern_counter_is_detected)
{
    const auto genuine =
        block_->registers().read_value("serial.nu_m[5]");
    const auto tampered = forge(block_->registers(), "serial.nu_m[5]",
                                static_cast<std::uint64_t>(genuine) + 64);
    const auto violations =
        core::verify_counter_consistency(cfg_, tampered, cpu_);
    EXPECT_FALSE(violations.empty())
        << "both the file total and the marginal identity break";
}

TEST_P(consistency, forging_the_walk_extremum_is_detected)
{
    // Claim the walk never went negative while S_final says otherwise,
    // or shrink S_max below S_final.
    const auto s_final = block_->registers().read_value("cusum.s_final");
    const std::uint64_t forged = (s_final > 0)
        ? static_cast<std::uint64_t>(s_final - 1)
        : static_cast<std::uint64_t>(-1); // S_max = -1 < 0: sign violation
    const auto tampered =
        forge(block_->registers(), "cusum.s_max", forged);
    const auto violations =
        core::verify_counter_consistency(cfg_, tampered, cpu_);
    EXPECT_FALSE(violations.empty());
}

TEST_P(consistency, forging_a_category_counter_is_detected)
{
    const auto genuine =
        block_->registers().read_value("longest_run.nu[2]");
    const auto tampered = forge(block_->registers(), "longest_run.nu[2]",
                                static_cast<std::uint64_t>(genuine) + 3);
    const auto violations =
        core::verify_counter_consistency(cfg_, tampered, cpu_);
    EXPECT_FALSE(violations.empty());
}

TEST_P(consistency, checks_cost_only_adds_and_compares)
{
    sw16::soft_cpu counting(16);
    (void)core::verify_counter_consistency(cfg_, block_->registers(),
                                           counting);
    EXPECT_EQ(counting.counts().mul, 0u);
    EXPECT_EQ(counting.counts().sqr, 0u);
    EXPECT_EQ(counting.counts().lut, 0u);
    EXPECT_GT(counting.counts().add, 0u);
    EXPECT_GT(counting.counts().comp, 0u);
}

INSTANTIATE_TEST_SUITE_P(seeds, consistency,
                         ::testing::Values(3, 17, 101, 4242));

TEST(consistency_marginal_mode, skips_absent_files)
{
    hw::block_config cfg = core::paper_design(16, core::tier::high);
    cfg.serial_transfer_marginals = true;
    hw::testing_block block(cfg);
    trng::ideal_source src(7);
    block.run(src.generate(cfg.n()));
    sw16::soft_cpu cpu(16);
    const auto violations =
        core::verify_counter_consistency(cfg, block.registers(), cpu);
    EXPECT_TRUE(violations.empty());
}

} // namespace
