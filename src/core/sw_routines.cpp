#include "core/sw_routines.hpp"

#include "sw16/pwl_xlogx.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace otf::core {

using sw16::bits_for_signed;
using sw16::reg;
using sw16::soft_cpu;

const test_verdict* software_result::find(hw::test_id id) const
{
    for (const test_verdict& v : verdicts) {
        if (v.id == id) {
            return &v;
        }
    }
    return nullptr;
}

namespace {

/// A program constant in the narrowest two's-complement register.
reg immediate(std::int64_t value)
{
    return soft_cpu::constant(value, bits_for_signed(value));
}

std::vector<reg> immediates(const std::vector<std::int64_t>& values)
{
    std::vector<reg> regs;
    regs.reserve(values.size());
    for (const std::int64_t v : values) {
        regs.push_back(immediate(v));
    }
    return regs;
}

} // namespace

software_runner::software_runner(hw::block_config cfg, critical_values cv)
    : cfg_(std::move(cfg)), cv_(std::move(cv))
{
    cfg_.validate();
    require_bounds_for(cfg_, cv_);
    consts_.t1_bound = immediate(cv_.t1_max_deviation);
    consts_.t2_block_len = immediate(std::int64_t{1} << cfg_.bf_log2_m);
    consts_.t2_bound = immediate(cv_.t2_sum_bound);
    consts_.t3_prereq = immediate(cv_.t3_prereq_deviation);
    consts_.t3_n = immediate(static_cast<std::int64_t>(cfg_.n()));
    for (const runs_interval& iv : cv_.t3_intervals) {
        consts_.t3_ones_hi.push_back(immediate(iv.ones_hi));
        consts_.t3_runs_lo.push_back(immediate(iv.runs_lo));
        consts_.t3_runs_hi.push_back(immediate(iv.runs_hi));
    }
    consts_.t4_weights = immediates(cv_.t4_weights_q);
    consts_.t4_bound = immediate(cv_.t4_sum_bound);
    consts_.t7_mu = immediate((std::int64_t{1} << cfg_.t7_log2_m)
                         - cfg_.template_length + 1);
    consts_.t7_bound = immediate(cv_.t7_sum_bound);
    consts_.t8_weights = immediates(cv_.t8_weights_q);
    consts_.t8_bound = immediate(cv_.t8_sum_bound);
    consts_.t11_bound1 = immediate(cv_.t11_del1_bound);
    consts_.t11_bound2 = immediate(cv_.t11_del2_bound);
    consts_.t12_bound = immediate(cv_.t12_apen_min_q16);
    consts_.t13_bound = immediate(cv_.t13_z_bound);
}

void software_runner::bind(const hw::register_map& map) const
{
    using hw::test_id;
    const hw::test_set& tests = cfg_.tests;
    const bool serial_any = tests.has(test_id::serial)
        || tests.has(test_id::approximate_entropy);
    const unsigned m = cfg_.serial_m;

    binding b;
    b.mapped = map.size();
    b.derive_marginals = cfg_.serial_transfer_marginals && serial_any;

    // A counter file is `count` consecutive entries named
    // "<name>[0]" .. "<name>[count-1]".
    const auto file = [&map](const std::string& name, std::size_t count) {
        std::string element = name + "[";
        const std::size_t stem = element.size();
        element += "0]";
        const file_slots slots{map.index_of(element), count};
        for (std::size_t k = 1; k < count; ++k) {
            element.resize(stem);
            element += std::to_string(k);
            element += ']';
            const std::size_t i = slots.base + k;
            if (i >= map.size() || map.entry(i).name != element) {
                throw std::out_of_range(
                    "software_runner: value not collected in file order: "
                    + element);
            }
        }
        return slots;
    };
    if (tests.has(test_id::frequency) || tests.has(test_id::runs)
        || tests.has(test_id::cumulative_sums)) {
        b.s_final = map.index_of("cusum.s_final");
    }
    if (tests.has(test_id::runs)) {
        b.n_runs = map.index_of("runs.n_runs");
    }
    if (tests.has(test_id::cumulative_sums)) {
        b.s_max = map.index_of("cusum.s_max");
        b.s_min = map.index_of("cusum.s_min");
    }
    if (tests.has(test_id::block_frequency)) {
        b.eps = file("block_frequency.eps",
                     std::size_t{1} << (cfg_.log2_n - cfg_.bf_log2_m));
    }
    if (tests.has(test_id::longest_run)) {
        b.lr_nu = file("longest_run.nu", cv_.t4_weights_q.size());
    }
    if (tests.has(test_id::non_overlapping_template)) {
        b.t7_w = file("non_overlapping.w",
                      std::size_t{1} << (cfg_.log2_n - cfg_.t7_log2_m));
    }
    if (tests.has(test_id::overlapping_template)) {
        b.t8_nu = file("overlapping.nu_temp", cv_.t8_weights_q.size());
    }
    std::size_t next = b.mapped;
    if (serial_any) {
        b.nu_m = file("serial.nu_m", std::size_t{1} << m);
        if (b.derive_marginals) {
            // Interface-reduction option: the shorter serial counts are
            // derived in software (collect()) into slots past the map.
            b.nu_m1 = {next, std::size_t{1} << (m - 1)};
            b.nu_m2 = {next + b.nu_m1.count, std::size_t{1} << (m - 2)};
            next = b.nu_m2.base + b.nu_m2.count;
        } else {
            b.nu_m1 = file("serial.nu_m1", std::size_t{1} << (m - 1));
            b.nu_m2 = file("serial.nu_m2", std::size_t{1} << (m - 2));
        }
    }

    store_.assign(next, reg{});
    reads_.clear();
    for (const hw::map_entry& e : map.entries()) {
        reads_.push_back({e.width, 64 - e.width, e.is_signed});
    }
    b.layout = map.layout();
    binding_ = b;
}

void software_runner::collect(const hw::register_map& map,
                              soft_cpu& cpu) const
{
    // The collection pass: one multi-word peripheral read per mapped value,
    // its bits above the width dropped and signed values sign-extended (as
    // register_map::read_value does).
    const std::span<const std::uint64_t> values = map.values();
    for (std::size_t i = 0; i < binding_.mapped; ++i) {
        const value_read& r = reads_[i];
        cpu.charge_read(r.width);
        const std::uint64_t top = values[i] << r.shift;
        store_[i] = reg{r.is_signed
                            ? static_cast<std::int64_t>(top) >> r.shift
                            : static_cast<std::int64_t>(top >> r.shift),
                        r.width};
    }

    // Interface-reduction option: the hardware only transfers the m-bit
    // pattern counts; the shorter counts are their cyclic marginals,
    // nu_{k-1}[p] = nu_k[2p] + nu_k[2p+1], derived here at one ADD each.
    if (!binding_.derive_marginals) {
        return;
    }
    const auto derive = [&](const file_slots& from, const file_slots& to) {
        for (std::size_t p = 0; p < to.count; ++p) {
            store_[to.base + p] = cpu.add(store_[from.base + 2 * p],
                                          store_[from.base + 2 * p + 1]);
        }
    };
    derive(binding_.nu_m, binding_.nu_m1);
    derive(binding_.nu_m1, binding_.nu_m2);
}

software_result software_runner::run(const hw::register_map& map,
                                     soft_cpu& cpu) const
{
    if (map.layout() != binding_.layout) {
        bind(map);
    }
    const sw16::op_counts before = cpu.counts();
    collect(map, cpu);

    using routine = test_verdict (software_runner::*)(soft_cpu&) const;
    static constexpr std::pair<hw::test_id, routine> routines[] = {
        {hw::test_id::frequency, &software_runner::run_frequency},
        {hw::test_id::block_frequency, &software_runner::run_block_frequency},
        {hw::test_id::runs, &software_runner::run_runs},
        {hw::test_id::longest_run, &software_runner::run_longest_run},
        {hw::test_id::non_overlapping_template,
         &software_runner::run_non_overlapping},
        {hw::test_id::overlapping_template, &software_runner::run_overlapping},
        {hw::test_id::serial, &software_runner::run_serial},
        {hw::test_id::approximate_entropy,
         &software_runner::run_approximate_entropy},
        {hw::test_id::cumulative_sums, &software_runner::run_cumulative_sums},
    };
    static_assert(std::size(routines) == std::size(hw::all_tests));

    software_result result;
    for (const auto& [id, run_test] : routines) {
        if (!cfg_.tests.has(id)) {
            continue;
        }
        test_verdict verdict = (this->*run_test)(cpu);
        verdict.id = id;
        verdict.name = hw::to_string(id);
        result.all_pass = result.all_pass && verdict.pass;
        result.verdicts.items_[result.verdicts.size_++] = verdict;
    }

    result.total_ops = cpu.counts() - before;
    return result;
}

// ---------------------------------------------------------------- test 1 --
test_verdict software_runner::run_frequency(soft_cpu& cpu) const
{
    // |S_final| <= precomputed sqrt(2n) erfc^-1(alpha).  S_final comes from
    // the cusum walk (sharing trick 1: no ones-counter exists in hardware).
    const reg s = store_[binding_.s_final];
    const reg magnitude = cpu.abs(s);
    test_verdict verdict;
    verdict.statistic = magnitude.value;
    verdict.bound = cv_.t1_max_deviation;
    verdict.pass = cpu.less_equal(magnitude, consts_.t1_bound);
    return verdict;
}

// ---------------------------------------------------------------- test 2 --
test_verdict software_runner::run_block_frequency(soft_cpu& cpu) const
{
    // sum (2 eps_i - M)^2 <= M * chi2_crit(N dof).
    reg acc = soft_cpu::constant(0, 1);
    for (const reg eps : file(binding_.eps)) {
        reg d = cpu.shift_left(eps, 1);
        d = cpu.sub(d, consts_.t2_block_len);
        d = cpu.abs(d);
        const reg square = cpu.sqr(d);
        acc = cpu.add(acc, square);
    }
    test_verdict verdict;
    verdict.statistic = acc.value;
    verdict.bound = cv_.t2_sum_bound;
    verdict.pass = cpu.less_equal(acc, consts_.t2_bound);
    return verdict;
}

// ---------------------------------------------------------------- test 3 --
test_verdict software_runner::run_runs(soft_cpu& cpu) const
{
    test_verdict verdict;

    // Frequency prerequisite on the walk's final value.
    const reg s = store_[binding_.s_final];
    const reg magnitude = cpu.abs(s);
    if (cpu.greater_equal(magnitude, consts_.t3_prereq)) {
        verdict.statistic = magnitude.value;
        verdict.bound = cv_.t3_prereq_deviation;
        verdict.pass = false;
        return verdict;
    }

    // N_ones = (S_final + n) / 2 -- derived, not counted (trick 1).
    reg ones = cpu.add(s, consts_.t3_n);
    ones = cpu.shift_right(ones, 1);

    // Binary search for the stored N_ones interval (the paper: "first
    // checks the interval where N_ones belongs").
    std::size_t lo = 0;
    std::size_t hi = cv_.t3_intervals.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cpu.greater(ones, consts_.t3_ones_hi[mid])) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    const reg runs = store_[binding_.n_runs];
    const bool above = cpu.greater_equal(runs, consts_.t3_runs_lo[lo]);
    const bool below = cpu.less_equal(runs, consts_.t3_runs_hi[lo]);
    verdict.statistic = runs.value;
    verdict.bound = cv_.t3_intervals[lo].runs_hi;
    verdict.pass = above && below;
    return verdict;
}

// ---------------------------------------------------------------- test 4 --
test_verdict software_runner::run_longest_run(soft_cpu& cpu) const
{
    // sum nu_i^2 w_i <= 2^q N (crit + N), w_i = round(2^q / pi_i).
    reg acc = soft_cpu::constant(0, 1);
    for (std::size_t c = 0; c < cv_.t4_weights_q.size(); ++c) {
        const reg nu = file(binding_.lr_nu)[c];
        const reg square = cpu.sqr(nu);
        const reg term = cpu.mul(square, consts_.t4_weights[c]);
        acc = cpu.add(acc, term);
    }
    test_verdict verdict;
    verdict.statistic = acc.value;
    verdict.bound = cv_.t4_sum_bound;
    verdict.pass = cpu.less_equal(acc, consts_.t4_bound);
    return verdict;
}

// ---------------------------------------------------------------- test 7 --
test_verdict software_runner::run_non_overlapping(soft_cpu& cpu) const
{
    // sum (2^m W_i - (M - m + 1))^2 <= 2^{2m} sigma^2 crit.
    reg acc = soft_cpu::constant(0, 1);
    for (const reg w : file(binding_.t7_w)) {
        reg d = cpu.shift_left(w, cfg_.template_length);
        d = cpu.sub(d, consts_.t7_mu);
        d = cpu.abs(d);
        const reg square = cpu.sqr(d);
        acc = cpu.add(acc, square);
    }
    test_verdict verdict;
    verdict.statistic = acc.value;
    verdict.bound = cv_.t7_sum_bound;
    verdict.pass = cpu.less_equal(acc, consts_.t7_bound);
    return verdict;
}

// ---------------------------------------------------------------- test 8 --
test_verdict software_runner::run_overlapping(soft_cpu& cpu) const
{
    reg acc = soft_cpu::constant(0, 1);
    for (std::size_t c = 0; c < cv_.t8_weights_q.size(); ++c) {
        const reg nu = file(binding_.t8_nu)[c];
        const reg square = cpu.sqr(nu);
        const reg term = cpu.mul(square, consts_.t8_weights[c]);
        acc = cpu.add(acc, term);
    }
    test_verdict verdict;
    verdict.statistic = acc.value;
    verdict.bound = cv_.t8_sum_bound;
    verdict.pass = cpu.less_equal(acc, consts_.t8_bound);
    return verdict;
}

// --------------------------------------------------------------- helpers --
namespace {

/// Sum of squares over a counter file.
reg sum_of_squares(soft_cpu& cpu, std::span<const reg> file)
{
    reg acc = soft_cpu::constant(0, 1);
    for (const reg nu : file) {
        const reg square = cpu.sqr(nu);
        acc = cpu.add(acc, square);
    }
    return acc;
}

} // namespace

// --------------------------------------------------------------- test 11 --
test_verdict software_runner::run_serial(soft_cpu& cpu) const
{
    const unsigned m = cfg_.serial_m;
    const reg sum_m = sum_of_squares(cpu, file(binding_.nu_m));
    const reg sum_m1 = sum_of_squares(cpu, file(binding_.nu_m1));
    const reg sum_m2 = sum_of_squares(cpu, file(binding_.nu_m2));

    // n del-psi^2   = 2^m sum_m - 2^{m-1} sum_m1
    // n del2-psi^2  = 2^m sum_m - 2^m sum_m1 + 2^{m-2} sum_m2
    const reg sum_m_scaled = cpu.shift_left(sum_m, m);
    const reg del1 =
        cpu.sub(sum_m_scaled, cpu.shift_left(sum_m1, m - 1));
    reg del2 = cpu.sub(sum_m_scaled, cpu.shift_left(sum_m1, m));
    del2 = cpu.add(del2, cpu.shift_left(sum_m2, m - 2));

    const bool pass1 = cpu.less_equal(del1, consts_.t11_bound1);
    const bool pass2 = cpu.less_equal(del2, consts_.t11_bound2);

    test_verdict verdict;
    verdict.statistic = del1.value;
    verdict.bound = cv_.t11_del1_bound;
    verdict.pass = pass1 && pass2;
    return verdict;
}

// --------------------------------------------------------------- test 12 --
test_verdict software_runner::run_approximate_entropy(soft_cpu& cpu) const
{
    // ApEn(m-1) = phi_{m-1} - phi_m = sum g(nu_m / n) - sum g(nu_{m-1} / n)
    // with g(x) = -x ln x evaluated by the 32-segment PWL table; the
    // division by n is a pure shift because n is a power of two.
    const auto to_q16 = [&](reg nu) {
        if (cfg_.log2_n >= 16) {
            return cpu.shift_right(nu, cfg_.log2_n - 16);
        }
        return cpu.shift_left(nu, 16 - cfg_.log2_n);
    };
    const auto phi_sum = [&](std::span<const reg> counts) {
        reg acc = soft_cpu::constant(0, 1);
        for (const reg nu : counts) {
            const reg g = sw16::pwl_xlogx(cpu, to_q16(nu));
            acc = cpu.add(acc, g);
        }
        return acc;
    };
    const reg a = phi_sum(file(binding_.nu_m));
    const reg b = phi_sum(file(binding_.nu_m1));
    const reg apen_q16 = cpu.sub(a, b);
    test_verdict verdict;
    verdict.statistic = apen_q16.value;
    verdict.bound = cv_.t12_apen_min_q16;
    verdict.pass = cpu.greater_equal(apen_q16, consts_.t12_bound);
    return verdict;
}

// --------------------------------------------------------------- test 13 --
test_verdict software_runner::run_cumulative_sums(soft_cpu& cpu) const
{
    // Forward mode:  z = max(S_max, -S_min).
    // Backward mode: z = max(S_max - S_final, S_final - S_min) -- the
    // Table II formula; both modes from the same three registers.
    const reg s_final = store_[binding_.s_final];
    const reg s_max = store_[binding_.s_max];
    const reg s_min = store_[binding_.s_min];

    const reg zero = soft_cpu::constant(0, 1);
    const reg neg_min = cpu.sub(zero, s_min);
    const reg z_fwd = cpu.max(s_max, neg_min);
    const reg z_rev =
        cpu.max(cpu.sub(s_max, s_final), cpu.sub(s_final, s_min));

    const bool pass_fwd = cpu.less_equal(z_fwd, consts_.t13_bound);
    const bool pass_rev = cpu.less_equal(z_rev, consts_.t13_bound);

    test_verdict verdict;
    verdict.statistic = std::max(z_fwd.value, z_rev.value);
    verdict.bound = cv_.t13_z_bound;
    verdict.pass = pass_fwd && pass_rev;
    return verdict;
}

} // namespace otf::core
