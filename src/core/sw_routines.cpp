#include "core/sw_routines.hpp"

#include "sw16/pwl_xlogx.hpp"

#include <algorithm>
#include <bit>
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
            // derived in software (derive_marginals()) into slots past
            // the map.
            b.nu_m1 = {next, std::size_t{1} << (m - 1)};
            b.nu_m2 = {next + b.nu_m1.count, std::size_t{1} << (m - 2)};
            next = b.nu_m2.base + b.nu_m2.count;
        } else {
            b.nu_m1 = file("serial.nu_m1", std::size_t{1} << (m - 1));
            b.nu_m2 = file("serial.nu_m2", std::size_t{1} << (m - 2));
        }
    }

    // native_cpu::trace() counts a routine's negative abs() operands,
    // which fixes their SUB charges only where the operands share one
    // width.  Frequency and runs take one abs(); block frequency and
    // non-overlapping take one per file element, as wide as the element.
    const auto mixed_widths = [&map](const file_slots& f) {
        for (std::size_t k = 1; k < f.count; ++k) {
            if (map.entry(f.base + k).width != map.entry(f.base).width) {
                return true;
            }
        }
        return false;
    };
    if (tests.has(test_id::block_frequency) && mixed_widths(b.eps)) {
        b.unkeyed.with(test_id::block_frequency);
    }
    if (tests.has(test_id::non_overlapping_template)
        && mixed_widths(b.t7_w)) {
        b.unkeyed.with(test_id::non_overlapping_template);
    }

    store_.assign(next, reg{});
    reads_.clear();
    for (const hw::map_entry& e : map.entries()) {
        store_[reads_.size()].bits = e.width;
        reads_.push_back({64 - e.width, e.is_signed});
    }
    std::size_t enabled = 0;
    for (const test_id id : hw::all_tests) {
        enabled += tests.has(id) ? 1 : 0;
    }
    memo_.assign(memo_slots * enabled, memo_slot{});
    memo_word_bits_ = 0; // price() sizes the marginals and empties the memo
    b.layout = map.layout();
    binding_ = b;
}

template <typename Cpu>
void software_runner::derive_marginals(Cpu& cpu) const
{
    // The shorter serial counts are the cyclic marginals of the m-bit
    // counts: nu_{k-1}[p] = nu_k[2p] + nu_k[2p+1].
    const auto derive = [&](const file_slots& from, const file_slots& to) {
        for (std::size_t p = 0; p < to.count; ++p) {
            Cpu::store(store_[to.base + p],
                       cpu.add(Cpu::load(store_[from.base + 2 * p]),
                               Cpu::load(store_[from.base + 2 * p + 1])));
        }
    };
    derive(binding_.nu_m, binding_.nu_m1);
    derive(binding_.nu_m1, binding_.nu_m2);
}

void software_runner::price(unsigned word_bits) const
{
    // The collection pass charges the same on every window of a binding:
    // one multi-word peripheral read per mapped value and, with the
    // interface-reduction option, one ADD per derived marginal (which
    // also sizes the marginals' registers).
    soft_cpu cpu(word_bits);
    for (std::size_t i = 0; i < binding_.mapped; ++i) {
        cpu.charge_read(store_[i].bits);
    }
    if (binding_.derive_marginals) {
        derive_marginals(cpu);
    }
    collect_ops_ = cpu.counts();
    std::fill(memo_.begin(), memo_.end(), memo_slot{});
    memo_word_bits_ = word_bits;
}

void software_runner::collect(const hw::register_map& map) const
{
    // The values of the collection pass (price() charges it): each mapped
    // value with its bits above the width dropped and signed values
    // sign-extended (as register_map::read_value does), then the derived
    // marginals.
    const std::span<const std::uint64_t> values = map.values();
    for (std::size_t i = 0; i < binding_.mapped; ++i) {
        const value_read& r = reads_[i];
        const std::uint64_t top = values[i] << r.shift;
        store_[i].value = r.is_signed
            ? static_cast<std::int64_t>(top) >> r.shift
            : static_cast<std::int64_t>(top >> r.shift);
    }
    if (binding_.derive_marginals) {
        sw16::native_cpu cpu;
        derive_marginals(cpu);
    }
}

software_result software_runner::run(const hw::register_map& map,
                                     soft_cpu& cpu) const
{
    if (map.layout() != binding_.layout) {
        bind(map);
    }
    if (cpu.word_bits() != memo_word_bits_) {
        price(cpu.word_bits());
    }
    collect(map);

    software_result result;
    sw16::op_counts ops = collect_ops_;
    bool all_pass = true;
    std::size_t count = 0;
    memo_slot* slots = memo_.data();
    for (const hw::test_id id : hw::all_tests) {
        if (!cfg_.tests.has(id)) {
            continue;
        }
        test_verdict& verdict = result.verdicts.items_[count++];
        verdict = run_charged(
            id, binding_.unkeyed.has(id) ? nullptr : slots, ops);
        slots += memo_slots;
        verdict.id = id;
        verdict.name = hw::to_string(id);
        all_pass = all_pass && verdict.pass;
    }
    result.verdicts.size_ = count;
    result.all_pass = all_pass;
    result.total_ops = ops;
    cpu.charge(ops);
    return result;
}

// ---------------------------------------------------------------- test 1 --
template <typename Cpu>
test_verdict software_runner::run_frequency(Cpu& cpu) const
{
    // |S_final| <= precomputed sqrt(2n) erfc^-1(alpha).  S_final comes from
    // the cusum walk (sharing trick 1: no ones-counter exists in hardware).
    const auto magnitude = cpu.abs(Cpu::load(store_[binding_.s_final]));
    test_verdict verdict;
    verdict.statistic = Cpu::value_of(magnitude);
    verdict.bound = cv_.t1_max_deviation;
    verdict.pass = cpu.less_equal(magnitude, Cpu::load(consts_.t1_bound));
    return verdict;
}

// ---------------------------------------------------------------- test 2 --
template <typename Cpu>
test_verdict software_runner::run_block_frequency(Cpu& cpu) const
{
    // sum (2 eps_i - M)^2 <= M * chi2_crit(N dof).
    auto acc = Cpu::constant(0, 1);
    for (const reg eps : file(binding_.eps)) {
        auto d = cpu.shift_left(Cpu::load(eps), 1);
        d = cpu.sub(d, Cpu::load(consts_.t2_block_len));
        d = cpu.abs(d);
        acc = cpu.add(acc, cpu.sqr(d));
    }
    test_verdict verdict;
    verdict.statistic = Cpu::value_of(acc);
    verdict.bound = cv_.t2_sum_bound;
    verdict.pass = cpu.less_equal(acc, Cpu::load(consts_.t2_bound));
    return verdict;
}

// ---------------------------------------------------------------- test 3 --
template <typename Cpu>
test_verdict software_runner::run_runs(Cpu& cpu) const
{
    test_verdict verdict;

    // Frequency prerequisite on the walk's final value.
    const auto s = Cpu::load(store_[binding_.s_final]);
    const auto magnitude = cpu.abs(s);
    if (cpu.greater_equal(magnitude, Cpu::load(consts_.t3_prereq))) {
        verdict.statistic = Cpu::value_of(magnitude);
        verdict.bound = cv_.t3_prereq_deviation;
        verdict.pass = false;
        return verdict;
    }

    // N_ones = (S_final + n) / 2 -- derived, not counted (trick 1).
    auto ones = cpu.add(s, Cpu::load(consts_.t3_n));
    ones = cpu.shift_right(ones, 1);

    // Binary search for the stored N_ones interval (the paper: "first
    // checks the interval where N_ones belongs").
    std::size_t lo = 0;
    std::size_t hi = cv_.t3_intervals.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cpu.greater(ones, Cpu::load(consts_.t3_ones_hi[mid]))) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    const auto runs = Cpu::load(store_[binding_.n_runs]);
    const bool above =
        cpu.greater_equal(runs, Cpu::load(consts_.t3_runs_lo[lo]));
    const bool below =
        cpu.less_equal(runs, Cpu::load(consts_.t3_runs_hi[lo]));
    verdict.statistic = Cpu::value_of(runs);
    verdict.bound = cv_.t3_intervals[lo].runs_hi;
    verdict.pass = above && below;
    return verdict;
}

// ---------------------------------------------------------------- test 4 --
template <typename Cpu>
test_verdict software_runner::run_longest_run(Cpu& cpu) const
{
    // sum nu_i^2 w_i <= 2^q N (crit + N), w_i = round(2^q / pi_i).
    const std::span<const reg> nu = file(binding_.lr_nu);
    auto acc = Cpu::constant(0, 1);
    for (std::size_t c = 0; c < consts_.t4_weights.size(); ++c) {
        const auto square = cpu.sqr(Cpu::load(nu[c]));
        acc = cpu.add(acc,
                      cpu.mul(square, Cpu::load(consts_.t4_weights[c])));
    }
    test_verdict verdict;
    verdict.statistic = Cpu::value_of(acc);
    verdict.bound = cv_.t4_sum_bound;
    verdict.pass = cpu.less_equal(acc, Cpu::load(consts_.t4_bound));
    return verdict;
}

// ---------------------------------------------------------------- test 7 --
template <typename Cpu>
test_verdict software_runner::run_non_overlapping(Cpu& cpu) const
{
    // sum (2^m W_i - (M - m + 1))^2 <= 2^{2m} sigma^2 crit.
    auto acc = Cpu::constant(0, 1);
    for (const reg w : file(binding_.t7_w)) {
        auto d = cpu.shift_left(Cpu::load(w), cfg_.template_length);
        d = cpu.sub(d, Cpu::load(consts_.t7_mu));
        d = cpu.abs(d);
        acc = cpu.add(acc, cpu.sqr(d));
    }
    test_verdict verdict;
    verdict.statistic = Cpu::value_of(acc);
    verdict.bound = cv_.t7_sum_bound;
    verdict.pass = cpu.less_equal(acc, Cpu::load(consts_.t7_bound));
    return verdict;
}

// ---------------------------------------------------------------- test 8 --
template <typename Cpu>
test_verdict software_runner::run_overlapping(Cpu& cpu) const
{
    const std::span<const reg> nu = file(binding_.t8_nu);
    auto acc = Cpu::constant(0, 1);
    for (std::size_t c = 0; c < consts_.t8_weights.size(); ++c) {
        const auto square = cpu.sqr(Cpu::load(nu[c]));
        acc = cpu.add(acc,
                      cpu.mul(square, Cpu::load(consts_.t8_weights[c])));
    }
    test_verdict verdict;
    verdict.statistic = Cpu::value_of(acc);
    verdict.bound = cv_.t8_sum_bound;
    verdict.pass = cpu.less_equal(acc, Cpu::load(consts_.t8_bound));
    return verdict;
}

// --------------------------------------------------------------- helpers --
namespace {

/// Sum of squares over a counter file.
template <typename Cpu>
typename Cpu::value sum_of_squares(Cpu& cpu, std::span<const reg> file)
{
    auto acc = Cpu::constant(0, 1);
    for (const reg nu : file) {
        acc = cpu.add(acc, cpu.sqr(Cpu::load(nu)));
    }
    return acc;
}

} // namespace

// --------------------------------------------------------------- test 11 --
template <typename Cpu>
test_verdict software_runner::run_serial(Cpu& cpu) const
{
    const unsigned m = cfg_.serial_m;
    const auto sum_m = sum_of_squares(cpu, file(binding_.nu_m));
    const auto sum_m1 = sum_of_squares(cpu, file(binding_.nu_m1));
    const auto sum_m2 = sum_of_squares(cpu, file(binding_.nu_m2));

    // n del-psi^2   = 2^m sum_m - 2^{m-1} sum_m1
    // n del2-psi^2  = 2^m sum_m - 2^m sum_m1 + 2^{m-2} sum_m2
    const auto sum_m_scaled = cpu.shift_left(sum_m, m);
    const auto del1 =
        cpu.sub(sum_m_scaled, cpu.shift_left(sum_m1, m - 1));
    auto del2 = cpu.sub(sum_m_scaled, cpu.shift_left(sum_m1, m));
    del2 = cpu.add(del2, cpu.shift_left(sum_m2, m - 2));

    const bool pass1 = cpu.less_equal(del1, Cpu::load(consts_.t11_bound1));
    const bool pass2 = cpu.less_equal(del2, Cpu::load(consts_.t11_bound2));

    test_verdict verdict;
    verdict.statistic = Cpu::value_of(del1);
    verdict.bound = cv_.t11_del1_bound;
    verdict.pass = pass1 && pass2;
    return verdict;
}

// --------------------------------------------------------------- test 12 --
template <typename Cpu>
test_verdict software_runner::run_approximate_entropy(Cpu& cpu) const
{
    // ApEn(m-1) = phi_{m-1} - phi_m = sum g(nu_m / n) - sum g(nu_{m-1} / n)
    // with g(x) = -x ln x evaluated by the 32-segment PWL table; the
    // division by n is a pure shift because n is a power of two.
    const auto phi_sum = [&](std::span<const reg> counts) {
        auto acc = Cpu::constant(0, 1);
        for (const reg nu : counts) {
            const auto x_q16 = cfg_.log2_n >= 16
                ? cpu.shift_right(Cpu::load(nu), cfg_.log2_n - 16)
                : cpu.shift_left(Cpu::load(nu), 16 - cfg_.log2_n);
            acc = cpu.add(acc, sw16::pwl_xlogx(cpu, x_q16));
        }
        return acc;
    };
    const auto a = phi_sum(file(binding_.nu_m));
    const auto b = phi_sum(file(binding_.nu_m1));
    const auto apen_q16 = cpu.sub(a, b);
    test_verdict verdict;
    verdict.statistic = Cpu::value_of(apen_q16);
    verdict.bound = cv_.t12_apen_min_q16;
    verdict.pass =
        cpu.greater_equal(apen_q16, Cpu::load(consts_.t12_bound));
    return verdict;
}

// --------------------------------------------------------------- test 13 --
template <typename Cpu>
test_verdict software_runner::run_cumulative_sums(Cpu& cpu) const
{
    // Forward mode:  z = max(S_max, -S_min).
    // Backward mode: z = max(S_max - S_final, S_final - S_min) -- the
    // Table II formula; both modes from the same three registers.
    const auto s_final = Cpu::load(store_[binding_.s_final]);
    const auto s_max = Cpu::load(store_[binding_.s_max]);
    const auto s_min = Cpu::load(store_[binding_.s_min]);

    const auto neg_min = cpu.sub(Cpu::constant(0, 1), s_min);
    const auto z_fwd = cpu.max(s_max, neg_min);
    const auto z_rev =
        cpu.max(cpu.sub(s_max, s_final), cpu.sub(s_final, s_min));

    const auto bound = Cpu::load(consts_.t13_bound);
    const bool pass_fwd = cpu.less_equal(z_fwd, bound);
    const bool pass_rev = cpu.less_equal(z_rev, bound);

    test_verdict verdict;
    verdict.statistic =
        std::max(Cpu::value_of(z_fwd), Cpu::value_of(z_rev));
    verdict.bound = cv_.t13_z_bound;
    verdict.pass = pass_fwd && pass_rev;
    return verdict;
}

// Inlined into run_charged(), so the native CPU's decision record stays in
// registers instead of going through memory at every comparison.
template <typename Cpu>
[[gnu::always_inline]] inline test_verdict
software_runner::run_test(hw::test_id id, Cpu& cpu) const
{
    using hw::test_id;
    switch (id) {
    case test_id::frequency:
        return run_frequency(cpu);
    case test_id::block_frequency:
        return run_block_frequency(cpu);
    case test_id::runs:
        return run_runs(cpu);
    case test_id::longest_run:
        return run_longest_run(cpu);
    case test_id::non_overlapping_template:
        return run_non_overlapping(cpu);
    case test_id::overlapping_template:
        return run_overlapping(cpu);
    case test_id::serial:
        return run_serial(cpu);
    case test_id::approximate_entropy:
        return run_approximate_entropy(cpu);
    case test_id::cumulative_sums:
        return run_cumulative_sums(cpu);
    }
    throw std::logic_error("software_runner: no routine for the test");
}

test_verdict software_runner::run_charged(hw::test_id id, memo_slot* slots,
                                          sw16::op_counts& ops) const
{
    // Every operand width is fixed by the binding, so the decisions the
    // native run took (its trace) and the word width decide the charges.
    std::uint64_t trace = 0;
    memo_slot* slot = nullptr;
    if (slots != nullptr) {
        sw16::native_cpu native;
        const test_verdict verdict = run_test(id, native);
        trace = native.trace();
        constexpr unsigned hash_shift = 64 - std::countr_zero(memo_slots);
        if (trace != 0) {
            slot = &slots[(trace * 0x9e3779b97f4a7c15u) >> hash_shift];
            if (slot->trace == trace) [[likely]] {
                ops += slot->ops;
                return verdict;
            }
        }
    }
    // A path the memo lacks, one too long to key, or a routine the trace
    // does not key: charge it.
    soft_cpu accounted(memo_word_bits_);
    const test_verdict charged = run_test(id, accounted);
    ops += accounted.counts();
    if (slot != nullptr) {
        *slot = {trace, accounted.counts()};
    }
    return charged;
}

} // namespace otf::core
