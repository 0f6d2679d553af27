#include "hw/sliced_block.hpp"

#include "base/bits.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace otf::hw {

namespace {

/// Add a 0/1 plane into a vertical ripple-carry counter: bit i of
/// `count[w]` is bit w of channel i's value.  The carry chain exits as
/// soon as no channel propagates, so the amortized cost is ~2 planes.
void add_plane(std::uint64_t* count, unsigned width, std::uint64_t mask)
{
    for (unsigned w = 0; mask != 0 && w < width; ++w) {
        const std::uint64_t t = count[w];
        count[w] = t ^ mask;
        mask &= t;
    }
}

/// Add a sliced multi-bit addend (`value[w]` holds bit w of every
/// channel's addend) into a vertical counter: one ripple-carry add
/// advances 64 channel counters by 64 different amounts.  Exits once the
/// addend planes are exhausted and no carry is left.
void add_sliced_values(std::uint64_t* count, unsigned width,
                       const std::uint64_t* value, unsigned vwidth)
{
    std::uint64_t carry = 0;
    for (unsigned w = 0; w < width; ++w) {
        if (w >= vwidth && carry == 0) {
            return;
        }
        const std::uint64_t a = count[w];
        const std::uint64_t b = w < vwidth ? value[w] : 0;
        count[w] = a ^ b ^ carry;
        carry = (a & b) | (carry & (a ^ b));
    }
}

/// Per-channel mask of counter >= bound (one sliced magnitude compare).
std::uint64_t ge_const(const std::uint64_t* count, unsigned width,
                       std::uint64_t bound)
{
    if (width < 64 && (bound >> width) != 0) {
        return 0; // the counter cannot represent the bound
    }
    std::uint64_t gt = 0;
    std::uint64_t eq = ~std::uint64_t{0};
    for (unsigned w = width; w-- > 0;) {
        const std::uint64_t b =
            ((bound >> w) & 1u) != 0 ? ~std::uint64_t{0} : 0;
        gt |= eq & count[w] & ~b;
        eq &= ~(count[w] ^ b);
    }
    return gt | eq;
}

/// Per-channel mask of a >= b for two equally wide vertical counters.
std::uint64_t ge_sliced(const std::uint64_t* a, const std::uint64_t* b,
                        unsigned width)
{
    std::uint64_t gt = 0;
    std::uint64_t eq = ~std::uint64_t{0};
    for (unsigned w = width; w-- > 0;) {
        gt |= eq & a[w] & ~b[w];
        eq &= ~(a[w] ^ b[w]);
    }
    return gt | eq;
}

} // namespace

void sliced_config::validate() const
{
    if (n < 64 || n % 64 != 0) {
        throw std::invalid_argument(
            "sliced_config: n must be a multiple of 64, at least 64 (got "
            + std::to_string(n) + ")");
    }
    if (rct && rct_cutoff < 2) {
        throw std::invalid_argument(
            "sliced_config: rct_cutoff must be at least 2");
    }
    if (apt) {
        if (apt_log2_window < 6 || apt_log2_window > 16) {
            throw std::invalid_argument(
                "sliced_config: apt window must be 2^6..2^16 bits (the "
                "sliced lane advances in 64-step chunks)");
        }
        if (apt_cutoff < 2
            || (std::uint64_t{apt_cutoff} >> apt_log2_window) != 0) {
            throw std::invalid_argument(
                "sliced_config: apt_cutoff must fit inside the window");
        }
    }
}

sliced_block::sliced_block(sliced_config cfg) : cfg_(cfg)
{
    cfg_.validate();
    stat_width_ = static_cast<unsigned>(std::bit_width(cfg_.n));
    ones_count_.assign(stat_width_, 0);
    runs_count_.assign(stat_width_, 0);
    if (cfg_.rct) {
        // Same width as repetition_count_hw's saturating run counter, so
        // the saturation point matches register for register.
        rct_width_ =
            static_cast<unsigned>(std::bit_width(cfg_.rct_cutoff)) + 1;
        rct_run_.assign(rct_width_, 0);
        rct_longest_.assign(rct_width_, 0);
    }
    if (cfg_.apt) {
        apt_width_ = cfg_.apt_log2_window + 1;
        apt_count_.assign(apt_width_, 0);
    }
}

void sliced_block::step(std::uint64_t plane)
{
    if (window_bits_ >= cfg_.n) {
        throw std::logic_error(
            "sliced_block: window already holds n bits; restart() first");
    }

    // Frequency: one vertical add counts 64 ones counters.
    add_plane(ones_count_.data(), stat_width_, plane);

    // Runs: the first bit opens run one on every channel; afterwards a
    // transition plane (bit differs from the channel's previous bit)
    // opens the next run -- exactly runs_hw::consume, 64 channels wide.
    const std::uint64_t transitions =
        runs_primed_ ? plane ^ runs_prev_ : ~std::uint64_t{0};
    add_plane(runs_count_.data(), stat_width_, transitions);
    runs_prev_ = plane;
    runs_primed_ = true;

    if (cfg_.rct) {
        // Channels whose bit repeats keep their run; the rest restart at
        // zero (one AND) before the shared +1 below.
        const std::uint64_t same =
            rct_primed_ ? ~(plane ^ rct_prev_) : 0;
        for (unsigned w = 0; w < rct_width_; ++w) {
            rct_run_[w] &= same;
        }
        // +1 on all 64 channels; a carry out of the top plane means the
        // channel sat at max and wrapped -- pin it back (saturation).
        std::uint64_t carry = ~std::uint64_t{0};
        for (unsigned w = 0; w < rct_width_; ++w) {
            const std::uint64_t t = rct_run_[w];
            rct_run_[w] = t ^ carry;
            carry &= t;
        }
        if (carry != 0) {
            for (unsigned w = 0; w < rct_width_; ++w) {
                rct_run_[w] |= carry;
            }
        }
        const std::uint64_t grew =
            ge_sliced(rct_run_.data(), rct_longest_.data(), rct_width_);
        for (unsigned w = 0; w < rct_width_; ++w) {
            rct_longest_[w] =
                (rct_run_[w] & grew) | (rct_longest_[w] & ~grew);
        }
        rct_alarm_ |=
            ge_const(rct_run_.data(), rct_width_, cfg_.rct_cutoff);
        rct_prev_ = plane;
        rct_primed_ = true;
    }

    if (cfg_.apt) {
        const std::uint64_t window_mask =
            (std::uint64_t{1} << cfg_.apt_log2_window) - 1;
        if ((total_bits_ & window_mask) == 0) {
            // Close the previous window before the reference re-latches:
            // the count is monotone inside a window, so one comparison
            // here (and lazily in the accessor) equals per-step checks.
            apt_check();
            apt_reference_ = plane;
            for (unsigned w = 0; w < apt_width_; ++w) {
                apt_count_[w] = 0;
            }
        }
        const std::uint64_t match = ~(plane ^ apt_reference_);
        add_plane(apt_count_.data(), apt_width_, match);
    }

    ++window_bits_;
    ++total_bits_;
}

void sliced_block::feed_chunk(const std::uint64_t channel_words[lanes])
{
    if (window_bits_ + lanes > cfg_.n) {
        throw std::logic_error(
            "sliced_block: 64 more steps would overrun the window");
    }
    if (!cfg_.rct && !cfg_.apt) {
        // Frequency and runs are pure accumulators, so the 64 steps of a
        // chunk collapse into one sliced add per statistic: popcount each
        // channel's word (its ones for the chunk) and its intra-word
        // transition count, transpose the packed 7-bit values into
        // addend planes, and ripple them into the vertical counters in
        // one pass.  Bit-exact with 64 step() calls -- only the health
        // tests need the chunk unrolled plane by plane.
        constexpr std::uint64_t body = ~std::uint64_t{0} >> 1;
        std::uint64_t packed[lanes];
        std::uint64_t first_plane = 0;
        std::uint64_t last_plane = 0;
        for (unsigned i = 0; i < lanes; ++i) {
            const std::uint64_t x = channel_words[i];
            const auto ones =
                static_cast<std::uint64_t>(std::popcount(x));
            const auto flips = static_cast<std::uint64_t>(
                std::popcount((x ^ (x >> 1)) & body));
            packed[i] = ones | (flips << 8);
            first_plane |= (x & std::uint64_t{1}) << i;
            last_plane |= (x >> 63) << i;
        }
        bits::transpose_64x64(packed);
        add_sliced_values(ones_count_.data(), stat_width_, packed, 7);
        add_sliced_values(runs_count_.data(), stat_width_, packed + 8, 7);
        // Seam plane: the chunk's first bit opens run one on every
        // channel the first time, afterwards only where it differs from
        // the previous chunk's closing bit.
        const std::uint64_t seam =
            runs_primed_ ? runs_prev_ ^ first_plane : ~std::uint64_t{0};
        add_plane(runs_count_.data(), stat_width_, seam);
        runs_prev_ = last_plane;
        runs_primed_ = true;
        window_bits_ += lanes;
        total_bits_ += lanes;
        return;
    }
    std::uint64_t planes[lanes];
    for (unsigned i = 0; i < lanes; ++i) {
        planes[i] = channel_words[i];
    }
    // Channel-major words -> time planes: plane[t] bit i is channel i's
    // bit t (transpose_64x64's b[i] bit j == a[j] bit i convention).
    bits::transpose_64x64(planes);
    for (unsigned t = 0; t < lanes; ++t) {
        step(planes[t]);
    }
}

void sliced_block::feed_tile(const std::uint64_t* tile, std::size_t stride,
                             std::size_t words_per_channel)
{
    if (words_per_channel > lanes) {
        throw std::invalid_argument(
            "sliced_block: a tile holds at most 64 words per channel "
            "(got " + std::to_string(words_per_channel) + ")");
    }
    if (words_per_channel == 0) {
        return;
    }
    const std::uint64_t tile_bits =
        std::uint64_t{64} * words_per_channel;
    if (window_bits_ + tile_bits > cfg_.n) {
        throw std::logic_error(
            "sliced_block: tile would overrun the window");
    }
    if (!cfg_.rct && !cfg_.apt) {
        // The feed_chunk collapse, amortized across the whole tile: sum
        // each channel's ones and transitions over all its words first
        // (the per-word popcounts plus the seams between consecutive
        // words), then transpose the packed sums *once* and ripple them
        // into the vertical counters with one sliced add per statistic.
        // Up to 64 words per channel the sums stay within 13 bits
        // (ones <= 4096, transitions <= 4095), so the two addends pack
        // into disjoint bit ranges of one 64-bit value per channel.
        constexpr std::uint64_t body = ~std::uint64_t{0} >> 1;
        std::uint64_t packed[lanes];
        std::uint64_t first_plane = 0;
        std::uint64_t last_plane = 0;
        for (unsigned i = 0; i < lanes; ++i) {
            const std::uint64_t* words = tile + std::size_t{i} * stride;
            std::uint64_t prev = words[0];
            auto ones = static_cast<std::uint64_t>(std::popcount(prev));
            auto flips = static_cast<std::uint64_t>(
                std::popcount((prev ^ (prev >> 1)) & body));
            for (std::size_t k = 1; k < words_per_channel; ++k) {
                const std::uint64_t x = words[k];
                ones += static_cast<std::uint64_t>(std::popcount(x));
                flips += static_cast<std::uint64_t>(
                    std::popcount((x ^ (x >> 1)) & body));
                // Seam between word k-1's closing bit and word k's
                // opening bit -- the transition feed_chunk charges to
                // its per-chunk seam plane.
                flips += ((prev >> 63) ^ x) & std::uint64_t{1};
                prev = x;
            }
            packed[i] = ones | (flips << 16);
            first_plane |= (words[0] & std::uint64_t{1}) << i;
            last_plane |= (prev >> 63) << i;
        }
        bits::transpose_64x64(packed);
        add_sliced_values(ones_count_.data(), stat_width_, packed, 13);
        add_sliced_values(runs_count_.data(), stat_width_, packed + 16,
                          13);
        // One seam plane for the whole tile: the tile's first bit opens
        // run one on every channel the first time, afterwards only
        // where it differs from the previous tile's closing bit.
        const std::uint64_t seam =
            runs_primed_ ? runs_prev_ ^ first_plane : ~std::uint64_t{0};
        add_plane(runs_count_.data(), stat_width_, seam);
        runs_prev_ = last_plane;
        runs_primed_ = true;
        window_bits_ += tile_bits;
        total_bits_ += tile_bits;
        return;
    }
    // Health tests watch every step: unroll the tile chunk by chunk
    // (one transpose + 64 plane steps per word column).
    std::uint64_t planes[lanes];
    for (std::size_t k = 0; k < words_per_channel; ++k) {
        for (unsigned i = 0; i < lanes; ++i) {
            planes[i] = tile[std::size_t{i} * stride + k];
        }
        bits::transpose_64x64(planes);
        for (unsigned t = 0; t < lanes; ++t) {
            step(planes[t]);
        }
    }
}

void sliced_block::restart()
{
    window_bits_ = 0;
    for (unsigned w = 0; w < stat_width_; ++w) {
        ones_count_[w] = 0;
        runs_count_[w] = 0;
    }
    runs_prev_ = 0;
    runs_primed_ = false;
    // The continuous health tests deliberately keep their state: the
    // scalar engines live outside the window cycle too.
}

std::uint64_t sliced_block::gather(const std::vector<std::uint64_t>& planes,
                                   unsigned channel) const
{
    if (channel >= lanes) {
        throw std::invalid_argument("sliced_block: channel must be < 64");
    }
    std::uint64_t value = 0;
    for (unsigned w = 0; w < planes.size(); ++w) {
        value |= ((planes[w] >> channel) & std::uint64_t{1}) << w;
    }
    return value;
}

std::uint64_t sliced_block::ones(unsigned channel) const
{
    return gather(ones_count_, channel);
}

std::int64_t sliced_block::s_final(unsigned channel) const
{
    return 2 * static_cast<std::int64_t>(ones(channel))
        - static_cast<std::int64_t>(window_bits_);
}

std::uint64_t sliced_block::n_runs(unsigned channel) const
{
    return gather(runs_count_, channel);
}

bool sliced_block::rct_alarm(unsigned channel) const
{
    if (!cfg_.rct) {
        throw std::logic_error("sliced_block: rct is not enabled");
    }
    if (channel >= lanes) {
        throw std::invalid_argument("sliced_block: channel must be < 64");
    }
    return ((rct_alarm_ >> channel) & 1u) != 0;
}

std::uint64_t sliced_block::rct_current_run(unsigned channel) const
{
    if (!cfg_.rct) {
        throw std::logic_error("sliced_block: rct is not enabled");
    }
    return gather(rct_run_, channel);
}

std::uint64_t sliced_block::rct_longest_run(unsigned channel) const
{
    if (!cfg_.rct) {
        throw std::logic_error("sliced_block: rct is not enabled");
    }
    return gather(rct_longest_, channel);
}

void sliced_block::apt_check() const
{
    if (cfg_.apt && total_bits_ != 0) {
        apt_alarm_ |=
            ge_const(apt_count_.data(), apt_width_, cfg_.apt_cutoff);
    }
}

bool sliced_block::apt_alarm(unsigned channel) const
{
    if (!cfg_.apt) {
        throw std::logic_error("sliced_block: apt is not enabled");
    }
    if (channel >= lanes) {
        throw std::invalid_argument("sliced_block: channel must be < 64");
    }
    apt_check();
    return ((apt_alarm_ >> channel) & 1u) != 0;
}

std::uint64_t sliced_block::apt_current_count(unsigned channel) const
{
    if (!cfg_.apt) {
        throw std::logic_error("sliced_block: apt is not enabled");
    }
    return gather(apt_count_, channel);
}

} // namespace otf::hw
