// Bit-sequence container and span-kernel primitives shared by every layer
// of the platform.
//
// The TRNG delivers one bit per clock; the hardware models consume bits one
// at a time; the reference NIST implementations and the golden models in the
// test suite work on whole sequences.  `bit_sequence` is the common currency:
// a word-packed array of bits with the few bulk operations the statistical
// tests need (population count, slicing, parsing from ASCII).
//
// `otf::bits` holds the kernel primitives behind the span ingestion lane
// (engine::consume_span): span popcount, transition counting and the +/-1
// walk summary behind the cusum engine.  They are plain C++; the ISA is
// picked per engine span kernel instead.  Each consume_span body runs
// through span_kernel(), which compiles it twice -- for the baseline ISA
// and, on x86-64, for x86-64-v3 (popcnt, BMI1/2, AVX2) -- and runs the
// clone the process-wide kernel_variant selects: `simd` (the v3 clone)
// when CPUID reports the features, `portable` otherwise, `reference` for
// the per-bit loops.  The differential test harness pins each variant
// against the per-bit oracle and the benches report a per-variant axis.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace otf {

/// \brief A sequence of bits, packed LSB-first into 64-bit words: bit i is
/// bit i % 64 of word i / 64 (the layout of engine::consume_span), so the
/// packed conversions are copies.  Bits past size() in the last word are
/// always zero; the defaulted equality relies on it.
class bit_sequence {
public:
    bit_sequence() = default;
    explicit bit_sequence(std::size_t n, bool value = false)
        : words_(word_count(n), value ? ~std::uint64_t{0} : 0), size_(n)
    {
        clear_tail();
    }

    /// Parse from ASCII; accepts '0'/'1' and ignores whitespace.
    static bit_sequence from_string(std::string_view text)
    {
        bit_sequence seq;
        seq.reserve(text.size());
        for (const char c : text) {
            if (c == '0' || c == '1') {
                seq.push_back(c == '1');
            } else if (c == ' ' || c == '\n' || c == '\t' || c == '\r') {
                continue;
            } else {
                throw std::invalid_argument(
                    "bit_sequence: invalid character in bit string");
            }
        }
        return seq;
    }

    void push_back(bool bit)
    {
        if (size_ % 64 == 0) {
            words_.push_back(0);
        }
        words_.back() |= static_cast<std::uint64_t>(bit) << (size_ % 64);
        ++size_;
    }
    void reserve(std::size_t n) { words_.reserve(word_count(n)); }
    void clear()
    {
        words_.clear();
        size_ = 0;
    }

    bool operator[](std::size_t i) const
    {
        return ((words_[i / 64] >> (i % 64)) & 1u) != 0;
    }
    bool at(std::size_t i) const
    {
        check(i);
        return (*this)[i];
    }
    void set(std::size_t i, bool v)
    {
        check(i);
        const std::uint64_t bit = std::uint64_t{1} << (i % 64);
        words_[i / 64] = v ? words_[i / 64] | bit : words_[i / 64] & ~bit;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /// The packed words, ceil(size() / 64) of them (zero past size()).
    const std::vector<std::uint64_t>& words() const { return words_; }

    /// Number of ones in the whole sequence.
    std::size_t count_ones() const
    {
        std::size_t total = 0;
        for (const std::uint64_t w : words_) {
            total += static_cast<std::size_t>(std::popcount(w));
        }
        return total;
    }

    /// Copy of bits [first, first + length).
    bit_sequence slice(std::size_t first, std::size_t length) const
    {
        if (first + length > size_) {
            throw std::out_of_range("bit_sequence::slice out of range");
        }
        bit_sequence out;
        out.words_.resize(word_count(length));
        out.size_ = length;
        const std::size_t skip = first / 64;
        const unsigned off = static_cast<unsigned>(first % 64);
        for (std::size_t j = 0; j < out.words_.size(); ++j) {
            std::uint64_t w = words_[skip + j] >> off;
            if (off != 0 && skip + j + 1 < words_.size()) {
                w |= words_[skip + j + 1] << (64 - off);
            }
            out.words_[j] = w;
        }
        out.clear_tail();
        return out;
    }

    /// The packed words for the span lane: bit i of word j is bit 64*j + i
    /// of the sequence.  Bits past the end of a partial final word are
    /// zero.
    std::vector<std::uint64_t> to_words() const { return words_; }

    /// Inverse of to_words(): the first `nbits` packed bits as a sequence.
    static bit_sequence from_words(const std::vector<std::uint64_t>& words,
                                   std::size_t nbits)
    {
        if (nbits > words.size() * 64) {
            throw std::out_of_range(
                "bit_sequence::from_words: nbits exceeds the word buffer");
        }
        bit_sequence seq;
        seq.words_.assign(words.begin(),
                          words.begin()
                              + static_cast<std::ptrdiff_t>(word_count(nbits)));
        seq.size_ = nbits;
        seq.clear_tail();
        return seq;
    }

    /// Append every bit of `words`, LSB-first (the layout from_words()
    /// reads), reusing the sequence's storage.
    void append_words(const std::vector<std::uint64_t>& words)
    {
        const unsigned off = static_cast<unsigned>(size_ % 64);
        if (off == 0) {
            words_.insert(words_.end(), words.begin(), words.end());
        } else {
            for (const std::uint64_t w : words) {
                words_.back() |= w << off;
                words_.push_back(w >> (64 - off));
            }
        }
        size_ += words.size() * 64;
    }

    std::string to_string() const
    {
        std::string s;
        s.reserve(size_);
        for (std::size_t i = 0; i < size_; ++i) {
            s.push_back((*this)[i] ? '1' : '0');
        }
        return s;
    }

    friend bool operator==(const bit_sequence&, const bit_sequence&) = default;

private:
    static std::size_t word_count(std::size_t nbits) { return (nbits + 63) / 64; }

    void check(std::size_t i) const
    {
        if (i >= size_) {
            throw std::out_of_range("bit_sequence: index out of range");
        }
    }

    /// Zero the bits past size() in the last word.
    void clear_tail()
    {
        if (size_ % 64 != 0) {
            words_.back() &= (std::uint64_t{1} << (size_ % 64)) - 1;
        }
    }

    std::vector<std::uint64_t> words_;
    std::size_t size_ = 0;
};

namespace bits {

/// \brief Which implementation the span kernel primitives use.
/// All variants are register-exact by contract (tests/test_kernel_oracle
/// is the fuzz oracle); they differ only in speed.
enum class kernel_variant {
    reference, ///< naive per-bit loops -- the in-module oracle
    portable,  ///< byte-table / std::popcount batching, baseline ISA clone
    simd,      ///< the same kernels in the x86-64-v3 clone (span_kernel)
};

/// Stable lowercase name ("reference" / "portable" / "simd") for reports
/// and BENCH JSON.
constexpr const char* to_string(kernel_variant v)
{
    switch (v) {
    case kernel_variant::reference:
        return "reference";
    case kernel_variant::portable:
        return "portable";
    case kernel_variant::simd:
        return "simd";
    }
    return "unknown";
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OTF_BITS_V3_CLONE 1
#else
#define OTF_BITS_V3_CLONE 0
#endif

/// True when this binary holds the x86-64-v3 clone of every span kernel
/// (any x86-64 build with GCC or Clang; see span_kernel()).
constexpr bool simd_compiled()
{
    return OTF_BITS_V3_CLONE != 0;
}

/// True when this host can run the x86-64-v3 clone: CPUID reports the
/// features its target attribute enables (read once per process).
inline bool simd_supported()
{
#if OTF_BITS_V3_CLONE
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi")
            && __builtin_cpu_supports("bmi2")
            && __builtin_cpu_supports("popcnt");
    }();
    return supported;
#else
    return false;
#endif
}

/// The variant a process starts with: `simd` where the host runs the
/// x86-64-v3 clone, `portable` otherwise -- so reports name the code that
/// actually runs.
inline kernel_variant default_kernel_variant()
{
    return simd_supported() ? kernel_variant::simd : kernel_variant::portable;
}

namespace detail {
/// Not yet chosen: the process-wide variant is constant-initialised to
/// this and resolved to default_kernel_variant() on its first read, so no
/// static initialiser can observe a half-built default.
inline constexpr auto unresolved_variant = static_cast<kernel_variant>(-1);
inline std::atomic<kernel_variant> g_kernel_variant{unresolved_variant};

/// The per-bit check inside the primitives: the unresolved value is never
/// `reference`, so it needs no resolution.
inline bool per_bit_selected()
{
    return g_kernel_variant.load(std::memory_order_relaxed)
        == kernel_variant::reference;
}
} // namespace detail

inline kernel_variant active_kernel_variant()
{
    kernel_variant v = detail::g_kernel_variant.load(std::memory_order_relaxed);
    if (v == detail::unresolved_variant) [[unlikely]] {
        const kernel_variant chosen = default_kernel_variant();
        // A concurrent set_kernel_variant() wins over the default.
        return detail::g_kernel_variant.compare_exchange_strong(
                   v, chosen, std::memory_order_relaxed)
            ? chosen
            : v;
    }
    return v;
}

/// \brief Select the process-wide kernel variant (benches sweep this as a
/// measurement axis; tests pin each variant against the per-bit oracle).
/// `simd` on a host that cannot run the x86-64-v3 clone selects
/// `portable`: active_kernel_variant() always names the code that runs.
inline void set_kernel_variant(kernel_variant v)
{
    if (v == kernel_variant::simd && !simd_supported()) {
        v = kernel_variant::portable;
    }
    detail::g_kernel_variant.store(v, std::memory_order_relaxed);
}

/// Instruction set the span kernels of variant `v` are compiled for
/// ("x86-64-v3" for the simd clone, "x86-64" or "baseline" otherwise).
constexpr const char* kernel_isa(kernel_variant v)
{
    if (v == kernel_variant::simd && simd_compiled()) {
        return "x86-64-v3";
    }
#if defined(__x86_64__)
    return "x86-64";
#else
    return "baseline";
#endif
}

namespace detail {
template <class Body>
[[gnu::flatten]] inline void run_baseline(Body& body)
{
    body();
}

#if OTF_BITS_V3_CLONE
template <class Body>
[[gnu::flatten, gnu::target("avx2,bmi,bmi2,popcnt")]] inline void
run_x86_64_v3(Body& body)
{
    body();
}
#endif
} // namespace detail

/// \brief Run an engine's span kernel body in the clone the active
/// variant selects.  Each trampoline inlines the whole body -- the bits::
/// primitives with it -- so the body is compiled twice: for the baseline
/// ISA and for x86-64-v3 (std::popcount becomes popcnt, shifts and
/// trailing-zero counts take BMI encodings).
template <class Body>
inline void span_kernel(Body&& body)
{
#if OTF_BITS_V3_CLONE
    if (active_kernel_variant() == kernel_variant::simd) {
        detail::run_x86_64_v3(body);
        return;
    }
#endif
    detail::run_baseline(body);
}

inline std::uint64_t low_mask(unsigned nbits)
{
    return nbits >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << nbits) - 1;
}

/// \brief Population count of the low `k` bits of `w` (k in [0, 64]).
inline unsigned prefix_popcount(std::uint64_t w, unsigned k)
{
    if (detail::per_bit_selected()) {
        unsigned total = 0;
        for (unsigned i = 0; i < k; ++i) {
            total += static_cast<unsigned>((w >> i) & 1u);
        }
        return total;
    }
    return static_cast<unsigned>(std::popcount(w & low_mask(k)));
}

/// \brief Ones in the first `nbits` bits of a packed span (LSB-first words,
/// ragged lengths allowed; bits past `nbits` in the tail word are masked).
inline std::uint64_t span_popcount(const std::uint64_t* words,
                                   std::size_t nbits)
{
    const std::size_t nwords = nbits / 64;
    const unsigned tail = static_cast<unsigned>(nbits % 64);
    std::uint64_t total = 0;
    if (detail::per_bit_selected()) {
        for (std::size_t i = 0; i < nbits; ++i) {
            total += (words[i / 64] >> (i % 64)) & 1u;
        }
        return total;
    }
    std::size_t j = 0;
    for (; j + 4 <= nwords; j += 4) {
        total += static_cast<std::uint64_t>(std::popcount(words[j]))
            + static_cast<std::uint64_t>(std::popcount(words[j + 1]))
            + static_cast<std::uint64_t>(std::popcount(words[j + 2]))
            + static_cast<std::uint64_t>(std::popcount(words[j + 3]));
    }
    for (; j < nwords; ++j) {
        total += static_cast<std::uint64_t>(std::popcount(words[j]));
    }
    if (tail != 0) {
        total += static_cast<std::uint64_t>(
            std::popcount(words[nwords] & low_mask(tail)));
    }
    return total;
}

/// \brief Ones among bits [first, first + nbits) of a packed span -- the
/// span_popcount of a segment that may start mid-word.
inline std::uint64_t range_popcount(const std::uint64_t* words,
                                    std::size_t first, std::size_t nbits)
{
    words += first / 64;
    const unsigned off = static_cast<unsigned>(first % 64);
    if (off == 0 || nbits == 0) {
        return span_popcount(words, nbits);
    }
    const unsigned head = nbits < 64 - off ? static_cast<unsigned>(nbits)
                                           : 64 - off;
    return prefix_popcount(words[0] >> off, head)
        + span_popcount(words + 1, nbits - head);
}

/// \brief Adjacent-bit transitions inside a full-word span: transitions
/// within each word plus the seams between consecutive words (the runs
/// test's shifted-XOR popcount, batched over the whole span).
inline std::uint64_t span_transitions(const std::uint64_t* words,
                                      std::size_t nwords)
{
    if (nwords == 0) {
        return 0;
    }
    if (detail::per_bit_selected()) {
        std::uint64_t total = 0;
        for (std::size_t i = 1; i < nwords * 64; ++i) {
            const unsigned a =
                static_cast<unsigned>((words[i / 64] >> (i % 64)) & 1u);
            const unsigned b = static_cast<unsigned>(
                (words[(i - 1) / 64] >> ((i - 1) % 64)) & 1u);
            total += a ^ b;
        }
        return total;
    }
    constexpr std::uint64_t pair_mask = ~std::uint64_t{0} >> 1;
    std::uint64_t total = 0;
    std::uint64_t prev_msb = words[0] >> 63;
    total += static_cast<std::uint64_t>(
        std::popcount((words[0] ^ (words[0] >> 1)) & pair_mask));
    for (std::size_t j = 1; j < nwords; ++j) {
        const std::uint64_t x = words[j];
        total += static_cast<std::uint64_t>(
            std::popcount((x ^ (x >> 1)) & pair_mask));
        total += prev_msb ^ (x & 1u);
        prev_msb = x >> 63;
    }
    return total;
}

/// Summary of the +/-1 random walk over a run of bits (bit = 1 steps up,
/// 0 down; bits taken LSB-first): total displacement and the extreme
/// prefix sums after 1..k steps.  Combining summaries left to right
/// reproduces the exact per-bit max/min trajectory -- the cusum span
/// kernel's building block.  The empty walk is {0, -65, 65}, neutral
/// under the fold.
struct walk_summary {
    int delta;
    int max_prefix;
    int min_prefix;
};

namespace detail {

/// Per-byte walk summaries, indexed by the byte value.
struct byte_walk {
    std::int8_t delta;
    std::int8_t max_prefix;
    std::int8_t min_prefix;
};

constexpr std::array<byte_walk, 256> make_walk_table()
{
    std::array<byte_walk, 256> table{};
    for (unsigned b = 0; b < 256; ++b) {
        int s = 0;
        int hi = -8;
        int lo = 8;
        for (unsigned i = 0; i < 8; ++i) {
            s += ((b >> i) & 1u) ? 1 : -1;
            hi = s > hi ? s : hi;
            lo = s < lo ? s : lo;
        }
        table[b] = {static_cast<std::int8_t>(s),
                    static_cast<std::int8_t>(hi),
                    static_cast<std::int8_t>(lo)};
    }
    return table;
}

inline constexpr std::array<byte_walk, 256> kWalkTable = make_walk_table();

/// Byte-table fold over the low `k` bits of `x`: one lookup per whole
/// byte, then single steps for the last k % 8 bits.
inline walk_summary walk_bits_portable(std::uint64_t x, unsigned k)
{
    int s = 0;
    int hi = -65;
    int lo = 65;
    unsigned i = 0;
    for (; i + 8 <= k; i += 8) {
        const byte_walk& bw = kWalkTable[(x >> i) & 0xffu];
        hi = s + bw.max_prefix > hi ? s + bw.max_prefix : hi;
        lo = s + bw.min_prefix < lo ? s + bw.min_prefix : lo;
        s += bw.delta;
    }
    for (; i < k; ++i) {
        s += ((x >> i) & 1u) ? 1 : -1;
        hi = s > hi ? s : hi;
        lo = s < lo ? s : lo;
    }
    return {s, hi, lo};
}

inline walk_summary walk_bits_reference(std::uint64_t x, unsigned k)
{
    int s = 0;
    int hi = -65;
    int lo = 65;
    for (unsigned i = 0; i < k; ++i) {
        s += ((x >> i) & 1u) ? 1 : -1;
        hi = s > hi ? s : hi;
        lo = s < lo ? s : lo;
    }
    return {s, hi, lo};
}

} // namespace detail

/// \brief Walk summary of the low `k` bits of `x` (k in [0, 64]).
inline walk_summary prefix_walk(std::uint64_t x, unsigned k)
{
    if (detail::per_bit_selected()) {
        return detail::walk_bits_reference(x, k);
    }
    return detail::walk_bits_portable(x, k);
}

/// \brief Walk summary of a whole full-word span: the per-word byte-table
/// summaries folded left to right into the exact span trajectory.
inline walk_summary span_walk(const std::uint64_t* words, std::size_t nwords)
{
    walk_summary acc{0, -65, 65};
    const bool per_bit = detail::per_bit_selected();
    for (std::size_t j = 0; j < nwords; ++j) {
        const walk_summary s = per_bit
            ? detail::walk_bits_reference(words[j], 64)
            : detail::walk_bits_portable(words[j], 64);
        const int hi = acc.delta + s.max_prefix;
        const int lo = acc.delta + s.min_prefix;
        acc.max_prefix = hi > acc.max_prefix ? hi : acc.max_prefix;
        acc.min_prefix = lo < acc.min_prefix ? lo : acc.min_prefix;
        acc.delta += s.delta;
    }
    return acc;
}

} // namespace bits

} // namespace otf
