#include "trng/xoshiro.hpp"

#include "base/bits.hpp"

#include <cstring>

namespace otf::trng {

namespace {

std::uint64_t splitmix64(std::uint64_t& state)
{
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

xoshiro256ss::xoshiro256ss(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto& word : s_) {
        word = splitmix64(sm);
    }
}

void xoshiro256ss::fill_below(std::uint64_t threshold, std::uint64_t* out,
                              std::size_t nwords)
{
    bits::span_kernel([&] {
        // GCC/Clang vector extension: four draws per operation, split
        // into two SSE2 halves in the baseline clone, one AVX2 register
        // in the x86-64-v3 clone.
        using u64x4 = std::uint64_t __attribute__((vector_size(32)));
        const u64x4 below = {threshold, threshold, threshold, threshold};
        // The state lives in locals for the whole batch: `out` and s_ are
        // both uint64_t, so stepping s_ in place would reload it after
        // every store through `out` (may-alias).
        std::uint64_t s0 = s_[0];
        std::uint64_t s1 = s_[1];
        std::uint64_t s2 = s_[2];
        std::uint64_t s3 = s_[3];
        alignas(32) std::uint64_t pre[64];
        for (std::size_t j = 0; j < nwords; ++j) {
            // Phase 1, the F2-linear state walk: next() without its
            // scrambler.  Draw i = 16 k + g (bit i of the word) keeps its
            // pre-scrambler s1 in lane k of group g, pre[4 g + k].
            for (unsigned k = 0; k < 4; ++k) {
#pragma GCC unroll 16
                for (unsigned g = 0; g < 16; ++g) {
                    pre[4 * g + k] = s1;
                    const std::uint64_t t = s1 << 17;
                    s2 ^= s0;
                    s3 ^= s1;
                    s1 ^= s2;
                    s0 ^= s3;
                    s2 ^= t;
                    s3 = rotl(s3, 45);
                }
            }
            // Phase 2, four lanes per group: the scrambler rotl(s1 * 5,
            // 7) * 9 as shifts and adds, then the threshold.  Both sides
            // of `k - threshold` are at most 2^53, so its sign bit is
            // k < threshold.  Groups run high to low so that lane k ends
            // up holding bits 16 k .. 16 k + 15 of the word in place.
            u64x4 acc = {0, 0, 0, 0};
            for (unsigned g = 16; g-- > 0;) {
                u64x4 x;
                std::memcpy(&x, pre + 4 * g, sizeof x);
                const u64x4 y = x + (x << 2);
                const u64x4 r = (y << 7) | (y >> 57);
                const u64x4 z = r + (r << 3);
                acc = (acc << 1) | (((z >> 11) - below) >> 63);
            }
            out[j] = acc[0] | (acc[1] << 16) | (acc[2] << 32)
                | (acc[3] << 48);
        }
        s_[0] = s0;
        s_[1] = s1;
        s_[2] = s2;
        s_[3] = s3;
    });
}

} // namespace otf::trng
