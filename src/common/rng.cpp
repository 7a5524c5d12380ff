/**
 * @file
 * xoshiro256** implementation (public-domain reference algorithm).
 */
#include "common/rng.hpp"

#include "common/log.hpp"

namespace evrsim {

namespace {

/** SplitMix64 step, used to expand a single seed into generator state. */
std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = mix64(state);
    state += 0x9e3779b97f4a7c15ull;
    return z;
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
}

std::uint64_t
Rng::next()
{
    std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    EVRSIM_ASSERT(bound > 0);
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next();
    unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
        std::uint64_t threshold = -bound % bound;
        while (low < threshold) {
            x = next();
            m = static_cast<unsigned __int128>(x) * bound;
            low = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    EVRSIM_ASSERT(lo <= hi);
    auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

float
Rng::nextFloat()
{
    // 24 high-quality bits -> [0, 1) float.
    return static_cast<float>(next() >> 40) * (1.0f / 16777216.0f);
}

float
Rng::nextFloat(float lo, float hi)
{
    return lo + (hi - lo) * nextFloat();
}

bool
Rng::nextBool(float p)
{
    return nextFloat() < p;
}

Rng
Rng::fork(std::uint64_t stream_id) const
{
    // Hash the parent state together with the stream id into a new seed.
    std::uint64_t mix = s_[0] ^ rotl(s_[3], 13) ^ (stream_id * 0xd6e8feb86659fd93ull);
    return Rng(mix);
}

} // namespace evrsim
