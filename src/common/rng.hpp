/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis,
 * plus the stateless hash and draw primitives behind every other
 * "random but reproducible" decision (fault injection, tile sampling,
 * scene fuzzing, shard routing, backoff jitter).
 *
 * All workloads must be bit-reproducible across runs and platforms, so we
 * use a self-contained xoshiro256** generator seeded through SplitMix64
 * rather than std::mt19937 + std::distributions (whose outputs are not
 * specified identically across standard library implementations).
 */
#ifndef EVRSIM_COMMON_RNG_HPP
#define EVRSIM_COMMON_RNG_HPP

#include <cstdint>
#include <string>

namespace evrsim {

/** SplitMix64 finalizer: an uncorrelated u64 from any input. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** 53-bit mantissa draw in [0, 1) from one mixed word. */
inline double
unitDraw(std::uint64_t mixed)
{
    return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

/**
 * FNV-1a over a string, for keying per-job decisions.
 * std::hash<std::string> is implementation-defined, which would make
 * keyed injection differ across standard libraries (and across the
 * parent/worker boundary if they were ever built differently); FNV-1a
 * keeps every string -> decision mapping stable everywhere.
 */
std::uint64_t fnv1a64(const std::string &s);

/** xoshiro256** deterministic PRNG. */
class Rng
{
  public:
    /** Seed the generator; equal seeds yield equal sequences. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using Lemire's method; bound > 0. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Uniform float in [0, 1). */
    float nextFloat();

    /** Uniform float in [lo, hi). */
    float nextFloat(float lo, float hi);

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(float p = 0.5f);

    /**
     * Fork an independent child stream identified by @p stream_id.
     * Children with different ids are statistically independent of each
     * other and of the parent; used to give each workload element its own
     * stable stream regardless of evaluation order.
     */
    Rng fork(std::uint64_t stream_id) const;

  private:
    std::uint64_t s_[4];
};

} // namespace evrsim

#endif // EVRSIM_COMMON_RNG_HPP
