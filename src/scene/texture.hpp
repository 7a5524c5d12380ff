/**
 * @file
 * Procedural textures mapped into the simulated address space.
 *
 * Texture *contents* are computed on the fly from a deterministic
 * generator (no image assets are needed), but every texel has a simulated
 * address, so the texture caches observe the same locality a stored
 * RGBA8 texture would produce.
 */
#ifndef EVRSIM_SCENE_TEXTURE_HPP
#define EVRSIM_SCENE_TEXTURE_HPP

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/color.hpp"
#include "common/log.hpp"
#include "common/vec.hpp"
#include "mem/mem_types.hpp"

namespace evrsim {

namespace texture_detail {

/**
 * 2D integer hash -> [0, 1) float (deterministic value noise). Header
 * visible so Texture::texel can inline into fragment shading.
 */
inline float
hashNoise(std::uint64_t seed, int x, int y)
{
    std::uint64_t h = seed;
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) *
         0x9e3779b97f4a7c15ull;
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(y)) *
         0xd6e8feb86659fd93ull;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    return static_cast<float>(h >> 40) * (1.0f / 16777216.0f);
}

/**
 * Exact std::floor for the texture wrap. The baseline ISA has no
 * rounding instruction, so std::floor is a libm call; truncating
 * through int and stepping down for negative non-integers gives the
 * same value for |u| < 2^23 (-0 comes back as +0, which compares equal
 * and wraps to the same texel), and every float at or beyond 2^23 (and
 * every NaN or infinity) is returned unchanged, as floor would.
 */
inline float
floorExact(float u)
{
    if (!(std::fabs(u) < 8388608.0f))
        return u;
    float t = static_cast<float>(static_cast<int>(u));
    return t > u ? t - 1.0f : t;
}

} // namespace texture_detail

/** Procedural texture families. */
enum class TextureKind : std::uint8_t {
    Solid,    ///< single color (cheap UI fills)
    Checker,  ///< two-color checkerboard
    Gradient, ///< vertical gradient between two colors
    Noise,    ///< hash-based value noise (organic surfaces)
    Stripes,  ///< horizontal stripes (HUD bars, decals)
};

/** One texture: generator parameters plus its simulated placement. */
class Texture
{
  public:
    /**
     * @param kind   generator family
     * @param size   width=height, must be a power of two
     * @param a      primary color
     * @param b      secondary color (ignored by Solid)
     * @param seed   deterministic seed for Noise
     * @param cells  feature scale (checker squares, stripe count, noise
     *               cell count)
     */
    Texture(TextureKind kind, int size, const Vec4 &a, const Vec4 &b,
            std::uint64_t seed = 0, int cells = 8);

    /**
     * Sample with nearest filtering; uv wraps (GL_REPEAT). Defined in
     * the header (along with the texel helpers below) because it runs
     * once per textured fragment and the build has no LTO to inline it
     * across translation units.
     */
    Vec4
    sample(float u, float v) const
    {
        int x, y;
        toTexel(u, v, x, y);
        return texel(x, y);
    }

    /** Simulated address of the texel that (u, v) maps to. */
    Addr
    texelAddr(float u, float v) const
    {
        int x, y;
        toTexel(u, v, x, y);
        return texelAddrAt(x, y);
    }

    /**
     * Map (u, v) to wrapped integer texel coordinates. Public together
     * with the *At accessors so the shader core can wrap a fragment's
     * UV once and reuse the coordinates for both the simulated fetch
     * address and the color lookup.
     */
    void
    toTexel(float u, float v, int &x, int &y) const
    {
        // GL_REPEAT wrapping, nearest filtering.
        float fu = u - texture_detail::floorExact(u);
        float fv = v - texture_detail::floorExact(v);
        x = static_cast<int>(fu * size_) & (size_ - 1);
        y = static_cast<int>(fv * size_) & (size_ - 1);
    }

    /** Color of the texel at wrapped integer coordinates. */
    Vec4 texelAt(int x, int y) const { return texel(x, y); }

    /** Simulated address of the texel at wrapped integer coordinates. */
    Addr
    texelAddrAt(int x, int y) const
    {
        return base_ + (static_cast<Addr>(y) * size_ + x) * 4;
    }

    int size() const { return size_; }
    std::uint64_t byteSize() const
    {
        return static_cast<std::uint64_t>(size_) * size_ * 4;
    }

    Addr base() const { return base_; }
    void setBase(Addr base) { base_ = base; }

    /** Generator identity bytes, hashed into RE signatures. */
    std::uint64_t contentKey() const;

  private:
    /** Integer texel lookup (x, y already wrapped). Feature cells
     *  are x * cells_ / size_, a shift because size_ is a power of
     *  two and x * cells_ is non-negative. */
    Vec4
    texel(int x, int y) const
    {
        switch (kind_) {
          case TextureKind::Solid:
            return color_a_;
          case TextureKind::Checker: {
            int cx = (x * cells_) >> size_shift_;
            int cy = (y * cells_) >> size_shift_;
            return ((cx + cy) & 1) ? color_b_ : color_a_;
          }
          case TextureKind::Gradient: {
            float t = static_cast<float>(y) / (size_ - 1);
            return lerp(color_a_, color_b_, t);
          }
          case TextureKind::Noise: {
            int cx = (x * cells_) >> size_shift_;
            int cy = (y * cells_) >> size_shift_;
            if (!noise_table_.empty())
                return noise_table_[static_cast<std::size_t>(cy) *
                                        cells_ +
                                    cx];
            return noiseCell(cx, cy);
          }
          case TextureKind::Stripes: {
            int cy = (y * cells_) >> size_shift_;
            return (cy & 1) ? color_b_ : color_a_;
          }
        }
        panic("invalid texture kind %d", static_cast<int>(kind_));
    }

    /** Color of Noise cell (cx, cy), computed from the hash. */
    Vec4
    noiseCell(int cx, int cy) const
    {
        return lerp(color_a_, color_b_,
                    texture_detail::hashNoise(seed_, cx, cy));
    }

    /** Noise textures with at most this many cells per axis keep a
     *  per-cell color table instead of hashing per texel. */
    static constexpr int kMaxNoiseTableCells = 64;

    TextureKind kind_;
    int size_;
    int size_shift_; ///< log2(size_)
    int cells_;
    Vec4 color_a_;
    Vec4 color_b_;
    std::uint64_t seed_;
    Addr base_ = 0;
    /** noiseCell(cx, cy) at [cy * cells_ + cx] (Noise only; empty when
     *  cells_ exceeds kMaxNoiseTableCells). */
    std::vector<Vec4> noise_table_;
};

} // namespace evrsim

#endif // EVRSIM_SCENE_TEXTURE_HPP
