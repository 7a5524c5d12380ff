/**
 * @file
 * Procedural texture implementation (cold parts; the per-fragment
 * sampling path is inline in the header).
 */
#include "scene/texture.hpp"

namespace evrsim {

namespace {

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

Texture::Texture(TextureKind kind, int size, const Vec4 &a, const Vec4 &b,
                 std::uint64_t seed, int cells)
    : kind_(kind), size_(size), size_shift_(0), cells_(cells),
      color_a_(a), color_b_(b), seed_(seed)
{
    EVRSIM_ASSERT(isPowerOfTwo(size_));
    EVRSIM_ASSERT(cells_ > 0);
    while ((1 << size_shift_) < size_)
        ++size_shift_;
    if (kind_ == TextureKind::Noise && cells_ <= kMaxNoiseTableCells) {
        noise_table_.resize(static_cast<std::size_t>(cells_) * cells_);
        for (int cy = 0; cy < cells_; ++cy)
            for (int cx = 0; cx < cells_; ++cx)
                noise_table_[static_cast<std::size_t>(cy) * cells_ + cx] =
                    noiseCell(cx, cy);
    }
}

std::uint64_t
Texture::contentKey() const
{
    std::uint64_t key = seed_ * 0x9e3779b97f4a7c15ull;
    key ^= static_cast<std::uint64_t>(kind_) << 56;
    key ^= static_cast<std::uint64_t>(size_) << 40;
    key ^= static_cast<std::uint64_t>(cells_) << 24;
    key ^= toRgba8(color_a_).packed();
    key ^= static_cast<std::uint64_t>(toRgba8(color_b_).packed()) << 16;
    return key;
}

} // namespace evrsim
