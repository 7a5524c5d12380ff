/**
 * @file
 * Full-screen RGBA8 framebuffer living in simulated main memory.
 *
 * Under Tile-Based Rendering the framebuffer is only *written* (tile
 * flushes); tiles skipped by Rendering Elimination simply keep the colors
 * written in an earlier frame, which is exactly how the technique reuses
 * results. The class also provides the tile-granular color comparisons the
 * redundancy oracle and the correctness tests rely on.
 */
#ifndef EVRSIM_GPU_FRAMEBUFFER_HPP
#define EVRSIM_GPU_FRAMEBUFFER_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/color.hpp"
#include "common/rect.hpp"

namespace evrsim {

/**
 * Screen-sized array of packed RGBA8 pixels.
 *
 * Pixel storage is recycled: a destroyed framebuffer hands its buffer
 * to a small process-wide spare list (at most kMaxSpareStores entries)
 * and the next framebuffer constructed takes it back and clears it.
 * Simulations are created and destroyed by the dozen in a sweep, and
 * without reuse each one maps and page-faults a fresh ~1 MB buffer, at
 * a cost that depends on the allocator's mmap and trim thresholds.
 */
class Framebuffer
{
  public:
    /** Upper bound on pixel buffers kept for reuse. */
    static constexpr std::size_t kMaxSpareStores = 8;

    Framebuffer(int width, int height);
    Framebuffer(const Framebuffer &) = default;
    Framebuffer(Framebuffer &&) = default;
    Framebuffer &operator=(const Framebuffer &) = default;
    Framebuffer &operator=(Framebuffer &&) = default;
    ~Framebuffer();

    int width() const { return width_; }
    int height() const { return height_; }

    Rgba8 pixel(int x, int y) const { return pixels_[index(x, y)]; }
    void setPixel(int x, int y, Rgba8 c) { pixels_[index(x, y)] = c; }

    /** Copy @p count pixels into the row starting at (@p x, @p y) —
     *  the tile-flush fast path (one memcpy per tile row). */
    void writeRow(int x, int y, const Rgba8 *src, int count);

    /** True if the row starting at (@p x, @p y) already holds the
     *  @p count pixels at @p src. */
    bool rowEquals(int x, int y, const Rgba8 *src, int count) const;

    /** Fill the whole surface with one color. */
    void clear(Rgba8 c);

    /** Copy the rectangle @p rect from @p src (same dimensions required). */
    void copyRect(const Framebuffer &src, const RectI &rect);

    /** True if every pixel matches. */
    bool equals(const Framebuffer &other) const;

    /** Number of differing pixels (diagnostics for tests). */
    std::uint64_t diffCount(const Framebuffer &other) const;

    /** CRC32 of the full surface (compact golden-image checks). */
    std::uint32_t contentCrc() const;

    /**
     * Write the surface as a binary PPM (P6) image for visual
     * inspection; alpha is dropped.
     * @return false if the file could not be written.
     */
    bool writePpm(const std::string &path) const;

    const std::vector<Rgba8> &pixels() const { return pixels_; }

  private:
    std::size_t
    index(int x, int y) const
    {
        return static_cast<std::size_t>(y) * width_ + x;
    }

    int width_;
    int height_;
    std::vector<Rgba8> pixels_;
};

} // namespace evrsim

#endif // EVRSIM_GPU_FRAMEBUFFER_HPP
