/**
 * @file
 * Framebuffer implementation.
 */
#include "gpu/framebuffer.hpp"

#include <cstdio>
#include <cstring>
#include <mutex>

#include "common/crc32.hpp"
#include "common/log.hpp"

namespace evrsim {

namespace {

/** Pixel buffers of destroyed framebuffers, newest last. */
struct SpareStores {
    std::mutex mu;
    std::vector<std::vector<Rgba8>> stores;
};

SpareStores &
spareStores()
{
    // Never destroyed: framebuffers owned by other static objects may
    // be destroyed after this function's statics would be.
    static SpareStores *spares = new SpareStores;
    return *spares;
}

/** The newest spare buffer able to hold @p count pixels, or an empty
 *  one when there is none. */
std::vector<Rgba8>
takeSpare(std::size_t count)
{
    SpareStores &sp = spareStores();
    std::lock_guard<std::mutex> lock(sp.mu);
    for (std::size_t i = sp.stores.size(); i-- > 0;) {
        if (sp.stores[i].capacity() >= count) {
            std::vector<Rgba8> out = std::move(sp.stores[i]);
            sp.stores.erase(sp.stores.begin() +
                            static_cast<std::ptrdiff_t>(i));
            return out;
        }
    }
    return {};
}

} // namespace

Framebuffer::Framebuffer(int width, int height)
    : width_(width), height_(height)
{
    EVRSIM_ASSERT(width > 0 && height > 0);
    const std::size_t count = static_cast<std::size_t>(width) * height;
    pixels_ = takeSpare(count);
    pixels_.assign(count, Rgba8{});
}

Framebuffer::~Framebuffer()
{
    if (pixels_.capacity() == 0)
        return; // moved from
    SpareStores &sp = spareStores();
    std::lock_guard<std::mutex> lock(sp.mu);
    if (sp.stores.size() < kMaxSpareStores)
        sp.stores.push_back(std::move(pixels_));
}

void
Framebuffer::clear(Rgba8 c)
{
    for (auto &p : pixels_)
        p = c;
}

void
Framebuffer::writeRow(int x, int y, const Rgba8 *src, int count)
{
    // Rgba8 is trivially copyable and == is field-wise on uint8 fields,
    // so byte copies/compares are exact.
    std::memcpy(&pixels_[index(x, y)], src,
                static_cast<std::size_t>(count) * sizeof(Rgba8));
}

bool
Framebuffer::rowEquals(int x, int y, const Rgba8 *src, int count) const
{
    return std::memcmp(&pixels_[index(x, y)], src,
                       static_cast<std::size_t>(count) * sizeof(Rgba8)) ==
           0;
}

void
Framebuffer::copyRect(const Framebuffer &src, const RectI &rect)
{
    EVRSIM_ASSERT(src.width_ == width_ && src.height_ == height_);
    if (rect.empty())
        return;
    const std::size_t row_bytes =
        static_cast<std::size_t>(rect.width()) * sizeof(Rgba8);
    for (int y = rect.y0; y < rect.y1; ++y)
        std::memcpy(&pixels_[index(rect.x0, y)],
                    &src.pixels_[index(rect.x0, y)], row_bytes);
}

bool
Framebuffer::equals(const Framebuffer &other) const
{
    return width_ == other.width_ && height_ == other.height_ &&
           pixels_ == other.pixels_;
}

std::uint64_t
Framebuffer::diffCount(const Framebuffer &other) const
{
    EVRSIM_ASSERT(other.width_ == width_ && other.height_ == height_);
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < pixels_.size(); ++i)
        if (pixels_[i] != other.pixels_[i])
            ++diff;
    return diff;
}

std::uint32_t
Framebuffer::contentCrc() const
{
    return Crc32::of(pixels_.data(), pixels_.size() * sizeof(Rgba8));
}

bool
Framebuffer::writePpm(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fprintf(f, "P6\n%d %d\n255\n", width_, height_);
    for (const Rgba8 &p : pixels_) {
        unsigned char rgb[3] = {p.r, p.g, p.b};
        std::fwrite(rgb, 1, 3, f);
    }
    std::fclose(f);
    return true;
}

} // namespace evrsim
