/**
 * @file
 * Layer Buffer implementation.
 */
#include "evr/layer_buffer.hpp"

#include "common/log.hpp"

namespace evrsim {

LayerBuffer::LayerBuffer(int max_pixels)
{
    EVRSIM_ASSERT(max_pixels > 0);
    layers_.assign(static_cast<std::size_t>(max_pixels), 0);
}

void
LayerBuffer::tileStart(int width, int height)
{
    EVRSIM_ASSERT(width > 0 && height > 0);
    EVRSIM_ASSERT(static_cast<std::size_t>(width) * height <=
                  layers_.size());
    width_ = width;
    height_ = height;
    std::fill(layers_.begin(),
              layers_.begin() + static_cast<std::size_t>(width) * height, 0);
    zr_ = kNoZr;
}

void
LayerBuffer::opaqueWrites(const std::uint32_t *pixels, int count,
                          std::uint16_t layer, bool is_woz)
{
    const auto limit = static_cast<std::uint32_t>(width_ * height_);
    for (int i = 0; i < count; ++i) {
        EVRSIM_ASSERT(pixels[i] < limit);
        layers_[pixels[i]] = layer;
    }
    if (is_woz && count > 0)
        zr_ = layer;
}

std::uint16_t
LayerBuffer::computeLFar() const
{
    std::uint16_t l_far = 0xffff;
    std::size_t count = static_cast<std::size_t>(width_) * height_;
    for (std::size_t i = 0; i < count; ++i) {
        if (layers_[i] < l_far)
            l_far = layers_[i];
    }
    return l_far;
}

std::uint16_t
LayerBuffer::layerAt(int x, int y) const
{
    EVRSIM_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_);
    return layers_[static_cast<std::size_t>(y) * width_ + x];
}

} // namespace evrsim
