/**
 * @file
 * The Layer Buffer: an on-chip, tile-sized buffer tracking the layer
 * identifier of the visible opaque fragment at every pixel of the tile
 * being rendered (paper section V.B), together with the ZR register that
 * latches the layer of the last visible WOZ fragment.
 *
 * At end of tile, L_far = min(layer over all pixels); the FVP-type is
 * WOZ iff ZR == L_far (the farthest visible layer belongs to a
 * Z-buffered batch).
 */
#ifndef EVRSIM_EVR_LAYER_BUFFER_HPP
#define EVRSIM_EVR_LAYER_BUFFER_HPP

#include <cstdint>
#include <vector>

namespace evrsim {

/** Tile-local layer tracking (1 KB-class SRAM in Table II). */
class LayerBuffer
{
  public:
    /** ZR value meaning "no visible WOZ fragment yet". */
    static constexpr std::uint16_t kNoZr = 0xffff;

    /** @param max_pixels largest tile footprint (tile_size^2). */
    explicit LayerBuffer(int max_pixels);

    /** Start a tile of @p width x @p height pixels: all layers to 0. */
    void tileStart(int width, int height);

    /**
     * @p count opaque fragments of one layer were written at tile-local
     * pixel indices (y * width + x).
     * @param is_woz also latch ZR with this layer (when count > 0)
     */
    void opaqueWrites(const std::uint32_t *pixels, int count,
                      std::uint16_t layer, bool is_woz);

    /** Minimum layer over the tile's pixels (the tile's L_far). */
    std::uint16_t computeLFar() const;

    /** Layer of the last visible WOZ fragment (kNoZr if none). */
    std::uint16_t zr() const { return zr_; }

    /** Per-pixel inspection for tests. */
    std::uint16_t layerAt(int x, int y) const;

    int width() const { return width_; }
    int height() const { return height_; }

  private:
    std::vector<std::uint16_t> layers_;
    int width_ = 0;
    int height_ = 0;
    std::uint16_t zr_ = kNoZr;
};

} // namespace evrsim

#endif // EVRSIM_EVR_LAYER_BUFFER_HPP
