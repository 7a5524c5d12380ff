/**
 * @file
 * Early Visibility Resolution — the paper's core mechanism, assembled
 * from the Layer Generator Table (geometry side), the FVP Table
 * (prediction state across frames) and the Layer Buffer + ZR register
 * (raster side), and implementing both pipeline hooks:
 *
 *  - As a PrimitiveScheduler it assigns layers, predicts per-tile
 *    visibility against the previous frame's FVP and applies the
 *    Algorithm 1 reordering (predicted-occluded WOZ primitives to the
 *    Second List; NWOZ arrivals splice the Second List back).
 *  - As a TileVisibilityTracker it maintains the Layer Buffer during
 *    blending and updates the FVP Table when each tile completes.
 */
#ifndef EVRSIM_EVR_EVR_HPP
#define EVRSIM_EVR_EVR_HPP

#include <memory>
#include <mutex>
#include <vector>

#include "evr/fvp_table.hpp"
#include "evr/layer_buffer.hpp"
#include "evr/layer_generator_table.hpp"
#include "gpu/pipeline_hooks.hpp"

namespace evrsim {

/** EVR feature selection. */
struct EvrConfig {
    /**
     * Apply Algorithm 1 (two display lists, predicted-occluded WOZ
     * primitives rendered last). Disabled for the RE-filter-only
     * ablation.
     */
    bool reorder = true;
};

/** The full EVR mechanism. */
class EarlyVisibilityResolution : public PrimitiveScheduler,
                                  public TileVisibilityTracker
{
  public:
    /**
     * @param tile_count tiles on screen (LGT/FVP Table entries)
     * @param tile_size  nominal tile edge in pixels (Layer Buffer size)
     */
    EarlyVisibilityResolution(int tile_count, int tile_size,
                              const EvrConfig &config = {});

    // --- PrimitiveScheduler ---
    void frameStart() override;
    BinDecision onBin(const ShadedPrimitive &prim, int tile,
                      FrameStats &stats) override;

    // --- TileVisibilityTracker ---
    void tileStart(int tile, int width, int height,
                   FrameStats &stats) override;
    void onOpaqueWrites(int tile, const std::uint32_t *pixels, int count,
                        std::uint16_t layer, bool is_woz,
                        FrameStats &stats) override;
    void tileEnd(int tile, const float *tile_depth, int pixel_count,
                 FrameStats &stats) override;
    void tileSkipped(int tile) override;
    bool fvpConservative(int tile, float max_depth) const override;
    void invalidatePrediction(int tile) override { fvp_.invalidate(tile); }

    // --- Inspection (tests, diagnostics) ---
    const LayerGeneratorTable &lgt() const { return lgt_; }
    const FvpTable &fvpTable() const { return fvp_; }
    /** Mutable FVP access for tests/tools that inject prediction state. */
    FvpTable &mutableFvpTable() { return fvp_; }
    const EvrConfig &config() const { return config_; }

  private:
    EvrConfig config_;
    LayerGeneratorTable lgt_;
    FvpTable fvp_;

    /**
     * Layer Buffer slot pool. The hardware has exactly one tile-sized
     * Layer Buffer (tiles render one at a time); tile-parallel
     * simulation has several tiles between tileStart and tileEnd at
     * once, so each active tile borrows a slot from this pool. Serially
     * only one slot ever exists, and results are identical either way —
     * the buffer is scratch that tileStart fully resets.
     *
     * pool_/free_ are guarded by slot_mu_; active_[tile] is written
     * only by the thread rendering that tile (elements are disjoint),
     * so the hot opaqueWrites path takes no lock.
     */
    int layer_buffer_pixels_;
    std::vector<std::unique_ptr<LayerBuffer>> pool_;
    std::vector<LayerBuffer *> free_;
    std::vector<LayerBuffer *> active_;
    std::mutex slot_mu_;
};

} // namespace evrsim

#endif // EVRSIM_EVR_EVR_HPP
