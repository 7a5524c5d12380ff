/**
 * @file
 * Early Visibility Resolution implementation.
 */
#include "evr/evr.hpp"

#include "common/log.hpp"

namespace evrsim {

EarlyVisibilityResolution::EarlyVisibilityResolution(int tile_count,
                                                     int tile_size,
                                                     const EvrConfig &config)
    : config_(config),
      lgt_(tile_count),
      fvp_(tile_count),
      layer_buffer_pixels_(tile_size * tile_size),
      active_(static_cast<std::size_t>(tile_count), nullptr)
{
}

void
EarlyVisibilityResolution::frameStart()
{
    lgt_.frameStart();
    // The FVP Table intentionally persists: it holds the previous
    // frame's farthest visible points.
}

BinDecision
EarlyVisibilityResolution::onBin(const ShadedPrimitive &prim, int tile,
                                 FrameStats &stats)
{
    const RenderState &state = prim.state;
    const bool is_woz = state.isWoz();

    BinDecision d;
    d.layer = lgt_.assign(tile, prim.cmd_id, is_woz);
    ++stats.lgt_accesses;

    // Prediction. The Z_far rule additionally requires the primitive to
    // be depth-*tested*: a depth-writing primitive that skips the test
    // would draw regardless of stored depths, so it can never be safely
    // labelled occluded by depth comparison.
    bool depth_rule_applicable = is_woz && state.depth_test;
    d.predicted_occluded =
        fvp_.predictOccluded(tile, depth_rule_applicable, prim.z_near,
                             d.layer);
    ++stats.fvp_table_accesses;

    if (d.predicted_occluded)
        ++stats.prims_predicted_occluded;
    else
        ++stats.prims_predicted_visible;

    // Algorithm 1 (reordering based on FVP). Only opaque WOZ primitives
    // are reordered among themselves; everything else keeps submission
    // order, which preserves blending semantics exactly.
    if (config_.reorder) {
        bool reorderable_woz = is_woz && state.blend == BlendMode::Opaque;
        if (reorderable_woz) {
            d.to_second_list = d.predicted_occluded;
        } else if (!is_woz) {
            // NWOZ primitive: restore global order before appending.
            d.move_second_to_first = true;
        }
    }
    return d;
}

void
EarlyVisibilityResolution::tileStart(int tile, int width, int height,
                                     FrameStats &stats)
{
    (void)stats;
    LayerBuffer *lb;
    {
        std::lock_guard<std::mutex> lock(slot_mu_);
        if (free_.empty()) {
            pool_.push_back(
                std::make_unique<LayerBuffer>(layer_buffer_pixels_));
            lb = pool_.back().get();
        } else {
            lb = free_.back();
            free_.pop_back();
        }
    }
    active_[static_cast<std::size_t>(tile)] = lb;
    lb->tileStart(width, height);
}

void
EarlyVisibilityResolution::onOpaqueWrites(int tile,
                                          const std::uint32_t *pixels,
                                          int count, std::uint16_t layer,
                                          bool is_woz, FrameStats &stats)
{
    active_[static_cast<std::size_t>(tile)]->opaqueWrites(pixels, count,
                                                          layer, is_woz);
    stats.layer_buffer_accesses += static_cast<std::uint64_t>(count);
}

void
EarlyVisibilityResolution::tileEnd(int tile, const float *tile_depth,
                                   int pixel_count, FrameStats &stats)
{
    LayerBuffer *lb = active_[static_cast<std::size_t>(tile)];

    // L_far: minimum visible layer (full Layer Buffer sweep).
    std::uint16_t l_far = lb->computeLFar();
    stats.layer_buffer_accesses += static_cast<std::uint64_t>(pixel_count);

    // FVP-type: WOZ iff the farthest visible layer is the one latched by
    // the last visible WOZ fragment (ZR register).
    bool woz_type = lb->zr() != LayerBuffer::kNoZr && lb->zr() == l_far;

    if (woz_type) {
        // Z_far: maximum depth held in the tile's Z Buffer.
        float z_far = 0.0f;
        for (int i = 0; i < pixel_count; ++i) {
            if (tile_depth[i] > z_far)
                z_far = tile_depth[i];
        }
        stats.depth_buffer_accesses +=
            static_cast<std::uint64_t>(pixel_count);
        fvp_.storeWoz(tile, z_far);
    } else {
        fvp_.storeNwoz(tile, l_far);
    }
    ++stats.fvp_table_accesses;

    // Return the Layer Buffer slot for the next tile to start.
    active_[static_cast<std::size_t>(tile)] = nullptr;
    std::lock_guard<std::mutex> lock(slot_mu_);
    free_.push_back(lb);
}

bool
EarlyVisibilityResolution::fvpConservative(int tile, float max_depth) const
{
    // Only a WOZ-type entry encodes a depth to be conservative about; an
    // invalid or NWOZ entry cannot mislabel by depth comparison.
    if (!fvp_.valid(tile) || !fvp_.isWozType(tile))
        return true;
    // Z_far is the max over the tile's final Z Buffer, so it must be at
    // least the farthest depth just observed (small epsilon for float
    // noise between the two scans).
    return fvp_.zFar(tile) >= max_depth - 1e-6f;
}

void
EarlyVisibilityResolution::tileSkipped(int tile)
{
    // A tile skipped by Rendering Elimination is unchanged, so the FVP
    // entry computed when it was last rendered remains correct.
    (void)tile;
}

} // namespace evrsim
