/**
 * @file
 * Interfaces through which Rendering Elimination and EVR plug into the
 * baseline pipeline.
 *
 * The GPU libraries know nothing about RE or EVR beyond these hooks, which
 * mirror where the paper's hardware sits:
 *  - PrimitiveScheduler: consulted by the Polygon List Builder for every
 *    (primitive, tile) pair. EVR's implementation assigns layer ids via
 *    the Layer Generator Table, predicts visibility via the FVP Table and
 *    drives the two-list reordering of Algorithm 1.
 *  - SignatureUpdater: RE's Signature Buffer. Updated at binning, queried
 *    at raster start (skip decision), rotated at frame end.
 *  - TileVisibilityTracker: EVR's raster-side state (Layer Buffer and ZR
 *    register) plus FVP Table update at end of tile.
 */
#ifndef EVRSIM_GPU_PIPELINE_HOOKS_HPP
#define EVRSIM_GPU_PIPELINE_HOOKS_HPP

#include <cstdint>

#include "gpu/gpu_stats.hpp"
#include "gpu/primitive.hpp"

namespace evrsim {

/** What the scheduler decided for one (primitive, tile) pair. */
struct BinDecision {
    /** Layer identifier assigned to the primitive for this tile. */
    std::uint16_t layer = 0;
    /** True if the primitive was predicted occluded in this tile. */
    bool predicted_occluded = false;
    /** Append to the tile's Second List instead of the First List. */
    bool to_second_list = false;
    /** Splice the Second List onto the First List before appending. */
    bool move_second_to_first = false;
};

/** Geometry-side EVR hook (Layer Generator Table + FVP prediction). */
class PrimitiveScheduler
{
  public:
    virtual ~PrimitiveScheduler() = default;

    /** Reset per-frame state (layer counters). */
    virtual void frameStart() = 0;

    /**
     * Decide placement of @p prim in @p tile's display lists.
     * Called once per (primitive, tile) pair, in submission order.
     */
    virtual BinDecision onBin(const ShadedPrimitive &prim, int tile,
                              FrameStats &stats) = 0;
};

/** Rendering Elimination hook (Signature Buffer). */
class SignatureUpdater
{
  public:
    virtual ~SignatureUpdater() = default;

    /** Reset the in-progress signatures for a new frame. */
    virtual void frameStart() = 0;

    /**
     * Fold @p prim into @p tile's in-progress signature.
     * @param excluded true when EVR predicted the primitive occluded in
     *                 this tile, in which case the combine is skipped
     *                 (the Signature Buffer entry is not updated).
     */
    virtual void addPrimitive(int tile, const ShadedPrimitive &prim,
                              bool excluded, FrameStats &stats) = 0;

    /**
     * Raster-side query: does @p tile produce the same colors as in the
     * previous frame? True = skip rendering it.
     */
    virtual bool shouldSkipTile(int tile, FrameStats &stats) = 0;

    /**
     * Raster-side report: a primitive that was excluded from @p tile's
     * signature (predicted occluded) actually contributed to the tile's
     * final pixels. The tile's surface is then not fully described by
     * its signature, so the signature must not be used as a skip
     * reference — neither this frame nor the next.
     */
    virtual void tileMispredicted(int tile) = 0;

    /** Promote current-frame signatures to previous-frame. */
    virtual void frameEnd() = 0;

    /**
     * Audit query: after tileMispredicted(@p tile) this frame, is the
     * tile's in-progress signature actually poisoned? Defaults to true
     * so implementations without a poison bit are not flagged.
     */
    virtual bool mispredictionPoisoned(int tile) const
    {
        (void)tile;
        return true;
    }
};

/** Raster-side EVR hook (Layer Buffer, ZR register, FVP Table update). */
class TileVisibilityTracker
{
  public:
    virtual ~TileVisibilityTracker() = default;

    /**
     * A tile starts rendering: clear the Layer Buffer and ZR.
     * @param width,height pixel dimensions of this tile (screen-edge
     *                     tiles may be smaller than the nominal size)
     */
    virtual void tileStart(int tile, int width, int height,
                           FrameStats &stats) = 0;

    /**
     * Opaque fragments (alpha == 1) of one primitive were written to the
     * Color Buffer of @p tile: @p count of them, in write order, at the
     * tile-local pixel indices y * width + x in @p pixels. The raster
     * pipeline reports each span's opaque writes with one call.
     *
     * @param tile   tile being rendered (tile-parallel rasterization may
     *               have several tiles between tileStart and tileEnd at
     *               once, so per-tile state must be keyed by it)
     * @param layer  layer identifier carried by the fragments
     * @param is_woz the primitive is WOZ (its writes update ZR)
     */
    virtual void onOpaqueWrites(int tile, const std::uint32_t *pixels,
                                int count, std::uint16_t layer,
                                bool is_woz, FrameStats &stats) = 0;

    /**
     * The tile finished rendering: derive L_far from the Layer Buffer,
     * resolve the FVP type against ZR and the tile's depth buffer, and
     * update the FVP Table.
     *
     * @param tile_depth tile-local Z Buffer, row-major, @p pixel_count
     *                   entries (clear-depth where never written)
     */
    virtual void tileEnd(int tile, const float *tile_depth, int pixel_count,
                         FrameStats &stats) = 0;

    /**
     * The tile was skipped by Rendering Elimination; its contents are
     * unchanged, so its FVP Table entry is left as-is.
     */
    virtual void tileSkipped(int tile) = 0;

    /**
     * Audit query: is the FVP entry stored for @p tile conservative
     * against the tile's true farthest depth @p max_depth (FVP >= it)?
     * Implementations without a prediction (or with an invalid entry)
     * return true.
     */
    virtual bool fvpConservative(int tile, float max_depth) const
    {
        (void)tile;
        (void)max_depth;
        return true;
    }

    /**
     * Safe degradation: forget @p tile's stored prediction so the next
     * frame treats every primitive there as predicted visible.
     */
    virtual void invalidatePrediction(int tile) { (void)tile; }
};

} // namespace evrsim

#endif // EVRSIM_GPU_PIPELINE_HOOKS_HPP
