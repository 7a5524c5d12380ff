/**
 * @file
 * Per-tile memory-access log: the one way a rendered tile's accesses
 * reach the simulated memory hierarchy, serial or tile-parallel.
 *
 * The simulated memory hierarchy is a single stateful machine: the
 * latency of every access depends on the exact global order of all
 * accesses before it. Tiles, however, are *computed* independently —
 * texel values come straight from the texture (not from simulated
 * memory), and access latencies only accumulate into statistics, never
 * feeding back into rendering. That split is what makes tile-parallel
 * rendering bit-identical to serial: each tile worker renders purely and
 * records the ordered sequence of accesses it *would* have issued, and
 * a replay in tile order then drives the real MemorySystem with exactly
 * the access stream of the serial renderer — same cache states, same
 * latencies, same counters.
 *
 * Texel fetches are run-length encoded: a fetch that hits the same
 * texture-cache line as its unit's previous logged fetch is folded
 * into that entry as a repeat, and replay issues the repeats as MRU
 * hits (MemorySystem::textureRepeat). That moves them ahead of any
 * accesses logged in between, which is exact: those accesses are other
 * units' fetches, parameter reads and framebuffer writes, which never
 * reach this unit's private read-only texture cache, and its repeats
 * are hits that never reach L2 or DRAM.
 */
#ifndef EVRSIM_GPU_TILE_MEM_LOG_HPP
#define EVRSIM_GPU_TILE_MEM_LOG_HPP

#include <cstdint>
#include <limits>
#include <vector>

#include "common/log.hpp"
#include "mem/memory_system.hpp"

namespace evrsim {

/** One recorded access, replayed verbatim against the MemorySystem. */
struct TileMemAccess {
    enum class Kind : std::uint8_t {
        ParamRead,        ///< Tile Cache read (display list / attributes)
        TextureFetch,     ///< texture-cache fetch of one fragment unit
        FramebufferWrite, ///< Color Buffer flush row segment
    };

    Kind kind;
    std::uint8_t unit = 0; ///< fragment unit (TextureFetch only)
    std::uint16_t bytes = 0;
    /** Further fetches of this entry's line by the same unit folded
     *  into it (TextureFetch only). */
    std::uint32_t repeats = 0;
    Addr addr = 0;
};

static_assert(sizeof(TileMemAccess) == 16,
              "the repeat count lives in what was padding");

/**
 * Ordered access log of one tile's render: the only way a rendering
 * tile reaches the MemorySystem. Serial tiles replay it as soon as the
 * tile has rendered; tile-parallel ones in tile order as they finish.
 */
class TileMemLog
{
  public:
    /** An empty log that accepts no fetch until reset(). */
    TileMemLog() = default;

    /** See reset(). */
    TileMemLog(unsigned texture_units, unsigned texture_line_bytes)
    {
        reset(texture_units, texture_line_bytes);
    }

    /**
     * Empty the log for a new tile, keeping its buffer's capacity.
     *
     * @param texture_units      fragment units (texture caches) whose
     *                           fetches may be logged
     * @param texture_line_bytes texture-cache line size, the unit of
     *                           fetch coalescing
     */
    void
    reset(unsigned texture_units, unsigned texture_line_bytes)
    {
        EVRSIM_ASSERT(texture_line_bytes != 0 &&
                      (texture_line_bytes & (texture_line_bytes - 1)) == 0);
        accesses_.clear();
        last_fetch_.assign(texture_units, kNoEntry);
        line_shift_ = 0;
        while ((1u << line_shift_) < texture_line_bytes)
            ++line_shift_;
    }

    void
    paramRead(Addr addr, unsigned bytes)
    {
        accesses_.push_back({TileMemAccess::Kind::ParamRead, 0,
                             static_cast<std::uint16_t>(bytes), 0, addr});
    }

    void
    textureFetch(unsigned unit, Addr addr, unsigned bytes)
    {
        // Within one line, so one cache access (and one repeat) each.
        EVRSIM_ASSERT(((addr ^ (addr + bytes - 1)) >> line_shift_) == 0);
        EVRSIM_ASSERT(unit < last_fetch_.size());
        std::uint32_t &last = last_fetch_[unit];
        if (last != kNoEntry) {
            TileMemAccess &prev = accesses_[last];
            if (((prev.addr ^ addr) >> line_shift_) == 0 &&
                prev.repeats != std::numeric_limits<std::uint32_t>::max()) {
                ++prev.repeats;
                return;
            }
        }
        last = static_cast<std::uint32_t>(accesses_.size());
        accesses_.push_back({TileMemAccess::Kind::TextureFetch,
                             static_cast<std::uint8_t>(unit),
                             static_cast<std::uint16_t>(bytes), 0, addr});
    }

    void
    framebufferWrite(Addr addr, unsigned bytes)
    {
        accesses_.push_back({TileMemAccess::Kind::FramebufferWrite, 0,
                             static_cast<std::uint16_t>(bytes), 0, addr});
    }

    const std::vector<TileMemAccess> &accesses() const { return accesses_; }

    /**
     * Issue the logged accesses against @p mem in log order.
     *
     * @return the latency the tile is charged: parameter reads and
     *         texture fetches (framebuffer writes are not waited on)
     */
    Cycles
    replay(MemorySystem &mem) const
    {
        Cycles latency = 0;
        for (const TileMemAccess &a : accesses_) {
            switch (a.kind) {
              case TileMemAccess::Kind::ParamRead:
                latency += mem.parameterRead(a.addr, a.bytes).latency;
                break;
              case TileMemAccess::Kind::TextureFetch:
                latency += mem.textureFetch(a.unit, a.addr, a.bytes).latency;
                if (a.repeats != 0)
                    latency += mem.textureRepeat(a.unit, a.addr, a.repeats);
                break;
              case TileMemAccess::Kind::FramebufferWrite:
                mem.framebufferWrite(a.addr, a.bytes);
                break;
            }
        }
        return latency;
    }

    /**
     * The same access stream with every folded repeat spelled out as
     * an entry of its own, re-fetching the entry's address (the same
     * line, so the cache sees what the original fetch made it see).
     * Tests and the replay microbenchmark compare the two forms.
     */
    TileMemLog
    uncoalesced() const
    {
        TileMemLog raw = *this;
        raw.accesses_.clear();
        raw.last_fetch_.assign(last_fetch_.size(), kNoEntry);
        for (TileMemAccess a : accesses_) {
            const std::uint32_t repeats = a.repeats;
            a.repeats = 0;
            for (std::uint32_t i = 0; i <= repeats; ++i)
                raw.accesses_.push_back(a);
        }
        return raw;
    }

  private:
    static constexpr std::uint32_t kNoEntry =
        std::numeric_limits<std::uint32_t>::max();

    std::vector<TileMemAccess> accesses_;
    /** Per unit: index of its last TextureFetch entry (kNoEntry: none). */
    std::vector<std::uint32_t> last_fetch_;
    unsigned line_shift_ = 0; ///< log2(texture_line_bytes)
};

} // namespace evrsim

#endif // EVRSIM_GPU_TILE_MEM_LOG_HPP
