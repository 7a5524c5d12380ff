/**
 * @file
 * Memory-access logs: the one way a frame's cache traffic reaches the
 * simulated memory hierarchy, serial or parallel.
 *
 * The simulated memory hierarchy is a single stateful machine: the
 * latency of every access depends on the exact global order of all
 * accesses before it. The work that issues the accesses, however, is
 * *computed* independently of them — texel values come straight from
 * the texture (not from simulated memory), and access latencies only
 * accumulate into statistics, never feeding back into rendering or
 * binning. So each producer records the ordered sequence of accesses
 * it *would* have issued, and a replay in the serial order then drives
 * the real MemorySystem with exactly the serial access stream — same
 * cache states, same latencies, same counters.
 *
 * A frame's stream has two segments. The geometry segment
 * (GeometryMemLog) holds the Polygon List Builder's vertex fetches and
 * Parameter Buffer writes in commit order. Then come the tiles' logs
 * (TileMemLog: display-list and attribute reads, texel fetches, Color
 * Buffer flushes) in tile order. RasterPipeline::run replays the
 * geometry segment just before tile 0's log; nothing else touches the
 * hierarchy in between.
 *
 * Both logs fold provable hits. An access folds into the entry that
 * last touched its line in the same cache when no other line of that
 * cache set was touched in between (CacheSetMap, the cache's own
 * placement). Such an access hits its set's most recently used line:
 * only a miss in the set can evict the line, and a miss would be a
 * touch of another line. Replay issues the folded accesses right after
 * their entry's own access, as MRU repeats (SetAssocCache::repeatRead,
 * repeatWrite). Moving them there changes nothing observable:
 *  - each repeat counts one hit and costs the hit latency, as the
 *    access would have wherever it was issued;
 *  - LRU stamps are compared only within a set: the line stays its
 *    set's newest, every other set keeps its order, and the shared LRU
 *    clock ends on the same value, so later victims are the same;
 *  - a write repeat sets the dirty bit before any eviction can see it;
 *  - hits never reach L2 or DRAM, so the misses and write-backs below
 *    keep their order.
 * The scope of the check is a cache that only the log itself touches
 * while it is recorded: each fragment unit's private, read-only
 * texture cache within one tile's log, and the Vertex Cache and the
 * Tile Cache within the geometry segment. Parameter reads and
 * framebuffer writes are logged as issued.
 */
#ifndef EVRSIM_GPU_TILE_MEM_LOG_HPP
#define EVRSIM_GPU_TILE_MEM_LOG_HPP

#include <cstdint>
#include <limits>
#include <vector>

#include "common/log.hpp"
#include "mem/memory_system.hpp"

namespace evrsim {

/**
 * Per set of one cache (or of several copies of it, one per fragment
 * unit), the log entry that last touched the set: the one entry a new
 * access of that set may fold into.
 */
class SetFoldTable
{
  public:
    static constexpr std::uint32_t kNoEntry =
        std::numeric_limits<std::uint32_t>::max();

    /** Forget every entry; the table covers @p copies of @p cache. */
    void
    reset(const CacheConfig &cache, unsigned copies)
    {
        map_ = CacheSetMap(cache);
        copies_ = copies;
        last_.assign(std::size_t{copies} * map_.sets(), kNoEntry);
    }

    const CacheSetMap &map() const { return map_; }

    /** The slot of @p line's set in copy @p copy. */
    std::uint32_t &
    last(unsigned copy, std::uint64_t line)
    {
        EVRSIM_ASSERT(copy < copies_);
        return last_[std::size_t{copy} * map_.sets() + map_.set(line)];
    }

    /**
     * Fold an access of line @p line (tested by @p same_line on an
     * entry) into @p log's entry in @p slot, or make the entry about to
     * be appended the set's last.
     *
     * @return true if the access was folded (append nothing)
     */
    template <class Entry, class SameLine>
    static bool
    fold(std::vector<Entry> &log, std::uint32_t &slot, SameLine same_line)
    {
        if (slot != kNoEntry) {
            Entry &prev = log[slot];
            if (same_line(prev) && prev.repeats != Entry::kMaxRepeats) {
                ++prev.repeats;
                return true;
            }
        }
        slot = static_cast<std::uint32_t>(log.size());
        return false;
    }

  private:
    CacheSetMap map_;
    unsigned copies_ = 0;
    std::vector<std::uint32_t> last_;
};

/** One recorded tile access, replayed verbatim against the MemorySystem. */
struct TileMemAccess {
    enum class Kind : std::uint8_t {
        ParamRead,        ///< Tile Cache read (display list / attributes)
        TextureFetch,     ///< texture-cache fetch of one fragment unit
        FramebufferWrite, ///< Color Buffer flush row segment
    };

    static constexpr std::uint32_t kMaxRepeats =
        std::numeric_limits<std::uint32_t>::max();

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
    explicit TileMemLog(const MemorySystemConfig &mem) { reset(mem); }

    /**
     * Empty the log for a new tile, keeping its buffer's capacity.
     * @p mem's texture caches (count and geometry) are the ones whose
     * fetches it folds.
     */
    void
    reset(const MemorySystemConfig &mem)
    {
        accesses_.clear();
        texture_.reset(mem.texture_cache, mem.num_texture_caches);
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
        const CacheSetMap &map = texture_.map();
        const std::uint64_t line = map.line(addr);
        // Within one line, so one cache access (and one repeat) each.
        EVRSIM_ASSERT(map.line(addr + bytes - 1) == line);
        if (SetFoldTable::fold(accesses_, texture_.last(unit, line),
                               [&](const TileMemAccess &prev) {
                                   return map.line(prev.addr) == line;
                               }))
            return;
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
     * The same accesses with every folded repeat spelled out as an
     * entry of its own right after its entry, re-fetching the entry's
     * address (the same line, so the cache sees what the original
     * fetch made it see). Tests and the replay microbenchmark compare
     * the two forms.
     */
    TileMemLog
    uncoalesced() const
    {
        TileMemLog raw = *this;
        raw.accesses_.clear();
        for (TileMemAccess a : accesses_) {
            const std::uint32_t repeats = a.repeats;
            a.repeats = 0;
            for (std::uint32_t i = 0; i <= repeats; ++i)
                raw.accesses_.push_back(a);
        }
        return raw;
    }

  private:
    std::vector<TileMemAccess> accesses_;
    /** Per unit and texture-cache set: the unit's last fetch entry. */
    SetFoldTable texture_;
};

/**
 * One access of the geometry segment: one line of the Vertex Cache
 * (a read) or of the Tile Cache (a write), and the accesses folded
 * into it.
 */
struct GeometryMemAccess {
    static constexpr std::uint32_t kMaxRepeats = (1u << 31) - 1;

    std::uint32_t line;         ///< line number in its cache
    std::uint32_t repeats : 31; ///< further accesses folded into it
    std::uint32_t write : 1;    ///< Tile Cache write, else Vertex Cache read
};

static_assert(sizeof(GeometryMemAccess) == 8,
              "a frame's geometry log stays small next to its tiles'");

/**
 * The frame's geometry segment: the vertex fetches and the Parameter
 * Buffer attribute and list writes of the ordered geometry commit, in
 * commit order, one entry per cache line touched. The geometry pipeline
 * keeps one for the whole frame and resets it per frame, so its buffer
 * keeps the previous frame's size.
 */
class GeometryMemLog
{
  public:
    /** An empty log that accepts no access until reset(). */
    GeometryMemLog() = default;

    /** See reset(). */
    explicit GeometryMemLog(const MemorySystemConfig &mem) { reset(mem); }

    /**
     * Empty the log for a new frame, keeping its buffer's capacity.
     * @p mem's Vertex Cache and Tile Cache are the ones it folds for.
     */
    void
    reset(const MemorySystemConfig &mem)
    {
        accesses_.clear();
        vertex_.reset(mem.vertex_cache, 1);
        tile_.reset(mem.tile_cache, 1);
    }

    /** Vertex Cache read of @p bytes at @p addr. */
    void
    vertexFetch(Addr addr, unsigned bytes)
    {
        record(vertex_, addr, bytes, false);
    }

    /** Tile Cache write of @p bytes at @p addr (the Parameter Buffer). */
    void
    parameterWrite(Addr addr, unsigned bytes)
    {
        record(tile_, addr, bytes, true);
    }

    const std::vector<GeometryMemAccess> &
    accesses() const
    {
        return accesses_;
    }

    /**
     * Issue the logged accesses against @p mem in log order.
     *
     * @return their summed latency (the geometry pass's memory stalls)
     */
    Cycles
    replay(MemorySystem &mem) const
    {
        const unsigned vertex_shift = vertex_.map().lineShift();
        const unsigned tile_shift = tile_.map().lineShift();
        Cycles latency = 0;
        for (const GeometryMemAccess &a : accesses_) {
            if (a.write) {
                const Addr addr = Addr{a.line} << tile_shift;
                latency += mem.parameterWrite(addr, 1).latency;
                if (a.repeats != 0)
                    latency += mem.parameterWriteRepeat(addr, a.repeats);
            } else {
                const Addr addr = Addr{a.line} << vertex_shift;
                latency += mem.vertexFetch(addr, 1).latency;
                if (a.repeats != 0)
                    latency += mem.vertexRepeat(addr, a.repeats);
            }
        }
        return latency;
    }

    /** The same accesses with every folded repeat an entry of its own,
     *  right after its entry (see TileMemLog::uncoalesced). */
    GeometryMemLog
    uncoalesced() const
    {
        GeometryMemLog raw = *this;
        raw.accesses_.clear();
        for (GeometryMemAccess a : accesses_) {
            const std::uint32_t repeats = a.repeats;
            a.repeats = 0;
            for (std::uint32_t i = 0; i <= repeats; ++i)
                raw.accesses_.push_back(a);
        }
        return raw;
    }

  private:
    /** Log one access per line of [addr, addr + bytes), each folded
     *  where its set allows: exactly the lines SetAssocCache::access
     *  walks, in its order. */
    void
    record(SetFoldTable &cache, Addr addr, unsigned bytes, bool write)
    {
        EVRSIM_ASSERT(bytes > 0);
        const CacheSetMap &map = cache.map();
        const std::uint64_t last = map.line(addr + bytes - 1);
        EVRSIM_ASSERT(last <= std::numeric_limits<std::uint32_t>::max());
        for (std::uint64_t line = map.line(addr); line <= last; ++line) {
            if (SetFoldTable::fold(accesses_, cache.last(0, line),
                                   [&](const GeometryMemAccess &prev) {
                                       return prev.line == line;
                                   }))
                continue;
            accesses_.push_back(
                {static_cast<std::uint32_t>(line), 0, write ? 1u : 0u});
        }
    }

    std::vector<GeometryMemAccess> accesses_;
    SetFoldTable vertex_; ///< Vertex Cache sets (reads only)
    SetFoldTable tile_;   ///< Tile Cache sets (writes only, here)
};

} // namespace evrsim

#endif // EVRSIM_GPU_TILE_MEM_LOG_HPP
