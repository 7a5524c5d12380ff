/**
 * @file
 * The full Mali-450-like memory hierarchy of Table II.
 *
 *   Vertex Cache (4 KB)   ─┐
 *   Texture Caches (4×8KB) ┼──> L2 (256 KB) ──> DRAM (LPDDR3 model)
 *   Tile Cache (128 KB)   ─┘
 *
 * The on-chip Color/Depth/Layer buffers are SRAMs local to the raster
 * pipeline and are not part of this hierarchy; their energy is accounted
 * separately. Framebuffer flushes bypass the caches (streaming writes) and
 * go straight to DRAM, as TBR hardware does.
 */
#ifndef EVRSIM_MEM_MEMORY_SYSTEM_HPP
#define EVRSIM_MEM_MEMORY_SYSTEM_HPP

#include <array>
#include <memory>

#include "mem/address_space.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"

namespace evrsim {

/** Hierarchy-wide configuration (defaults = Table II). */
struct MemorySystemConfig {
    DramConfig dram;
    CacheConfig vertex_cache{"vertex", 4 * 1024, 64, 2, 1};
    CacheConfig texture_cache{"texture", 8 * 1024, 64, 2, 1};
    unsigned num_texture_caches = 4;
    CacheConfig tile_cache{"tile", 128 * 1024, 64, 8, 1};
    CacheConfig l2_cache{"l2", 256 * 1024, 64, 8, 2};
};

/** Snapshot of all hierarchy counters. */
struct MemorySystemStats {
    CacheStats vertex_cache;
    CacheStats texture_caches; ///< all texture caches combined
    CacheStats tile_cache;
    CacheStats l2_cache;
    DramStats dram;

    void accumulate(const MemorySystemStats &other);
};

/**
 * Owns and wires the cache hierarchy; exposes one entry point per
 * pipeline consumer.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemorySystemConfig &config = {});

    // The per-access entry points are inline: each is a one-line
    // dispatch into SetAssocCache::access (itself header-inline) on a
    // path hit tens of millions of times per sweep, and the build has
    // no LTO to collapse the calls across translation units.

    /** Vertex attribute fetch (Geometry Pipeline). */
    AccessResult
    vertexFetch(Addr addr, unsigned size)
    {
        return vertex_cache_.access(addr, size, false,
                                    TrafficClass::VertexFetch);
    }

    /**
     * @p n more vertex fetches of the line the vertex cache's previous
     * access touched (@p addr lies in it): SetAssocCache::repeatRead.
     */
    Cycles
    vertexRepeat(Addr addr, std::uint64_t n)
    {
        return vertex_cache_.repeatRead(addr, n);
    }

    /** Parameter Buffer write at binning time. */
    AccessResult
    parameterWrite(Addr addr, unsigned size)
    {
        return tile_cache_.access(addr, size, true,
                                  TrafficClass::ParameterBuffer);
    }

    /**
     * @p n more Parameter Buffer writes of the line the tile cache's
     * previous access touched (@p addr lies in it): the dirty MRU hits
     * of SetAssocCache::repeatWrite.
     */
    Cycles
    parameterWriteRepeat(Addr addr, std::uint64_t n)
    {
        return tile_cache_.repeatWrite(addr, n);
    }

    /** Parameter Buffer / Display List read at raster time. */
    AccessResult
    parameterRead(Addr addr, unsigned size)
    {
        return tile_cache_.access(addr, size, false,
                                  TrafficClass::ParameterBuffer);
    }

    /**
     * Texture fetch from fragment processor @p unit (0..3). Each fragment
     * processor owns one texture cache (Table II: 4 texture caches).
     */
    AccessResult
    textureFetch(unsigned unit, Addr addr, unsigned size)
    {
        EVRSIM_ASSERT(unit < texture_caches_.size());
        return texture_caches_[unit]->access(addr, size, false,
                                             TrafficClass::Texture);
    }

    /**
     * @p n more texture fetches by @p unit of the line its previous
     * fetch touched (@p addr lies in it): the n MRU hits of
     * SetAssocCache::repeatRead.
     */
    Cycles
    textureRepeat(unsigned unit, Addr addr, std::uint64_t n)
    {
        EVRSIM_ASSERT(unit < texture_caches_.size());
        return texture_caches_[unit]->repeatRead(addr, n);
    }

    /** Streaming Color Buffer flush (tile -> framebuffer). */
    AccessResult
    framebufferWrite(Addr addr, unsigned size)
    {
        // Streaming store: bypasses the cache hierarchy.
        return dram_.access(addr, size, true, TrafficClass::Framebuffer);
    }

    /** Miscellaneous DRAM traffic (command lists, state). */
    AccessResult
    otherAccess(Addr addr, unsigned size, bool write)
    {
        return dram_.access(addr, size, write, TrafficClass::Other);
    }

    /** Aggregate counters of every level. */
    MemorySystemStats stats() const;

    /** Zero all counters (cache/DRAM state is preserved). */
    void clearStats();

    AddressSpace &addressSpace() { return address_space_; }
    const MemorySystemConfig &config() const { return config_; }
    DramModel &dram() { return dram_; }

  private:
    MemorySystemConfig config_;
    AddressSpace address_space_;
    DramModel dram_;
    SetAssocCache l2_;
    SetAssocCache vertex_cache_;
    SetAssocCache tile_cache_;
    std::vector<std::unique_ptr<SetAssocCache>> texture_caches_;
};

} // namespace evrsim

#endif // EVRSIM_MEM_MEMORY_SYSTEM_HPP
