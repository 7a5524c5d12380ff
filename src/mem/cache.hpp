/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * The caches of the Mali-450-like hierarchy in Table II (vertex cache,
 * texture caches, tile cache, L2) are instances of this class. The model
 * is functional with respect to tags only: it tracks which lines are
 * resident and dirty, forwards misses and write-backs to the next level,
 * and counts every event the energy/timing models need. Data contents are
 * not stored — producers compute values functionally and the hierarchy is
 * consulted for latency/traffic.
 *
 * Policy: write-back, write-allocate.
 */
#ifndef EVRSIM_MEM_CACHE_HPP
#define EVRSIM_MEM_CACHE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "mem/dram.hpp"
#include "mem/mem_types.hpp"

namespace evrsim {

/** Static configuration of one cache. */
struct CacheConfig {
    std::string name = "cache";
    unsigned size_bytes = 4096;
    unsigned line_bytes = 64;
    unsigned ways = 2;
    Cycles hit_latency = 1;
};

/** Event counters for one cache. */
struct CacheStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_misses = 0;
    std::uint64_t write_misses = 0;
    std::uint64_t writebacks = 0;

    std::uint64_t accesses() const { return reads + writes; }
    std::uint64_t misses() const { return read_misses + write_misses; }

    /** Miss ratio in [0, 1]; 0 when there were no accesses. */
    double
    missRatio() const
    {
        auto a = accesses();
        return a == 0 ? 0.0 : static_cast<double>(misses()) / a;
    }

    void accumulate(const CacheStats &other);
};

/**
 * Where a cache keeps an address: its line number, and the set and tag
 * of that line. SetAssocCache indexes through this map, so a log that
 * folds accesses by set (gpu/tile_mem_log.hpp) sees exactly the
 * cache's own placement. Every configured geometry is a power of two;
 * the division fallback covers any that is not.
 */
class CacheSetMap
{
  public:
    /** A map that holds nothing (one set, line = address). */
    CacheSetMap() = default;

    explicit CacheSetMap(const CacheConfig &config);

    unsigned sets() const { return sets_; }
    unsigned lineShift() const { return line_shift_; }

    std::uint64_t line(Addr addr) const { return addr >> line_shift_; }

    unsigned
    set(std::uint64_t line_no) const
    {
        return sets_pow2_ ? static_cast<unsigned>(line_no) & (sets_ - 1)
                          : static_cast<unsigned>(line_no % sets_);
    }

    std::uint64_t
    tag(std::uint64_t line_no) const
    {
        return sets_pow2_ ? line_no >> set_shift_ : line_no / sets_;
    }

  private:
    unsigned sets_ = 1;
    unsigned line_shift_ = 0; ///< log2(line_bytes)
    unsigned set_shift_ = 0;  ///< log2(sets_) when sets_pow2_
    bool sets_pow2_ = true;
};

/**
 * One level of cache. Misses are forwarded either to another cache or to
 * DRAM, whichever was wired in.
 */
class SetAssocCache
{
  public:
    /**
     * Build a cache backed by another cache level.
     * @param config geometry and latency
     * @param next   the next cache level (not owned)
     */
    SetAssocCache(const CacheConfig &config, SetAssocCache *next);

    /**
     * Build a cache backed directly by DRAM.
     */
    SetAssocCache(const CacheConfig &config, DramModel *dram);

    /**
     * Access @p size bytes starting at @p addr. Requests spanning several
     * lines touch each line once.
     *
     * Defined in the header: this is the single hottest call in a
     * simulation (every fragment's texture fetch and framebuffer
     * traffic lands here, tens of millions of calls per sweep) and the
     * build has no LTO to inline it across translation units.
     *
     * @return aggregate latency and whether every line hit in this level.
     */
    AccessResult
    access(Addr addr, unsigned size, bool write, TrafficClass cls)
    {
        EVRSIM_ASSERT(size > 0);

        Addr first_line = addr & ~static_cast<Addr>(config_.line_bytes - 1);
        Addr last_line = (addr + size - 1) &
                         ~static_cast<Addr>(config_.line_bytes - 1);

        AccessResult result;
        result.hit = true;
        for (Addr line_addr = first_line; line_addr <= last_line;
             line_addr += config_.line_bytes) {
            if (write)
                ++stats_.writes;
            else
                ++stats_.reads;

            bool hit = false;
            result.latency += accessLine(line_addr, write, cls, hit);
            if (!hit) {
                result.hit = false;
                if (write)
                    ++stats_.write_misses;
                else
                    ++stats_.read_misses;
            }
        }
        return result;
    }

    /**
     * @p n more reads of the line the previous access touched, which
     * must hold @p addr: exactly what @p n calls of access(addr, ...,
     * read) would do, since each is a hit on the MRU line (reads += n,
     * the LRU clock advances by n and stamps that line, no miss, no
     * traffic below this level).
     *
     * @return the n hits' total latency
     */
    Cycles
    repeatRead(Addr addr, std::uint64_t n)
    {
        EVRSIM_ASSERT(map_.line(addr) == mru_line_no_);
        stats_.reads += n;
        lru_clock_ += n;
        lines_[mru_index_].lru = lru_clock_;
        return n * config_.hit_latency;
    }

    /** repeatRead for writes: @p n write hits on the MRU line, which
     *  they leave dirty. */
    Cycles
    repeatWrite(Addr addr, std::uint64_t n)
    {
        EVRSIM_ASSERT(map_.line(addr) == mru_line_no_);
        stats_.writes += n;
        lru_clock_ += n;
        lines_[mru_index_].lru = lru_clock_;
        lines_[mru_index_].dirty = true;
        return n * config_.hit_latency;
    }

    /** Invalidate all lines, writing back dirty ones. */
    void flush(TrafficClass cls);

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats{}; }

    unsigned numSets() const { return map_.sets(); }
    const CacheSetMap &setMap() const { return map_; }

  private:
    struct Line {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0; ///< larger = more recently used
    };

    /** Check the geometry and size lines_. */
    void initGeometry();

    /**
     * Access one whole line; returns latency. The hit path — an LRU
     * bump in a 2..8-way set — is the bulk of all calls, so the index
     * math uses CacheSetMap's precomputed shifts/masks.
     *
     * A re-access of the line the previous call touched (consecutive
     * texels of one fragment row, a display list read entry by entry)
     * skips the set scan: that line is valid, resident at mru_index_
     * and already the most recent of its set, so bumping its LRU stamp
     * and dirty bit is exactly what the scan would do. Every path that
     * changes a line's identity (miss fill, flush) re-points or resets
     * the filter.
     */
    Cycles
    accessLine(Addr line_addr, bool write, TrafficClass cls, bool &hit)
    {
        std::uint64_t line_no = map_.line(line_addr);
        ++lru_clock_;
        if (line_no == mru_line_no_) {
            Line &line = lines_[mru_index_];
            line.lru = lru_clock_;
            if (write)
                line.dirty = true;
            hit = true;
            return config_.hit_latency;
        }

        const unsigned set = map_.set(line_no);
        const std::uint64_t tag = map_.tag(line_no);
        const std::size_t set_base =
            static_cast<std::size_t>(set) * config_.ways;
        Line *set_lines = &lines_[set_base];

        // Lookup.
        for (unsigned w = 0; w < config_.ways; ++w) {
            Line &line = set_lines[w];
            if (line.valid && line.tag == tag) {
                line.lru = lru_clock_;
                if (write)
                    line.dirty = true;
                hit = true;
                mru_line_no_ = line_no;
                mru_index_ = set_base + w;
                return config_.hit_latency;
            }
        }
        Cycles latency =
            missLine(line_addr, set_lines, set, tag, write, cls, hit);
        mru_line_no_ = line_no;
        mru_index_ = set_base + victim_way_;
        return latency;
    }

    /** Miss path of accessLine: victim selection, writeback, fill. */
    Cycles missLine(Addr line_addr, Line *set_lines, unsigned set,
                    std::uint64_t tag, bool write, TrafficClass cls,
                    bool &hit);

    /** Forward a whole-line request to the next level. */
    AccessResult forward(Addr line_addr, bool write, TrafficClass cls);

    CacheConfig config_;
    SetAssocCache *next_cache_ = nullptr;
    DramModel *dram_ = nullptr;
    CacheSetMap map_;
    std::uint64_t lru_clock_ = 0;
    std::vector<Line> lines_; ///< sets * ways, set-major
    /** Line number of the last line accessed (kNoLine: none), and its
     *  slot in lines_. A line number is addr >> lineShift(), so it can
     *  never equal kNoLine. */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};
    std::uint64_t mru_line_no_ = kNoLine;
    std::size_t mru_index_ = 0;
    unsigned victim_way_ = 0; ///< way the last missLine filled
    CacheStats stats_;
};

} // namespace evrsim

#endif // EVRSIM_MEM_CACHE_HPP
