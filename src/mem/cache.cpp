/**
 * @file
 * Set-associative cache implementation (cold parts; the hit path is
 * inline in the header).
 */
#include "mem/cache.hpp"

namespace evrsim {

namespace {

bool
isPowerOfTwo(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

unsigned
log2Exact(unsigned v)
{
    unsigned s = 0;
    while ((1u << s) < v)
        ++s;
    return s;
}

} // namespace

void
CacheStats::accumulate(const CacheStats &other)
{
    reads += other.reads;
    writes += other.writes;
    read_misses += other.read_misses;
    write_misses += other.write_misses;
    writebacks += other.writebacks;
}

CacheSetMap::CacheSetMap(const CacheConfig &config)
{
    EVRSIM_ASSERT(isPowerOfTwo(config.line_bytes));
    EVRSIM_ASSERT(config.ways > 0);
    EVRSIM_ASSERT(config.size_bytes % (config.line_bytes * config.ways) == 0);
    sets_ = config.size_bytes / (config.line_bytes * config.ways);
    EVRSIM_ASSERT(sets_ > 0);
    line_shift_ = log2Exact(config.line_bytes);
    sets_pow2_ = isPowerOfTwo(sets_);
    set_shift_ = sets_pow2_ ? log2Exact(sets_) : 0;
}

void
SetAssocCache::initGeometry()
{
    map_ = CacheSetMap(config_);
    lines_.assign(static_cast<std::size_t>(map_.sets()) * config_.ways,
                  Line{});
}

SetAssocCache::SetAssocCache(const CacheConfig &config, SetAssocCache *next)
    : config_(config), next_cache_(next)
{
    EVRSIM_ASSERT(next != nullptr);
    initGeometry();
}

SetAssocCache::SetAssocCache(const CacheConfig &config, DramModel *dram)
    : config_(config), dram_(dram)
{
    EVRSIM_ASSERT(dram != nullptr);
    initGeometry();
}

AccessResult
SetAssocCache::forward(Addr line_addr, bool write, TrafficClass cls)
{
    if (next_cache_)
        return next_cache_->access(line_addr, config_.line_bytes, write, cls);
    return dram_->access(line_addr, config_.line_bytes, write, cls);
}

Cycles
SetAssocCache::missLine(Addr line_addr, Line *set_lines, unsigned set,
                        std::uint64_t tag, bool write, TrafficClass cls,
                        bool &hit)
{
    // Pick the LRU victim.
    hit = false;
    unsigned victim = 0;
    for (unsigned w = 1; w < config_.ways; ++w) {
        if (!set_lines[w].valid) {
            victim = w;
            break;
        }
        if (set_lines[w].lru < set_lines[victim].lru)
            victim = w;
    }

    Line &line = set_lines[victim];
    Cycles latency = config_.hit_latency;

    if (line.valid && line.dirty) {
        // Write back the victim. Reconstruct its address from tag/set.
        Addr victim_addr =
            (line.tag * map_.sets() + set) * config_.line_bytes;
        forward(victim_addr, true, cls);
        ++stats_.writebacks;
    }

    // Fetch the new line (write-allocate: writes fetch too).
    AccessResult fill = forward(line_addr, false, cls);
    latency += fill.latency;

    line.valid = true;
    line.dirty = write;
    line.tag = tag;
    line.lru = lru_clock_;
    victim_way_ = victim;
    return latency;
}

void
SetAssocCache::flush(TrafficClass cls)
{
    mru_line_no_ = kNoLine;
    for (unsigned set = 0; set < map_.sets(); ++set) {
        for (unsigned w = 0; w < config_.ways; ++w) {
            Line &line = lines_[static_cast<std::size_t>(set) * config_.ways +
                                w];
            if (line.valid && line.dirty) {
                Addr addr =
                    (line.tag * map_.sets() + set) * config_.line_bytes;
                forward(addr, true, cls);
                ++stats_.writebacks;
            }
            line = Line{};
        }
    }
}

} // namespace evrsim
