/**
 * @file
 * Unit tests for the memory hierarchy: DRAM model, set-associative
 * caches (hits, LRU replacement, write-back), the Table II wiring and
 * the simulated address space.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "mem/address_space.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/memory_system.hpp"

using namespace evrsim;

// --------------------------------------------------------------- DRAM --

TEST(Dram, FirstAccessIsRowMissSecondIsHit)
{
    DramModel dram;
    AccessResult first = dram.access(0x1000, 64, false,
                                     TrafficClass::Texture);
    AccessResult second = dram.access(0x1040, 64, false,
                                      TrafficClass::Texture);
    EXPECT_GT(first.latency, second.latency);
    EXPECT_EQ(dram.stats().row_misses, 1u);
    EXPECT_EQ(dram.stats().row_hits, 1u);
}

TEST(Dram, LatencyIncludesTransferTime)
{
    DramConfig cfg;
    cfg.row_hit_latency = 10;
    cfg.row_miss_latency = 20;
    cfg.bytes_per_cycle = 4;
    DramModel dram(cfg);
    // 64 bytes at 4 B/cycle = 16 transfer cycles + 20 miss latency.
    EXPECT_EQ(dram.access(0, 64, false, TrafficClass::Other).latency, 36u);
}

TEST(Dram, TrafficIsClassified)
{
    DramModel dram;
    dram.access(0, 100, false, TrafficClass::Texture);
    dram.access(0x100000, 50, true, TrafficClass::Framebuffer);
    const DramStats &s = dram.stats();
    EXPECT_EQ(s.read_bytes[static_cast<int>(TrafficClass::Texture)], 100u);
    EXPECT_EQ(s.write_bytes[static_cast<int>(TrafficClass::Framebuffer)],
              50u);
    EXPECT_EQ(s.totalBytes(), 150u);
}

TEST(Dram, DistinctRowsConflictInSameBank)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.banks_per_channel = 1;
    cfg.row_bytes = 1024;
    DramModel dram(cfg);
    dram.access(0, 4, false, TrafficClass::Other);       // opens row 0
    dram.access(0, 4, false, TrafficClass::Other);       // row hit
    dram.access(4096, 4, false, TrafficClass::Other);    // row conflict
    EXPECT_EQ(dram.stats().row_hits, 1u);
    EXPECT_EQ(dram.stats().row_misses, 2u);
}

TEST(Dram, StatsAccumulate)
{
    DramStats a, b;
    a.read_bytes[0] = 10;
    a.accesses = 1;
    b.read_bytes[0] = 5;
    b.accesses = 2;
    b.bus_busy_cycles = 7;
    a.accumulate(b);
    EXPECT_EQ(a.read_bytes[0], 15u);
    EXPECT_EQ(a.accesses, 3u);
    EXPECT_EQ(a.bus_busy_cycles, 7u);
}

// -------------------------------------------------------------- Cache --

namespace {

CacheConfig
smallCache(unsigned size, unsigned ways)
{
    CacheConfig c;
    c.name = "test";
    c.size_bytes = size;
    c.line_bytes = 64;
    c.ways = ways;
    c.hit_latency = 1;
    return c;
}

} // namespace

TEST(Cache, MissThenHit)
{
    DramModel dram;
    SetAssocCache cache(smallCache(1024, 2), &dram);
    AccessResult miss = cache.access(0, 4, false, TrafficClass::Texture);
    AccessResult hit = cache.access(0, 4, false, TrafficClass::Texture);
    EXPECT_FALSE(miss.hit);
    EXPECT_TRUE(hit.hit);
    EXPECT_GT(miss.latency, hit.latency);
    EXPECT_EQ(hit.latency, 1u);
    EXPECT_EQ(cache.stats().read_misses, 1u);
    EXPECT_EQ(cache.stats().reads, 2u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    DramModel dram;
    SetAssocCache cache(smallCache(1024, 2), &dram);
    cache.access(0, 4, false, TrafficClass::Other);
    EXPECT_TRUE(cache.access(60, 4, false, TrafficClass::Other).hit);
}

TEST(Cache, RequestSpanningTwoLinesTouchesBoth)
{
    DramModel dram;
    SetAssocCache cache(smallCache(1024, 2), &dram);
    cache.access(60, 8, false, TrafficClass::Other); // spans lines 0 and 1
    EXPECT_EQ(cache.stats().reads, 2u);
    EXPECT_EQ(cache.stats().read_misses, 2u);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way, 64 B lines, 2 sets -> conflicting addresses are multiples
    // of 128.
    DramModel dram;
    SetAssocCache cache(smallCache(256, 2), &dram);
    cache.access(0, 4, false, TrafficClass::Other);    // A -> set 0
    cache.access(128, 4, false, TrafficClass::Other);  // B -> set 0
    cache.access(0, 4, false, TrafficClass::Other);    // touch A (B is LRU)
    cache.access(256, 4, false, TrafficClass::Other);  // C evicts B
    EXPECT_TRUE(cache.access(0, 4, false, TrafficClass::Other).hit);
    EXPECT_FALSE(cache.access(128, 4, false, TrafficClass::Other).hit);
}

TEST(Cache, WritebackOnDirtyEviction)
{
    DramModel dram;
    SetAssocCache cache(smallCache(128, 1), &dram); // 2 sets, direct-mapped
    cache.access(0, 4, true, TrafficClass::Other);   // dirty line in set 0
    cache.access(128, 4, false, TrafficClass::Other); // evicts dirty line
    EXPECT_EQ(cache.stats().writebacks, 1u);
    // The write-back reached DRAM as a write.
    EXPECT_GT(dram.stats().totalWriteBytes(), 0u);
}

TEST(Cache, CleanEvictionDoesNotWriteBack)
{
    DramModel dram;
    SetAssocCache cache(smallCache(128, 1), &dram);
    cache.access(0, 4, false, TrafficClass::Other);
    cache.access(128, 4, false, TrafficClass::Other);
    EXPECT_EQ(cache.stats().writebacks, 0u);
    EXPECT_EQ(dram.stats().totalWriteBytes(), 0u);
}

TEST(Cache, WriteAllocateFetchesLine)
{
    DramModel dram;
    SetAssocCache cache(smallCache(1024, 2), &dram);
    cache.access(0, 4, true, TrafficClass::Other);
    // The line was fetched (read traffic), then dirtied.
    EXPECT_GT(dram.stats().totalReadBytes(), 0u);
    EXPECT_TRUE(cache.access(0, 4, false, TrafficClass::Other).hit);
}

TEST(Cache, FlushWritesDirtyLinesAndInvalidates)
{
    DramModel dram;
    SetAssocCache cache(smallCache(1024, 2), &dram);
    cache.access(0, 4, true, TrafficClass::Other);
    cache.access(64, 4, false, TrafficClass::Other);
    cache.flush(TrafficClass::Other);
    EXPECT_EQ(cache.stats().writebacks, 1u);
    EXPECT_FALSE(cache.access(0, 4, false, TrafficClass::Other).hit);
}

TEST(Cache, TwoLevelMissPropagates)
{
    DramModel dram;
    SetAssocCache l2(smallCache(4096, 4), &dram);
    SetAssocCache l1(smallCache(512, 2), &l2);
    l1.access(0, 4, false, TrafficClass::Texture);
    EXPECT_EQ(l2.stats().reads, 1u);
    EXPECT_EQ(dram.stats().accesses, 1u);
    // L1 hit: no L2 traffic.
    l1.access(0, 4, false, TrafficClass::Texture);
    EXPECT_EQ(l2.stats().reads, 1u);
    // L1 conflict miss that hits in L2: no extra DRAM traffic.
    l1.access(512, 4, false, TrafficClass::Texture);
    l1.access(1024, 4, false, TrafficClass::Texture); // evicts 0 from L1
    l1.access(0, 4, false, TrafficClass::Texture);    // L2 hit
    EXPECT_EQ(dram.stats().accesses, 3u);
}

TEST(Cache, MissRatioComputation)
{
    CacheStats s;
    s.reads = 8;
    s.writes = 2;
    s.read_misses = 3;
    s.write_misses = 2;
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.5);
    CacheStats empty;
    EXPECT_DOUBLE_EQ(empty.missRatio(), 0.0);
}

// ------------------------------------------------ Cache MRU filter --

namespace {

/**
 * The set-associative LRU cache without the MRU-line filter: every
 * access scans its set. The differential test below drives it and
 * SetAssocCache with the same stream and expects identical results.
 */
class ReferenceCache
{
  public:
    ReferenceCache(const CacheConfig &config, ReferenceCache *next,
                   DramModel *dram)
        : config_(config), next_(next), dram_(dram),
          sets_(config.size_bytes / (config.line_bytes * config.ways)),
          lines_(static_cast<std::size_t>(sets_) * config.ways)
    {
    }

    AccessResult
    access(Addr addr, unsigned size, bool write, TrafficClass cls)
    {
        const Addr mask = ~static_cast<Addr>(config_.line_bytes - 1);
        AccessResult result;
        result.hit = true;
        for (Addr line = addr & mask; line <= ((addr + size - 1) & mask);
             line += config_.line_bytes) {
            ++(write ? stats_.writes : stats_.reads);
            bool hit = false;
            result.latency += accessLine(line, write, cls, hit);
            if (!hit) {
                result.hit = false;
                ++(write ? stats_.write_misses : stats_.read_misses);
            }
        }
        return result;
    }

    void
    flush(TrafficClass cls)
    {
        for (unsigned set = 0; set < sets_; ++set)
            for (unsigned w = 0; w < config_.ways; ++w) {
                Line &line = lines_[set * config_.ways + w];
                if (line.valid && line.dirty) {
                    forward((line.tag * sets_ + set) * config_.line_bytes,
                            true, cls);
                    ++stats_.writebacks;
                }
                line = Line{};
            }
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line {
        std::uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lru = 0;
    };

    Cycles
    accessLine(Addr line_addr, bool write, TrafficClass cls, bool &hit)
    {
        const std::uint64_t line_no = line_addr / config_.line_bytes;
        const unsigned set = static_cast<unsigned>(line_no % sets_);
        const std::uint64_t tag = line_no / sets_;
        Line *ways = &lines_[set * config_.ways];
        ++clock_;
        for (unsigned w = 0; w < config_.ways; ++w)
            if (ways[w].valid && ways[w].tag == tag) {
                ways[w].lru = clock_;
                ways[w].dirty |= write;
                hit = true;
                return config_.hit_latency;
            }
        hit = false;
        unsigned victim = 0;
        for (unsigned w = 1; w < config_.ways; ++w) {
            if (!ways[w].valid) {
                victim = w;
                break;
            }
            if (ways[w].lru < ways[victim].lru)
                victim = w;
        }
        Line &line = ways[victim];
        if (line.valid && line.dirty) {
            forward((line.tag * sets_ + set) * config_.line_bytes, true,
                    cls);
            ++stats_.writebacks;
        }
        Cycles latency =
            config_.hit_latency + forward(line_addr, false, cls).latency;
        line = {tag, true, write, clock_};
        return latency;
    }

    AccessResult
    forward(Addr line_addr, bool write, TrafficClass cls)
    {
        if (next_)
            return next_->access(line_addr, config_.line_bytes, write, cls);
        return dram_->access(line_addr, config_.line_bytes, write, cls);
    }

    CacheConfig config_;
    ReferenceCache *next_;
    DramModel *dram_;
    unsigned sets_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
    CacheStats stats_;
};

void
expectSameStats(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.read_misses, b.read_misses);
    EXPECT_EQ(a.write_misses, b.write_misses);
    EXPECT_EQ(a.writebacks, b.writebacks);
}

} // namespace

// Randomized differential: over a million mixed reads, writes and
// flushes — biased towards re-touching the last line, its set
// neighbours and a small hot window so MRU hits, set hits, misses and
// dirty evictions all occur — the MRU-filtered two-level hierarchy
// returns the same per-access latency and hit flag, and ends with the
// same CacheStats and DRAM stats, as a filter-less reference.
TEST(Cache, MruFilterMatchesFilterlessReference)
{
    const CacheConfig l1{"l1", 2048, 64, 2, 1};
    const CacheConfig l2{"l2", 8192, 64, 4, 3};
    DramModel dram, ref_dram;
    SetAssocCache cache_l2(l2, &dram);
    SetAssocCache cache(l1, &cache_l2);
    ReferenceCache ref_l2(l2, nullptr, &ref_dram);
    ReferenceCache ref(l1, &ref_l2, nullptr);

    Rng rng(20261017);
    Addr last = 0;
    int mru_repeats = 0;
    for (int i = 0; i < 1200000; ++i) {
        const std::uint64_t pick = rng.nextBelow(100);
        if (pick == 0) {
            cache.flush(TrafficClass::Other);
            ref.flush(TrafficClass::Other);
            continue;
        }
        Addr addr;
        if (pick < 45)
            addr = last + rng.nextBelow(64); // same or next line
        else if (pick < 70)
            addr = last + rng.nextBelow(4) * 1024; // same set in l1
        else if (pick < 95)
            addr = rng.nextBelow(16 * 1024); // hot window
        else
            addr = rng.nextBelow(1u << 24); // cold
        const unsigned size = 1 + static_cast<unsigned>(rng.nextBelow(96));
        const bool write = rng.nextBool(0.3f);
        if ((addr >> 6) == (last >> 6))
            ++mru_repeats;
        last = addr;

        AccessResult got = cache.access(addr, size, write,
                                        TrafficClass::Texture);
        AccessResult want = ref.access(addr, size, write,
                                       TrafficClass::Texture);
        ASSERT_EQ(got.latency, want.latency) << "access " << i;
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
    }
    EXPECT_GT(mru_repeats, 100000);
    expectSameStats(cache.stats(), ref.stats());
    expectSameStats(cache_l2.stats(), ref_l2.stats());
    EXPECT_EQ(dram.stats().accesses, ref_dram.stats().accesses);
    EXPECT_EQ(dram.stats().row_hits, ref_dram.stats().row_hits);
    EXPECT_EQ(dram.stats().totalBytes(), ref_dram.stats().totalBytes());
    EXPECT_GT(cache.stats().writebacks, 0u);
}

// repeatRead(addr, n) is n reads of the MRU line: the same CacheStats
// and latency as n single accesses, and the same LRU state, so later
// conflicting misses pick the same victims (the dirty other way first,
// with its writeback) and the same lines stay resident.
TEST(Cache, RepeatReadEqualsSingleMruAccesses)
{
    const CacheConfig l1{"l1", 1024, 64, 2, 3};
    const Addr set_stride = 1024 / 2; // same set, next tag
    const Addr a = 0x4000 + 8, b = a + set_stride, c = a + 2 * set_stride;
    for (std::uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
        DramModel dram, ref_dram;
        SetAssocCache cache(l1, &dram);
        SetAssocCache ref(l1, &ref_dram);
        Cycles got = 0, want = 0;
        for (SetAssocCache *cc : {&cache, &ref}) {
            Cycles &sum = cc == &cache ? got : want;
            sum += cc->access(a, 4, false, TrafficClass::Texture).latency;
            sum += cc->access(b, 4, true, TrafficClass::Texture).latency;
            sum += cc->access(a + 4, 4, false, TrafficClass::Texture).latency;
        }
        got += cache.repeatRead(a + 12, n);
        for (std::uint64_t i = 0; i < n; ++i)
            want += ref.access(a + 12, 4, false, TrafficClass::Texture)
                        .latency;
        EXPECT_EQ(got, want) << n;
        expectSameStats(cache.stats(), ref.stats());

        // c conflicts: the LRU way (b, dirty) is the victim in both and
        // a stays resident; b's refill then evicts c, not a.
        for (Addr probe : {c, a, b, a}) {
            AccessResult g = cache.access(probe, 4, false,
                                          TrafficClass::Texture);
            AccessResult w = ref.access(probe, 4, false,
                                        TrafficClass::Texture);
            EXPECT_EQ(g.hit, w.hit) << n << " probe " << probe;
            EXPECT_EQ(g.latency, w.latency) << n << " probe " << probe;
        }
        expectSameStats(cache.stats(), ref.stats());
        EXPECT_EQ(cache.stats().writebacks, 1u);
        EXPECT_EQ(dram.stats().accesses, ref_dram.stats().accesses);
        EXPECT_EQ(dram.stats().totalBytes(), ref_dram.stats().totalBytes());
    }
}

// ------------------------------------------------------- MemorySystem --

TEST(MemorySystem, RoutesTrafficToConfiguredCaches)
{
    MemorySystem mem;
    mem.vertexFetch(AddressSpace::kVertexBase, 36);
    mem.textureFetch(0, AddressSpace::kTextureBase, 4);
    mem.parameterRead(AddressSpace::kParameterBase, 4);

    MemorySystemStats s = mem.stats();
    EXPECT_EQ(s.vertex_cache.reads, 1u);
    EXPECT_EQ(s.texture_caches.reads, 1u);
    EXPECT_EQ(s.tile_cache.reads, 1u);
    // All three missed into L2.
    EXPECT_EQ(s.l2_cache.reads, 3u);
}

TEST(MemorySystem, TextureCachesArePrivatePerUnit)
{
    MemorySystem mem;
    mem.textureFetch(0, 0x1000, 4);
    // A different unit does not see unit 0's line.
    EXPECT_FALSE(mem.textureFetch(1, 0x1000, 4).hit);
    // But unit 0 does.
    EXPECT_TRUE(mem.textureFetch(0, 0x1000, 4).hit);
}

TEST(MemorySystem, FramebufferWritesBypassCaches)
{
    MemorySystem mem;
    mem.framebufferWrite(AddressSpace::kFramebufferBase, 64);
    MemorySystemStats s = mem.stats();
    EXPECT_EQ(s.l2_cache.accesses(), 0u);
    EXPECT_EQ(s.tile_cache.accesses(), 0u);
    EXPECT_EQ(
        s.dram.write_bytes[static_cast<int>(TrafficClass::Framebuffer)],
        64u);
}

TEST(MemorySystem, ClearStatsZeroesCounters)
{
    MemorySystem mem;
    mem.vertexFetch(0, 36);
    mem.clearStats();
    EXPECT_EQ(mem.stats().vertex_cache.accesses(), 0u);
    EXPECT_EQ(mem.stats().dram.totalBytes(), 0u);
}

TEST(MemorySystem, DefaultConfigMatchesTableII)
{
    MemorySystemConfig cfg;
    EXPECT_EQ(cfg.vertex_cache.size_bytes, 4u * 1024);
    EXPECT_EQ(cfg.vertex_cache.ways, 2u);
    EXPECT_EQ(cfg.texture_cache.size_bytes, 8u * 1024);
    EXPECT_EQ(cfg.num_texture_caches, 4u);
    EXPECT_EQ(cfg.tile_cache.size_bytes, 128u * 1024);
    EXPECT_EQ(cfg.tile_cache.ways, 8u);
    EXPECT_EQ(cfg.l2_cache.size_bytes, 256u * 1024);
    EXPECT_EQ(cfg.l2_cache.hit_latency, 2u);
    EXPECT_EQ(cfg.dram.bytes_per_cycle, 4u);
    EXPECT_EQ(cfg.dram.row_hit_latency, 50u);
    EXPECT_EQ(cfg.dram.row_miss_latency, 100u);
}

// ------------------------------------------------------- AddressSpace --

TEST(AddressSpace, AllocationsAreDisjointAndNonNull)
{
    AddressSpace as;
    Addr a = as.allocVertex(100);
    Addr b = as.allocVertex(100);
    EXPECT_NE(a, 0u);
    EXPECT_GE(b, a + 100);
}

TEST(AddressSpace, RegionsDoNotOverlap)
{
    AddressSpace as;
    Addr v = as.allocVertex(1000);
    Addr t = as.allocTexture(1000);
    Addr p = as.allocParameter(1000);
    EXPECT_LT(v, AddressSpace::kTextureBase);
    EXPECT_GE(t, AddressSpace::kTextureBase);
    EXPECT_LT(t, AddressSpace::kParameterBase);
    EXPECT_GE(p, AddressSpace::kParameterBase);
}

TEST(AddressSpace, ParameterRegionResets)
{
    AddressSpace as;
    Addr first = as.allocParameter(64);
    as.allocParameter(4096);
    as.resetParameter();
    EXPECT_EQ(as.allocParameter(64), first);
}

TEST(AddressSpace, AllocationsAreLineAligned)
{
    AddressSpace as;
    as.allocVertex(10);
    Addr second = as.allocVertex(10);
    EXPECT_EQ(second % 64, 0u);
}

TEST(AddressSpace, FramebufferAddressing)
{
    Addr a0 = AddressSpace::framebufferAddr(0, 0, 100);
    Addr a1 = AddressSpace::framebufferAddr(1, 0, 100);
    Addr a_row = AddressSpace::framebufferAddr(0, 1, 100);
    EXPECT_EQ(a1 - a0, 4u);
    EXPECT_EQ(a_row - a0, 400u);
}
