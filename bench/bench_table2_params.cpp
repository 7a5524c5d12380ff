/**
 * @file
 * Table II: dump the modelled GPU parameters, then microbenchmark the
 * hardware structures the paper adds (Layer Generator Table, FVP Table,
 * Layer Buffer, Signature Buffer / CRC combine) and the hot simulator
 * paths, using google-benchmark.
 */
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/crc32.hpp"
#include "evr/evr.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/rasterizer.hpp"
#include "mem/memory_system.hpp"
#include "re/signature_buffer.hpp"

using namespace evrsim;

namespace {

void
dumpTableII()
{
    GpuConfig gpu;
    const MemorySystemConfig &m = gpu.mem;
    std::printf("================ Table II: GPU simulation parameters "
                "================\n");
    std::printf("Tech specs            %.0f MHz\n", gpu.clock_mhz);
    std::printf("Screen resolution     %dx%d\n", gpu.screen_width,
                gpu.screen_height);
    std::printf("Tile size             %dx%d pixels (%d tiles)\n",
                gpu.tile_size, gpu.tile_size, gpu.tileCount());
    std::printf("Main memory           %llu-%llu cycles, %u B/cycle\n",
                static_cast<unsigned long long>(m.dram.row_hit_latency),
                static_cast<unsigned long long>(m.dram.row_miss_latency),
                m.dram.bytes_per_cycle);
    auto cache_line = [](const char *name, const CacheConfig &c,
                         unsigned count) {
        std::printf("%-21s %u B/line, %u-way, %u KB x%u, %llu cycle(s)\n",
                    name, c.line_bytes, c.ways, c.size_bytes / 1024, count,
                    static_cast<unsigned long long>(c.hit_latency));
    };
    cache_line("Vertex cache", m.vertex_cache, 1);
    cache_line("Texture caches", m.texture_cache, m.num_texture_caches);
    cache_line("Tile cache", m.tile_cache, 1);
    cache_line("L2 cache", m.l2_cache, 1);
    std::printf("Primitive assembly    %.0f triangle/cycle\n",
                gpu.assembly_tris_per_cycle);
    std::printf("Rasterizer            %.0f attributes/cycle\n",
                gpu.raster_attrs_per_cycle);
    std::printf("Vertex processors     %d\n", gpu.vertex_processors);
    std::printf("Fragment processors   %d\n", gpu.fragment_processors);
    std::printf("Layer Generator Table %d entries, 3 bytes/entry\n",
                gpu.tileCount());
    std::printf("FVP Table             %d entries, 4 bytes/entry\n",
                gpu.tileCount());
    std::printf("Layer Buffer          %d bytes (16x16 x 2B)\n",
                gpu.tile_size * gpu.tile_size * 2);
    std::printf("=================================================="
                "================\n\n");
}

// --- Microbenchmarks of the added hardware structures -------------------

void
BM_LgtAssign(benchmark::State &state)
{
    LayerGeneratorTable lgt(3600);
    lgt.frameStart();
    std::uint32_t cmd = 0;
    int tile = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lgt.assign(tile, cmd, (cmd & 3) == 0));
        tile = (tile + 7) % 3600;
        ++cmd;
    }
}
BENCHMARK(BM_LgtAssign);

void
BM_FvpPredict(benchmark::State &state)
{
    FvpTable fvp(3600);
    for (int t = 0; t < 3600; ++t) {
        if (t & 1)
            fvp.storeWoz(t, 0.5f);
        else
            fvp.storeNwoz(t, 3);
    }
    int tile = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fvp.predictOccluded(tile, true, 0.75f, 2));
        tile = (tile + 13) % 3600;
    }
}
BENCHMARK(BM_FvpPredict);

void
BM_LayerBufferTileSweep(benchmark::State &state)
{
    LayerBuffer lb(256);
    lb.tileStart(16, 16);
    for (std::uint32_t i = 0; i < 256; ++i)
        lb.opaqueWrites(&i, 1, static_cast<std::uint16_t>(1 + (i & 3)),
                        false);
    for (auto _ : state)
        benchmark::DoNotOptimize(lb.computeLFar());
}
BENCHMARK(BM_LayerBufferTileSweep);

void
BM_SignatureCombine(benchmark::State &state)
{
    SignatureBuffer sb(3600);
    std::uint32_t crc = 0x12345678;
    int tile = 0;
    for (auto _ : state) {
        sb.combine(tile, crc, 128);
        crc = crc * 1664525u + 1013904223u;
        tile = (tile + 11) % 3600;
    }
}
BENCHMARK(BM_SignatureCombine);

void
BM_Crc32PrimitiveAttrs(benchmark::State &state)
{
    unsigned char attrs[128];
    for (int i = 0; i < 128; ++i)
        attrs[i] = static_cast<unsigned char>(i * 7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(Crc32::of(attrs, sizeof(attrs)));
        attrs[0]++;
    }
}
BENCHMARK(BM_Crc32PrimitiveAttrs);

void
BM_CacheAccess(benchmark::State &state)
{
    DramModel dram;
    SetAssocCache cache({"bench", 8 * 1024, 64, 2, 1}, &dram);
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addr, 4, false, TrafficClass::Texture));
        addr = (addr + 68) % (16 * 1024);
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_RasterizeTileSizedTriangle(benchmark::State &state)
{
    ShadedPrimitive prim;
    prim.v[0] = {{0, 0}, 0.5f, 1.0f, {1, 0, 0, 1}, {0, 0}};
    prim.v[1] = {{16, 0}, 0.5f, 1.0f, {0, 1, 0, 1}, {1, 0}};
    prim.v[2] = {{0, 16}, 0.5f, 1.0f, {0, 0, 1, 1}, {0, 1}};
    RectI tile{0, 0, 16, 16};
    FrameStats stats;
    for (auto _ : state) {
        float acc = 0;
        Rasterizer::rasterize(prim, tile, stats, [&](const Fragment &f) {
            acc += f.depth;
        });
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_RasterizeTileSizedTriangle);

} // namespace

int
main(int argc, char **argv)
{
    dumpTableII();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
