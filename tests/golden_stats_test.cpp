/**
 * @file
 * Golden-result pin for the simulation core.
 *
 * Every Table III workload under the baseline and the EVR configuration
 * is rendered for a few frames and reduced to two numbers: the final
 * image CRC and a CRC over the canonical text of its FrameStats totals
 * (every counter frameStatsToJson() serializes, including
 * tiles_equal_oracle, raster_mem_latency and raster_cycles). Both are
 * compared with values checked into tests/golden/. Per workload, the
 * baseline and EVR image CRCs must also agree, both in that file and in
 * this binary's renders: the paper's claim that EVR removes work
 * without changing the image.
 *
 * The identity tests elsewhere compare two legs of the same code, so a
 * regression in shared per-fragment logic passes both of them; this
 * test compares against numbers produced by an earlier binary instead.
 * An intentional model change re-blesses the file: the failure output
 * prints every line of it with the values this binary produced.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/crc32.hpp"
#include "driver/gpu_simulator.hpp"
#include "driver/run_result.hpp"
#include "workloads/registry.hpp"

using namespace evrsim;

namespace {

constexpr int kWidth = 608;
constexpr int kHeight = 384;
constexpr int kFrames = 3;
constexpr const char *kGoldenFile = EVRSIM_GOLDEN_DIR "/stats_f3.txt";

struct Digest {
    std::uint32_t image_crc = 0;
    std::uint32_t totals_crc = 0;
};

/** CRC32 of the canonical (sorted-key) JSON text of @p totals. */
std::uint32_t
totalsCrc(const FrameStats &totals)
{
    std::string text = frameStatsToJson(totals).dump();
    return Crc32::of(text.data(), text.size());
}

Digest
simulate(const std::string &alias, const SimConfig &config)
{
    std::unique_ptr<Workload> workload =
        workloads::factory()(alias, kWidth, kHeight);
    if (!workload) {
        ADD_FAILURE() << "unknown workload " << alias;
        return {};
    }
    GpuSimulator sim(config);
    workload->setup(sim);
    for (int f = 0; f < kFrames; ++f)
        sim.renderFrame(workload->frame(f));
    return {sim.framebuffer().contentCrc(), totalsCrc(sim.totals())};
}

std::string
line(const std::string &key, const Digest &d)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, " %08x %08x", d.image_crc,
                  d.totals_crc);
    return key + buf;
}

/** Golden file: "<alias>/<config> <image_crc> <totals_crc>" per line. */
std::map<std::string, Digest>
loadGolden()
{
    std::map<std::string, Digest> out;
    std::ifstream in(kGoldenFile);
    std::string text;
    while (std::getline(in, text)) {
        if (text.empty() || text[0] == '#')
            continue;
        std::istringstream fields(text);
        std::string key;
        Digest d;
        fields >> key >> std::hex >> d.image_crc >> d.totals_crc;
        if (fields)
            out[key] = d;
    }
    return out;
}

} // namespace

TEST(GoldenStats, TwentyWorkloadsMatchCheckedInDigests)
{
    const std::map<std::string, Digest> golden = loadGolden();
    EXPECT_FALSE(golden.empty()) << "cannot read " << kGoldenFile;

    GpuConfig gpu;
    gpu.screen_width = kWidth;
    gpu.screen_height = kHeight;
    std::string actual;
    int mismatches = 0;
    const SimConfig configs[2] = {SimConfig::baseline(gpu),
                                  SimConfig::evr(gpu)};
    for (const std::string &alias : workloads::allAliases()) {
        std::uint32_t fresh_image[2] = {};
        std::uint32_t golden_image[2] = {};
        for (int c = 0; c < 2; ++c) {
            const std::string key = alias + "/" + configs[c].name;
            const Digest d = simulate(alias, configs[c]);
            fresh_image[c] = d.image_crc;
            actual += line(key, d) + "\n";
            auto it = golden.find(key);
            if (it == golden.end()) {
                ADD_FAILURE() << key << ": no golden entry";
                ++mismatches;
                continue;
            }
            golden_image[c] = it->second.image_crc;
            EXPECT_EQ(it->second.image_crc, d.image_crc)
                << key << ": image CRC";
            EXPECT_EQ(it->second.totals_crc, d.totals_crc)
                << key << ": FrameStats totals CRC";
            if (it->second.image_crc != d.image_crc ||
                it->second.totals_crc != d.totals_crc)
                ++mismatches;
        }
        EXPECT_EQ(fresh_image[0], fresh_image[1])
            << alias << ": EVR rendered a different image than baseline";
        EXPECT_EQ(golden_image[0], golden_image[1])
            << alias << ": golden baseline and EVR images differ";
    }
    EXPECT_EQ(golden.size(), 2 * workloads::allAliases().size());
    if (mismatches > 0)
        std::printf("values produced by this binary (%s):\n%s",
                    kGoldenFile, actual.c_str());
}
