/**
 * @file
 * Unit and property tests for the rasterizer: coverage correctness
 * (area, fill rule, watertight shared edges), winding independence,
 * perspective-correct interpolation, quad accounting and the
 * triangle/rect overlap test used by the binner.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "common/rng.hpp"
#include "support.hpp"

using namespace evrsim;
using namespace evrsim::test;

namespace {
const RectI kScreen{0, 0, 64, 64};
}

TEST(Rasterizer, RightTriangleCoversExpectedPixels)
{
    // Axis-aligned right triangle over an 8x8 square: covers just under
    // half of the 64 pixels.
    auto frags = collectFragments(
        screenTriangle({0, 0}, {8, 0}, {0, 8}), kScreen);
    EXPECT_EQ(frags.size(), 28u); // 7+6+...+1 with the diagonal excluded
    for (const Fragment &f : frags) {
        EXPECT_LT(f.x + 0.5f + (f.y + 0.5f), 8.0f);
    }
}

TEST(Rasterizer, FullSquareFromTwoTrianglesCoversExactlyOnce)
{
    // The fill rule must make the shared diagonal watertight: every
    // pixel covered exactly once by the two triangles of a quad.
    ShadedPrimitive t1 = screenTriangle({0, 0}, {16, 0}, {16, 16});
    ShadedPrimitive t2 = screenTriangle({0, 0}, {16, 16}, {0, 16});

    std::set<std::pair<int, int>> seen;
    int duplicates = 0;
    for (const auto &prim : {t1, t2}) {
        for (const Fragment &f : collectFragments(prim, kScreen)) {
            if (!seen.insert({f.x, f.y}).second)
                ++duplicates;
        }
    }
    EXPECT_EQ(duplicates, 0);
    EXPECT_EQ(seen.size(), 256u);
}

TEST(Rasterizer, WindingDoesNotChangeCoverage)
{
    ShadedPrimitive ccw = screenTriangle({2, 2}, {20, 4}, {9, 18});
    ShadedPrimitive cw = screenTriangle({2, 2}, {9, 18}, {20, 4});
    auto a = collectFragments(ccw, kScreen);
    auto b = collectFragments(cw, kScreen);
    ASSERT_EQ(a.size(), b.size());
    auto key = [](const Fragment &f) { return f.y * 1000 + f.x; };
    std::sort(a.begin(), a.end(),
              [&](auto &l, auto &r) { return key(l) < key(r); });
    std::sort(b.begin(), b.end(),
              [&](auto &l, auto &r) { return key(l) < key(r); });
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].x, b[i].x);
        EXPECT_EQ(a[i].y, b[i].y);
        EXPECT_FLOAT_EQ(a[i].depth, b[i].depth);
    }
}

TEST(Rasterizer, DegenerateTriangleProducesNothing)
{
    auto frags = collectFragments(
        screenTriangle({3, 3}, {10, 10}, {17, 17}), kScreen);
    EXPECT_TRUE(frags.empty());
}

TEST(Rasterizer, BoundsClipCoverage)
{
    ShadedPrimitive big = screenTriangle({-100, -100}, {200, -100}, {50, 200});
    RectI tile{16, 16, 32, 32};
    auto frags = collectFragments(big, tile);
    EXPECT_EQ(frags.size(), 256u); // tile fully inside the triangle
    for (const Fragment &f : frags)
        EXPECT_TRUE(tile.contains(f.x, f.y));
}

TEST(Rasterizer, FragmentsSampleAtPixelCenters)
{
    // A triangle whose left edge is at x = 0.25: pixel (0,0)'s center
    // (0.5, 0.5) is inside.
    auto frags = collectFragments(
        screenTriangle({0.25f, 0}, {8, 0}, {0.25f, 8}), kScreen);
    bool has00 = false;
    for (const Fragment &f : frags)
        has00 |= (f.x == 0 && f.y == 0);
    EXPECT_TRUE(has00);
}

TEST(Rasterizer, DepthInterpolatesLinearly)
{
    ShadedPrimitive prim = screenTriangle({0, 0}, {16, 0}, {0, 16});
    prim.v[0].depth = 0.0f;
    prim.v[1].depth = 1.0f;
    prim.v[2].depth = 1.0f;
    prim.updateZNear();
    for (const Fragment &f : collectFragments(prim, kScreen)) {
        float expected = (f.x + 0.5f) / 16.0f + (f.y + 0.5f) / 16.0f;
        EXPECT_NEAR(f.depth, expected, 1e-4f);
    }
}

TEST(Rasterizer, AffineColorInterpolationWhenWIsUniform)
{
    ShadedPrimitive prim = screenTriangle({0, 0}, {16, 0}, {0, 16});
    prim.v[0].color = {1, 0, 0, 1};
    prim.v[1].color = {0, 1, 0, 1};
    prim.v[2].color = {0, 0, 1, 1};
    for (const Fragment &f : collectFragments(prim, kScreen)) {
        // Barycentric coordinates sum to one -> so do the channels.
        EXPECT_NEAR(f.color.x + f.color.y + f.color.z, 1.0f, 1e-4f);
    }
}

TEST(Rasterizer, PerspectiveCorrectUvInterpolation)
{
    // v0 is twice as close as v1/v2 (inv_w twice as large). Along edge
    // v0-v1, perspective-correct u is biased towards the closer vertex.
    ShadedPrimitive prim = screenTriangle({0, 0}, {32, 0}, {0, 32});
    prim.v[0].inv_w = 2.0f;
    prim.v[1].inv_w = 1.0f;
    prim.v[2].inv_w = 1.0f;
    prim.v[0].uv = {0, 0};
    prim.v[1].uv = {1, 0};
    prim.v[2].uv = {0, 1};

    Fragment mid{};
    bool found = false;
    for (const Fragment &f : collectFragments(prim, kScreen)) {
        if (f.x == 15 && f.y == 0) {
            mid = f;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    // At the screen midpoint, u = (0.5*1)/(0.5*2 + 0.5*1) = 1/3 against
    // an affine value of ~0.5.
    EXPECT_NEAR(mid.uv.x, 0.33f, 0.04f);
    EXPECT_LT(mid.uv.x, 0.40f);
}

TEST(Rasterizer, QuadCountCoversFragments)
{
    FrameStats stats;
    ShadedPrimitive prim = screenTriangle({0, 0}, {16, 0}, {0, 16});
    Rasterizer::rasterize(prim, kScreen, stats, [](const Fragment &) {});
    // 2x2 quads: at least frags/4, at most one quad per fragment.
    EXPECT_GE(stats.raster_quads * 4, stats.fragments_generated);
    EXPECT_LE(stats.raster_quads, stats.fragments_generated);
    EXPECT_GT(stats.raster_quads, 0u);
}

// ----- Property: coverage area approximates triangle area ---------------

class RasterAreaProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RasterAreaProperty, CoverageMatchesGeometricArea)
{
    Rng rng(GetParam() * 31337 + 7);
    Vec2 a{rng.nextFloat(0, 64), rng.nextFloat(0, 64)};
    Vec2 b{rng.nextFloat(0, 64), rng.nextFloat(0, 64)};
    Vec2 c{rng.nextFloat(0, 64), rng.nextFloat(0, 64)};
    float area = std::fabs(Rasterizer::signedArea2(a, b, c)) * 0.5f;
    if (area < 32.0f)
        return; // tiny slivers have large relative quantization error

    auto frags = collectFragments(screenTriangle(a, b, c), kScreen);
    // Pixel-count area differs from geometric area by at most roughly
    // the perimeter in pixels.
    auto edge_len = [](const Vec2 &p, const Vec2 &q) {
        return std::sqrt((q.x - p.x) * (q.x - p.x) +
                         (q.y - p.y) * (q.y - p.y));
    };
    float per = edge_len(a, b) + edge_len(b, c) + edge_len(c, a);
    EXPECT_NEAR(static_cast<float>(frags.size()), area, per + 4.0f);
}

INSTANTIATE_TEST_SUITE_P(RandomTriangles, RasterAreaProperty,
                         ::testing::Range(0, 32));

// ----- Property: tiled rasterization equals whole-screen ----------------

class RasterTilingProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(RasterTilingProperty, TileDecompositionIsExact)
{
    Rng rng(GetParam() * 9176 + 3);
    ShadedPrimitive prim = screenTriangle(
        {rng.nextFloat(-10, 74), rng.nextFloat(-10, 74)},
        {rng.nextFloat(-10, 74), rng.nextFloat(-10, 74)},
        {rng.nextFloat(-10, 74), rng.nextFloat(-10, 74)});

    auto whole = collectFragments(prim, kScreen);
    std::set<std::pair<int, int>> whole_set;
    for (const Fragment &f : whole)
        whole_set.insert({f.x, f.y});

    std::set<std::pair<int, int>> tiled_set;
    for (int ty = 0; ty < 64; ty += 16) {
        for (int tx = 0; tx < 64; tx += 16) {
            RectI tile{tx, ty, tx + 16, ty + 16};
            for (const Fragment &f : collectFragments(prim, tile)) {
                bool fresh = tiled_set.insert({f.x, f.y}).second;
                EXPECT_TRUE(fresh) << "pixel rasterized in two tiles";
            }
        }
    }
    EXPECT_EQ(whole_set, tiled_set);
}

INSTANTIATE_TEST_SUITE_P(RandomTriangles, RasterTilingProperty,
                         ::testing::Range(0, 32));

// ----- Overlap test ------------------------------------------------------

TEST(TriangleRectOverlap, DisjointBBoxRejected)
{
    ShadedPrimitive prim = screenTriangle({0, 0}, {8, 0}, {0, 8});
    EXPECT_FALSE(Rasterizer::triangleOverlapsRect(prim, {16, 16, 32, 32}));
}

TEST(TriangleRectOverlap, BBoxOverlapButEdgeSeparated)
{
    // Triangle hugging the top-left corner; rect in the bottom-right of
    // the shared bbox, separated by the hypotenuse.
    ShadedPrimitive prim = screenTriangle({0, 0}, {32, 0}, {0, 32});
    EXPECT_FALSE(Rasterizer::triangleOverlapsRect(prim, {24, 24, 32, 32}));
    EXPECT_TRUE(Rasterizer::triangleOverlapsRect(prim, {0, 0, 8, 8}));
}

TEST(TriangleRectOverlap, RectInsideTriangle)
{
    ShadedPrimitive prim = screenTriangle({-10, -10}, {100, -10}, {-10, 100});
    EXPECT_TRUE(Rasterizer::triangleOverlapsRect(prim, {0, 0, 16, 16}));
}

TEST(TriangleRectOverlap, TriangleInsideRect)
{
    ShadedPrimitive prim = screenTriangle({4, 4}, {8, 4}, {4, 8});
    EXPECT_TRUE(Rasterizer::triangleOverlapsRect(prim, {0, 0, 16, 16}));
}

TEST(TriangleRectOverlap, WindingIndependent)
{
    ShadedPrimitive cw = screenTriangle({0, 0}, {0, 32}, {32, 0});
    EXPECT_FALSE(Rasterizer::triangleOverlapsRect(cw, {24, 24, 32, 32}));
    EXPECT_TRUE(Rasterizer::triangleOverlapsRect(cw, {0, 0, 8, 8}));
}

/** Property: the overlap test never misses a tile with real coverage. */
class OverlapConservativeProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(OverlapConservativeProperty, EveryCoveredTileReportsOverlap)
{
    Rng rng(GetParam() * 40961 + 11);
    ShadedPrimitive prim = screenTriangle(
        {rng.nextFloat(0, 64), rng.nextFloat(0, 64)},
        {rng.nextFloat(0, 64), rng.nextFloat(0, 64)},
        {rng.nextFloat(0, 64), rng.nextFloat(0, 64)});

    for (int ty = 0; ty < 64; ty += 16) {
        for (int tx = 0; tx < 64; tx += 16) {
            RectI tile{tx, ty, tx + 16, ty + 16};
            auto frags = collectFragments(prim, tile);
            if (!frags.empty()) {
                EXPECT_TRUE(Rasterizer::triangleOverlapsRect(prim, tile))
                    << "tile with fragments not binned";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomTriangles, OverlapConservativeProperty,
                         ::testing::Range(0, 48));

// ----- Property: spans carry exactly the reference fragments ------------

namespace {

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

// rasterizeSpans (the production path) against rasterize (the scalar
// reference) on random perspective triangles and odd-aligned bounds:
// the same fragments in the same order, every requested attribute
// bit-identical, and the same fragment and quad counts. Vertex
// positions are drawn from shapes that stress the per-row interval
// search: free floats, pixel-center and pixel-corner grids (edges
// through sample points, where the top-left rule decides), shared
// coordinates (horizontal and vertical edges), slivers, and vertices
// far off screen.
TEST(RasterSpans, MatchReferenceFragmentsBitForBit)
{
    Rng rng(4242);
    RasterScratch scratch;
    const unsigned all = kSpanDepth | kSpanRgb | kSpanAlpha | kSpanUv;
    auto position = [&](int shape) -> Vec2 {
        switch (shape) {
          case 1: // pixel corners and centers
            return {static_cast<float>(rng.nextBelow(160)) * 0.5f - 4.0f,
                    static_cast<float>(rng.nextBelow(160)) * 0.5f - 4.0f};
          case 2: // far outside the bounds (two of the three vertices)
            return {rng.nextFloat(-3.0e4f, 3.0e4f),
                    rng.nextFloat(-3.0e4f, 3.0e4f)};
          default:
            return {rng.nextFloat(-8, 72), rng.nextFloat(-8, 72)};
        }
    };
    int nonempty = 0;
    for (int iter = 0; iter < 6000; ++iter) {
        ShadedPrimitive prim;
        const int shape = static_cast<int>(rng.nextBelow(3));
        for (ShadedVertex &v : prim.v) {
            v.screen = position(shape);
            v.depth = rng.nextFloat(0, 1);
            v.inv_w = rng.nextFloat(0.05f, 2.0f);
            v.color = {rng.nextFloat(0, 1), rng.nextFloat(0, 1),
                       rng.nextFloat(0, 1), rng.nextFloat(0, 1)};
            v.uv = {rng.nextFloat(-3, 3), rng.nextFloat(-3, 3)};
        }
        if (shape == 2)
            prim.v[0].screen = position(0);
        switch (rng.nextBelow(4)) {
          case 0: // horizontal edge
            prim.v[1].screen.y = prim.v[0].screen.y;
            break;
          case 1: // vertical edge
            prim.v[2].screen.x = prim.v[1].screen.x;
            break;
          case 2: // sliver: third vertex near the first edge's midpoint
            prim.v[2].screen = (prim.v[0].screen + prim.v[1].screen) * 0.5f +
                               Vec2{rng.nextFloat(-0.3f, 0.3f),
                                    rng.nextFloat(-0.3f, 0.3f)};
            break;
          default:
            break;
        }
        const int x0 = static_cast<int>(rng.nextBelow(20));
        const int y0 = static_cast<int>(rng.nextBelow(20));
        const RectI bounds{x0, y0,
                           x0 + 1 + static_cast<int>(rng.nextBelow(40)),
                           y0 + 1 + static_cast<int>(rng.nextBelow(40))};

        FrameStats ref_stats, span_stats;
        std::vector<Fragment> ref;
        Rasterizer::rasterize(prim, bounds, ref_stats,
                              [&](const Fragment &f) { ref.push_back(f); });
        std::vector<Fragment> got;
        Rasterizer::rasterizeSpans(
            prim, bounds, all, span_stats, scratch,
            [&](const FragmentSpan &s) {
                ASSERT_GT(s.count, 0);
                for (int k = 0; k < s.count; ++k)
                    got.push_back({s.x[k], s.y[k], s.depth[k],
                                   {s.r[k], s.g[k], s.b[k], s.a[k]},
                                   {s.u[k], s.v[k]}});
            });

        ASSERT_EQ(got.size(), ref.size()) << "iteration " << iter;
        nonempty += ref.empty() ? 0 : 1;
        EXPECT_EQ(span_stats.fragments_generated,
                  ref_stats.fragments_generated);
        EXPECT_EQ(span_stats.raster_quads, ref_stats.raster_quads);
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const Fragment &a = ref[i];
            const Fragment &b = got[i];
            ASSERT_EQ(a.x, b.x) << "iteration " << iter << " lane " << i;
            ASSERT_EQ(a.y, b.y) << "iteration " << iter << " lane " << i;
            EXPECT_TRUE(sameBits(a.depth, b.depth));
            EXPECT_TRUE(sameBits(a.color.x, b.color.x));
            EXPECT_TRUE(sameBits(a.color.y, b.color.y));
            EXPECT_TRUE(sameBits(a.color.z, b.color.z));
            EXPECT_TRUE(sameBits(a.color.w, b.color.w));
            EXPECT_TRUE(sameBits(a.uv.x, b.uv.x));
            EXPECT_TRUE(sameBits(a.uv.y, b.uv.y));
        }
    }
    EXPECT_GT(nonempty, 1500);
}

// A span consumer that asks for fewer attributes still gets the same
// lanes, with the requested attributes unchanged.
TEST(RasterSpans, AttributeSubsetsLeaveRequestedLanesUnchanged)
{
    ShadedPrimitive prim = screenTriangle({1.5f, 0.5f}, {30.25f, 3.0f},
                                          {4.0f, 27.75f}, 0.25f,
                                          {0.2f, 0.4f, 0.6f, 0.8f});
    prim.v[1].inv_w = 0.5f;
    RasterScratch scratch;
    auto collect = [&](unsigned attrs) {
        FrameStats stats;
        std::vector<float> depth, u;
        Rasterizer::rasterizeSpans(prim, kScreen, attrs, stats, scratch,
                                   [&](const FragmentSpan &s) {
                                       for (int k = 0; k < s.count; ++k) {
                                           depth.push_back(s.depth[k]);
                                           u.push_back(s.u[k]);
                                       }
                                   });
        return std::make_pair(depth, u);
    };
    auto full = collect(kSpanDepth | kSpanRgb | kSpanAlpha | kSpanUv);
    EXPECT_EQ(collect(kSpanDepth).first, full.first);
    EXPECT_EQ(collect(kSpanUv).second, full.second);
}
