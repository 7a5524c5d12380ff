/**
 * @file
 * Unit tests for the scene substrate: mesh builders, procedural
 * textures, cameras, animation helpers and scene submission.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "scene/animation.hpp"
#include "scene/camera.hpp"
#include "scene/mesh.hpp"
#include "scene/scene.hpp"
#include "scene/texture.hpp"

using namespace evrsim;

// --------------------------------------------------------------- Mesh --

TEST(Mesh, QuadHasTwoTriangles)
{
    Mesh q = meshes::quad({1, 0, 0, 1});
    EXPECT_EQ(q.vertices.size(), 4u);
    EXPECT_EQ(q.triangleCount(), 2u);
    for (const Vertex &v : q.vertices)
        EXPECT_EQ(v.color, (Vec4{1, 0, 0, 1}));
}

TEST(Mesh, QuadCornersAssignsDistinctColors)
{
    Mesh q = meshes::quadCorners({1, 0, 0, 1}, {0, 1, 0, 1}, {0, 0, 1, 1},
                                 {1, 1, 0, 1});
    EXPECT_EQ(q.vertices[0].color, (Vec4{1, 0, 0, 1}));
    EXPECT_EQ(q.vertices[2].color, (Vec4{0, 0, 1, 1}));
}

TEST(Mesh, GridDimensions)
{
    Mesh g = meshes::grid(4, 3, {1, 1, 1, 1}, 0.0f, 1);
    EXPECT_EQ(g.vertices.size(), 5u * 4u);
    EXPECT_EQ(g.triangleCount(), 4u * 3u * 2u);
}

TEST(Mesh, GridJitterIsDeterministic)
{
    Mesh a = meshes::grid(8, 8, {1, 1, 1, 1}, 0.1f, 77);
    Mesh b = meshes::grid(8, 8, {1, 1, 1, 1}, 0.1f, 77);
    ASSERT_EQ(a.vertices.size(), b.vertices.size());
    for (std::size_t i = 0; i < a.vertices.size(); ++i)
        EXPECT_EQ(a.vertices[i], b.vertices[i]);
}

TEST(Mesh, GridJitterBounded)
{
    Mesh g = meshes::grid(6, 6, {1, 1, 1, 1}, 0.25f, 3);
    for (const Vertex &v : g.vertices)
        EXPECT_LE(std::fabs(v.position.z), 0.25f);
}

TEST(Mesh, BoxHasSixFaces)
{
    Mesh b = meshes::box({1, 1, 1, 1});
    EXPECT_EQ(b.vertices.size(), 24u);
    EXPECT_EQ(b.triangleCount(), 12u);
    // All vertices on the unit cube surface.
    for (const Vertex &v : b.vertices) {
        float m = std::max({std::fabs(v.position.x), std::fabs(v.position.y),
                            std::fabs(v.position.z)});
        EXPECT_NEAR(m, 0.5f, 1e-6f);
    }
}

TEST(Mesh, SphereVerticesOnRadius)
{
    Mesh s = meshes::sphere(8, 12, {1, 1, 1, 1});
    for (const Vertex &v : s.vertices)
        EXPECT_NEAR(v.position.length(), 0.5f, 1e-5f);
    EXPECT_EQ(s.triangleCount(), 8u * 12u * 2u);
}

TEST(Mesh, AppendRebasesIndices)
{
    Mesh a = meshes::quad({1, 1, 1, 1});
    Mesh b = meshes::quad({0, 0, 0, 1});
    a.append(b);
    EXPECT_EQ(a.vertices.size(), 8u);
    EXPECT_EQ(a.triangleCount(), 4u);
    // Second quad's indices refer to its own vertices.
    for (std::size_t i = 6; i < 12; ++i)
        EXPECT_GE(a.indices[i], 4u);
}

TEST(Mesh, CharacterIsDeterministicPerSeed)
{
    Mesh a = meshes::character(5, {1, 0, 0, 1});
    Mesh b = meshes::character(5, {1, 0, 0, 1});
    Mesh c = meshes::character(6, {1, 0, 0, 1});
    EXPECT_EQ(a.vertices.size(), b.vertices.size());
    EXPECT_EQ(a.vertices[0], b.vertices[0]);
    // Different seeds should produce different proportions.
    bool differs = a.vertices.size() != c.vertices.size();
    for (std::size_t i = 0; !differs && i < a.vertices.size(); ++i)
        differs = !(a.vertices[i] == c.vertices[i]);
    EXPECT_TRUE(differs);
}

TEST(Mesh, VertexAddressing)
{
    Mesh q = meshes::quad({1, 1, 1, 1});
    q.buffer_base = 0x1000;
    EXPECT_EQ(q.vertexAddr(0), 0x1000u);
    EXPECT_EQ(q.vertexAddr(2), 0x1000u + 2 * kVertexBytes);
}

// ------------------------------------------------------------ Texture --

TEST(Texture, SolidIgnoresCoordinates)
{
    Texture t(TextureKind::Solid, 64, {0.5f, 0.25f, 0.75f, 1.0f},
              {0, 0, 0, 0});
    EXPECT_EQ(t.sample(0.1f, 0.9f), t.sample(0.7f, 0.2f));
}

TEST(Texture, CheckerAlternates)
{
    Texture t(TextureKind::Checker, 64, {1, 1, 1, 1}, {0, 0, 0, 1}, 0, 2);
    // Cells are 32 texels: (0,0) and (32/64, 0) differ.
    EXPECT_NE(t.sample(0.1f, 0.1f), t.sample(0.6f, 0.1f));
    EXPECT_EQ(t.sample(0.1f, 0.1f), t.sample(0.6f, 0.6f));
}

TEST(Texture, UvWraps)
{
    Texture t(TextureKind::Noise, 64, {0, 0, 0, 1}, {1, 1, 1, 1}, 9, 8);
    EXPECT_EQ(t.sample(0.3f, 0.4f), t.sample(1.3f, 0.4f));
    EXPECT_EQ(t.sample(0.3f, 0.4f), t.sample(0.3f, -0.6f));
}

TEST(Texture, NoiseIsDeterministicPerSeed)
{
    Texture a(TextureKind::Noise, 64, {0, 0, 0, 1}, {1, 1, 1, 1}, 11, 8);
    Texture b(TextureKind::Noise, 64, {0, 0, 0, 1}, {1, 1, 1, 1}, 11, 8);
    Texture c(TextureKind::Noise, 64, {0, 0, 0, 1}, {1, 1, 1, 1}, 12, 8);
    EXPECT_EQ(a.sample(0.5f, 0.5f), b.sample(0.5f, 0.5f));
    bool differs = false;
    for (int i = 0; i < 8 && !differs; ++i)
        differs = !(a.sample(i / 8.0f, 0.0f) == c.sample(i / 8.0f, 0.0f));
    EXPECT_TRUE(differs);
}

// floorExact stands in for std::floor in the texture wrap: it must give
// the same value (or NaN for NaN) for every float, here random bit
// patterns of every exponent plus the boundary cases.
TEST(Texture, FloorExactMatchesStdFloor)
{
    auto check = [](float u) {
        const float want = std::floor(u);
        const float got = texture_detail::floorExact(u);
        if (std::isnan(want))
            EXPECT_TRUE(std::isnan(got)) << u;
        else
            EXPECT_EQ(got, want) << u;
    };
    for (float u : {0.0f, -0.0f, 0.5f, -0.5f, 1.0f, -1.0f, -1.5f,
                    8388607.5f, -8388607.5f, 8388608.0f, -8388608.0f,
                    16777217.0f, 1e30f, -1e30f, INFINITY, -INFINITY, NAN,
                    1e-45f, -1e-45f})
        check(u);
    std::uint32_t h = 12345;
    for (int i = 0; i < 1000000; ++i) {
        h = h * 1664525u + 1013904223u;
        float u;
        std::memcpy(&u, &h, sizeof u);
        check(u);
    }
    // Dense coverage of the range texture coordinates actually take.
    for (int i = -40000; i <= 40000; ++i)
        check(static_cast<float>(i) * 0.000977f);
}

TEST(Texture, TexelAddressesFollowRowMajorLayout)
{
    Texture t(TextureKind::Solid, 64, {1, 1, 1, 1}, {0, 0, 0, 0});
    t.setBase(0x10000);
    Addr a00 = t.texelAddr(0.0f, 0.0f);
    // One texel to the right: +4 bytes.
    Addr a10 = t.texelAddr(1.5f / 64.0f, 0.0f);
    // One row down: +64*4 bytes.
    Addr a01 = t.texelAddr(0.0f, 1.5f / 64.0f);
    EXPECT_EQ(a00, 0x10000u);
    EXPECT_EQ(a10 - a00, 4u);
    EXPECT_EQ(a01 - a00, 64u * 4);
}

TEST(Texture, ContentKeyDistinguishesParameters)
{
    Texture a(TextureKind::Checker, 64, {1, 0, 0, 1}, {0, 0, 0, 1}, 0, 4);
    Texture b(TextureKind::Checker, 64, {0, 1, 0, 1}, {0, 0, 0, 1}, 0, 4);
    Texture c(TextureKind::Stripes, 64, {1, 0, 0, 1}, {0, 0, 0, 1}, 0, 4);
    EXPECT_NE(a.contentKey(), b.contentKey());
    EXPECT_NE(a.contentKey(), c.contentKey());
}

TEST(Texture, ByteSizeIsRgba8)
{
    Texture t(TextureKind::Solid, 128, {1, 1, 1, 1}, {0, 0, 0, 0});
    EXPECT_EQ(t.byteSize(), 128u * 128u * 4u);
}

// ------------------------------------------------------------- Camera --

TEST(Camera, Camera2DMapsPixelsToNdc)
{
    Scene s;
    setCamera2D(s, 200, 100);
    Mat4 vp = s.viewProj();
    // Top-left pixel corner -> (-1, +1).
    Vec4 tl = vp.transformPoint({0, 0, 0.5f});
    EXPECT_NEAR(tl.x / tl.w, -1.0f, 1e-5f);
    EXPECT_NEAR(tl.y / tl.w, 1.0f, 1e-5f);
    // Bottom-right corner -> (+1, -1).
    Vec4 br = vp.transformPoint({200, 100, 0.5f});
    EXPECT_NEAR(br.x / br.w, 1.0f, 1e-5f);
    EXPECT_NEAR(br.y / br.w, -1.0f, 1e-5f);
}

TEST(Camera, Camera2DDepthPassesThrough)
{
    Scene s;
    setCamera2D(s, 200, 100);
    Mat4 vp = s.viewProj();
    // App z = 0.25 should land at NDC z = -0.5, i.e. depth 0.25.
    Vec4 p = vp.transformPoint({10, 10, 0.25f});
    float depth = (p.z / p.w + 1.0f) * 0.5f;
    EXPECT_NEAR(depth, 0.25f, 1e-5f);
}

TEST(Camera, Camera3DCentersTarget)
{
    Scene s;
    setCamera3D(s, {0, 5, 10}, {0, 0, 0}, 60.0f, 1.5f);
    Vec4 c = s.viewProj().transformPoint({0, 0, 0});
    EXPECT_NEAR(c.x / c.w, 0.0f, 1e-5f);
    EXPECT_NEAR(c.y / c.w, 0.0f, 1e-5f);
}

// ---------------------------------------------------------- Animation --

TEST(Animation, OscillatePeriodicity)
{
    float a = anim::oscillate(10.0f, 2.0f, 30.0f, 7);
    float b = anim::oscillate(10.0f, 2.0f, 30.0f, 37);
    EXPECT_NEAR(a, b, 1e-4f);
}

TEST(Animation, OscillateBounds)
{
    for (int f = 0; f < 100; ++f) {
        float v = anim::oscillate(0.0f, 3.0f, 17.0f, f);
        EXPECT_LE(std::fabs(v), 3.0f + 1e-5f);
    }
}

TEST(Animation, SawtoothWrapsAndInterpolates)
{
    EXPECT_FLOAT_EQ(anim::sawtooth(0.0f, 10.0f, 10.0f, 0), 0.0f);
    EXPECT_FLOAT_EQ(anim::sawtooth(0.0f, 10.0f, 10.0f, 5), 5.0f);
    EXPECT_FLOAT_EQ(anim::sawtooth(0.0f, 10.0f, 10.0f, 10), 0.0f);
}

TEST(Animation, PingPongReflects)
{
    EXPECT_FLOAT_EQ(anim::pingPong(0.0f, 10.0f, 10.0f, 5), 5.0f);
    EXPECT_FLOAT_EQ(anim::pingPong(0.0f, 10.0f, 10.0f, 10), 10.0f);
    EXPECT_FLOAT_EQ(anim::pingPong(0.0f, 10.0f, 10.0f, 15), 5.0f);
    EXPECT_FLOAT_EQ(anim::pingPong(0.0f, 10.0f, 10.0f, 20), 0.0f);
}

TEST(Animation, OrbitStaysOnCircle)
{
    for (int f = 0; f < 50; ++f) {
        Vec3 p = anim::orbitXZ({1, 2, 3}, 5.0f, 60.0f, f);
        float r = std::sqrt((p.x - 1) * (p.x - 1) + (p.z - 3) * (p.z - 3));
        EXPECT_NEAR(r, 5.0f, 1e-4f);
        EXPECT_FLOAT_EQ(p.y, 2.0f);
    }
}

TEST(Animation, SpriteAtPlacesCenterAndScale)
{
    Mat4 m = anim::spriteAt(100, 50, 20, 10, 0.3f);
    // Quad center (origin) lands at the sprite position.
    EXPECT_EQ(m.transformPoint({0, 0, 0}).xyz(), (Vec3{100, 50, 0.3f}));
    // Corner (+0.5, +0.5) lands half a sprite away.
    EXPECT_EQ(m.transformPoint({0.5f, 0.5f, 0}).xyz(),
              (Vec3{110, 55, 0.3f}));
}

// -------------------------------------------------------------- Scene --

TEST(Scene, SubmitAssignsSequentialCommandIds)
{
    Mesh q = meshes::quad({1, 1, 1, 1});
    Scene s;
    RenderState rs;
    s.submit(&q, Mat4::identity(), rs);
    s.submit(&q, Mat4::identity(), rs);
    s.submit(&q, Mat4::identity(), rs);
    ASSERT_EQ(s.commands.size(), 3u);
    EXPECT_EQ(s.commands[0].id, 0u);
    EXPECT_EQ(s.commands[1].id, 1u);
    EXPECT_EQ(s.commands[2].id, 2u);
}

TEST(Scene, RenderStateClassification)
{
    RenderState woz;
    woz.depth_write = true;
    EXPECT_TRUE(woz.isWoz());

    RenderState nwoz;
    nwoz.depth_write = false;
    EXPECT_FALSE(nwoz.isWoz());

    RenderState discard;
    discard.program = FragmentProgram::TexturedDiscard;
    EXPECT_TRUE(discard.shaderDiscards());
    EXPECT_FALSE(woz.shaderDiscards());
}
