/**
 * @file
 * Edge-function triangle rasterizer with top-left fill rule and
 * perspective-correct attribute interpolation.
 *
 * Rasterization is restricted to a caller-supplied rectangle (the tile
 * being rendered) and walks pixels in 2x2 quads — the granularity
 * fragment processors and the Early-Z unit operate at. The reference
 * path emits one Fragment per covered pixel center; the production path
 * emits the same fragments a quad row at a time as SoA spans. The same
 * code path runs for every configuration, so Baseline/RE/EVR produce
 * bit-identical coverage and interpolants, which the correctness
 * property tests rely on.
 */
#ifndef EVRSIM_GPU_RASTERIZER_HPP
#define EVRSIM_GPU_RASTERIZER_HPP

#include <type_traits>
#include <vector>

#include "common/rect.hpp"
#include "gpu/gpu_stats.hpp"
#include "gpu/primitive.hpp"

namespace evrsim {

/** One rasterized fragment (pixel-sized piece of a primitive). */
struct Fragment {
    int x = 0; ///< screen pixel x
    int y = 0; ///< screen pixel y
    float depth = 0.0f;
    Vec4 color;
    Vec2 uv;
};

/**
 * Interpolated attributes a span consumer asks for (a bit set); lanes
 * of attributes not asked for are left unspecified.
 */
enum SpanAttr : unsigned {
    kSpanDepth = 1u << 0, ///< FragmentSpan::depth
    kSpanRgb = 1u << 1,   ///< FragmentSpan::r, g, b
    kSpanAlpha = 1u << 2, ///< FragmentSpan::a
    kSpanUv = 1u << 3,    ///< FragmentSpan::u, v
};

/**
 * The covered fragments of one quad row of a primitive — pixel rows
 * qy and qy+1 of the 2x2-quad walk — as SoA lanes, in the canonical
 * quad-walk order (qx, then dy, then dx). That order, not plain row
 * order, is what keeps the consumer's texture fetches in the sequence
 * the simulated texture caches have always seen.
 */
struct FragmentSpan {
    int count = 0;
    const int *x = nullptr; ///< screen pixel x per lane
    const int *y = nullptr; ///< screen pixel y per lane
    const float *depth = nullptr;
    const float *r = nullptr;
    const float *g = nullptr;
    const float *b = nullptr;
    const float *a = nullptr;
    const float *u = nullptr;
    const float *v = nullptr;
};

/**
 * Reusable SoA buffers for Rasterizer::rasterizeSpans: barycentric
 * lanes for the two rows of the quad row being walked, plus the
 * compacted span lanes handed to the consumer. One instance per
 * thread, reused across all tiles and primitives, keeps the hot loop
 * allocation-free.
 */
struct RasterScratch {
    std::vector<float> w0[2];
    std::vector<float> w1[2];
    std::vector<float> w2[2];

    /** Span lanes (two rows' worth): coordinates, the covered lanes'
     *  barycentrics, and the interpolated attributes. */
    std::vector<int> x, y;
    std::vector<float> b0, b1, b2;
    std::vector<float> depth, r, g, b, a, u, v;

    /** Grow the buffers to hold rows of at least @p width lanes. */
    void ensure(std::size_t width);
};

/** Stateless rasterization routines. */
class Rasterizer
{
  public:
    /**
     * Rasterize @p prim inside @p bounds, invoking @p sink for each
     * covered pixel. @p stats receives quad/fragment counts. This is
     * the scalar reference: tests and the invariant auditor's reference
     * render use it, the raster pipeline uses rasterizeSpans().
     *
     * @tparam Sink callable as void(const Fragment &)
     */
    template <typename Sink>
    static void
    rasterize(const ShadedPrimitive &prim, const RectI &bounds,
              FrameStats &stats, Sink &&sink)
    {
        Setup s;
        if (!setup(prim, s))
            return;

        // Clip the iteration range to the triangle's bounding box.
        BBox2 bb = BBox2::ofTriangle(s.p0, s.p1, s.p2);
        RectI range = bounds.intersect(
            {static_cast<int>(std::floor(bb.min_x)),
             static_cast<int>(std::floor(bb.min_y)),
             static_cast<int>(std::floor(bb.max_x)) + 1,
             static_cast<int>(std::floor(bb.max_y)) + 1});
        if (range.empty())
            return;

        // Align the quad walk to even coordinates.
        int qx0 = range.x0 & ~1;
        int qy0 = range.y0 & ~1;

        Fragment frag;
        for (int qy = qy0; qy < range.y1; qy += 2) {
            for (int qx = qx0; qx < range.x1; qx += 2) {
                bool quad_covered = false;
                for (int dy = 0; dy < 2; ++dy) {
                    int y = qy + dy;
                    if (y < range.y0 || y >= range.y1)
                        continue;
                    for (int dx = 0; dx < 2; ++dx) {
                        int x = qx + dx;
                        if (x < range.x0 || x >= range.x1)
                            continue;
                        float w0, w1, w2;
                        if (!coverage(s, x, y, w0, w1, w2))
                            continue;
                        quad_covered = true;
                        interpolate(prim, s, x, y, w0, w1, w2, frag);
                        ++stats.fragments_generated;
                        sink(static_cast<const Fragment &>(frag));
                    }
                }
                if (quad_covered)
                    ++stats.raster_quads;
            }
        }
    }

    /**
     * Production rasterizer: the same fragments as rasterize(), with the
     * same quad and fragment counts, delivered one quad row at a time
     * as a FragmentSpan instead of one callback per fragment.
     *
     * Each row's covered pixels form one interval (the edge tests are
     * monotone along a row), found by evaluating coverage()'s exact
     * test near each edge's crossing instead of at every pixel; the
     * covered pixels' barycentrics and the attributes in @p attrs
     * (SpanAttr bits) are then computed lane by lane with the
     * expression trees of coverage() and interpolate(), so every lane
     * holds the exact float the reference path computes. Row pairs with
     * no coverage are skipped.
     *
     * @param sink callable as void(const FragmentSpan &), once per
     *             quad row with at least one covered fragment
     */
    template <typename SpanSink>
    static void
    rasterizeSpans(const ShadedPrimitive &prim, const RectI &bounds,
                   unsigned attrs, FrameStats &stats,
                   RasterScratch &scratch, SpanSink &&sink)
    {
        rasterizeSpansImpl(
            prim, bounds, attrs, stats, scratch,
            [](void *ctx, const FragmentSpan &span) {
                (*static_cast<std::remove_reference_t<SpanSink> *>(ctx))(
                    span);
            },
            &sink);
    }

    /**
     * Conservative-exact triangle/rectangle overlap test used by the
     * Polygon List Builder: true iff the triangle intersects the pixel
     * rectangle [x0, x1) x [y0, y1).
     */
    static bool triangleOverlapsRect(const ShadedPrimitive &prim,
                                     const RectI &rect);

    /** Twice the signed screen-space area (y-down coordinates). */
    static float
    signedArea2(const Vec2 &a, const Vec2 &b, const Vec2 &c)
    {
        return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
    }

  private:
    using SpanCallback = void (*)(void *ctx, const FragmentSpan &span);

    /** Type-erased body of rasterizeSpans (one copy for all sinks). */
    static void rasterizeSpansImpl(const ShadedPrimitive &prim,
                                   const RectI &bounds, unsigned attrs,
                                   FrameStats &stats, RasterScratch &scratch,
                                   SpanCallback callback, void *ctx);

    /** Precomputed per-triangle rasterization state. */
    struct Setup {
        Vec2 p0, p1, p2;     ///< winding-normalized screen positions
        int i0, i1, i2;      ///< indices into prim.v after normalization
        float inv_area = 0;  ///< 1 / signedArea2(p0, p1, p2)
        bool tl0, tl1, tl2;  ///< top-left classification per edge
    };

    /** Prepare @p s; returns false for degenerate triangles. */
    static bool setup(const ShadedPrimitive &prim, Setup &s);

    /**
     * Coverage test at pixel center (x+0.5, y+0.5) with the top-left
     * rule; outputs normalized barycentrics on success.
     */
    static bool
    coverage(const Setup &s, int x, int y, float &w0, float &w1, float &w2)
    {
        Vec2 p{x + 0.5f, y + 0.5f};
        float e0 = signedArea2(s.p1, s.p2, p);
        float e1 = signedArea2(s.p2, s.p0, p);
        float e2 = signedArea2(s.p0, s.p1, p);

        bool in0 = e0 > 0.0f || (e0 == 0.0f && s.tl0);
        bool in1 = e1 > 0.0f || (e1 == 0.0f && s.tl1);
        bool in2 = e2 > 0.0f || (e2 == 0.0f && s.tl2);
        if (!(in0 && in1 && in2))
            return false;

        w0 = e0 * s.inv_area;
        w1 = e1 * s.inv_area;
        w2 = e2 * s.inv_area;
        return true;
    }

    /**
     * Perspective-correct interpolation into @p frag (the reference
     * path; interpolateSpan in rasterizer.cpp evaluates the same
     * expressions lane by lane).
     */
    static void
    interpolate(const ShadedPrimitive &prim, const Setup &s, int x, int y,
                float w0, float w1, float w2, Fragment &frag)
    {
        const ShadedVertex &v0 = prim.v[s.i0];
        const ShadedVertex &v1 = prim.v[s.i1];
        const ShadedVertex &v2 = prim.v[s.i2];

        frag.x = x;
        frag.y = y;

        // Depth interpolates affinely in screen space (post-projection z).
        frag.depth = w0 * v0.depth + w1 * v1.depth + w2 * v2.depth;

        // Attributes interpolate perspective-correct: lerp attr/w and 1/w.
        float iw = w0 * v0.inv_w + w1 * v1.inv_w + w2 * v2.inv_w;
        float rw = 1.0f / iw;

        frag.color = (v0.color * (w0 * v0.inv_w) +
                      v1.color * (w1 * v1.inv_w) +
                      v2.color * (w2 * v2.inv_w)) *
                     rw;
        Vec2 uv = {(v0.uv.x * v0.inv_w) * w0 + (v1.uv.x * v1.inv_w) * w1 +
                       (v2.uv.x * v2.inv_w) * w2,
                   (v0.uv.y * v0.inv_w) * w0 + (v1.uv.y * v1.inv_w) * w1 +
                       (v2.uv.y * v2.inv_w) * w2};
        frag.uv = {uv.x * rw, uv.y * rw};
    }
};

} // namespace evrsim

#endif // EVRSIM_GPU_RASTERIZER_HPP
