/**
 * @file
 * Rasterizer implementation (non-template parts).
 */
#include "gpu/rasterizer.hpp"

#include <algorithm>
#include <cmath>

namespace evrsim {

void
RasterScratch::ensure(std::size_t width)
{
    if (w0[0].size() >= width)
        return;
    for (int row = 0; row < 2; ++row) {
        w0[row].resize(width);
        w1[row].resize(width);
        w2[row].resize(width);
    }
    for (auto *lanes : {&x, &y})
        lanes->resize(2 * width);
    for (auto *lanes : {&b0, &b1, &b2, &depth, &r, &g, &b, &a, &u, &v})
        lanes->resize(2 * width);
}

namespace {

/**
 * The perspective-correct lanes of a span: color (@p Rgb), alpha
 * (@p Alpha) and UV (@p Uv) all divide by the same b0*i0 + b1*i1 +
 * b2*i2, so one reciprocal per fragment serves them all.
 */
template <bool Rgb, bool Alpha, bool Uv>
void
perspectiveSpan(const ShadedVertex &v0, const ShadedVertex &v1,
                const ShadedVertex &v2, int n, const float *__restrict b0,
                const float *__restrict b1, const float *__restrict b2,
                float *__restrict r, float *__restrict g,
                float *__restrict b, float *__restrict a,
                float *__restrict u, float *__restrict v)
{
    const float i0 = v0.inv_w, i1 = v1.inv_w, i2 = v2.inv_w;
    const float r0 = v0.color.x, r1 = v1.color.x, r2 = v2.color.x;
    const float g0 = v0.color.y, g1 = v1.color.y, g2 = v2.color.y;
    const float c0 = v0.color.z, c1 = v1.color.z, c2 = v2.color.z;
    const float a0 = v0.color.w, a1 = v1.color.w, a2 = v2.color.w;
    const float u0 = v0.uv.x * i0, u1 = v1.uv.x * i1, u2 = v2.uv.x * i2;
    const float t0 = v0.uv.y * i0, t1 = v1.uv.y * i1, t2 = v2.uv.y * i2;
    for (int k = 0; k < n; ++k) {
        const float p0 = b0[k] * i0;
        const float p1 = b1[k] * i1;
        const float p2 = b2[k] * i2;
        const float rw = 1.0f / (p0 + p1 + p2);
        if constexpr (Rgb) {
            r[k] = (r0 * p0 + r1 * p1 + r2 * p2) * rw;
            g[k] = (g0 * p0 + g1 * p1 + g2 * p2) * rw;
            b[k] = (c0 * p0 + c1 * p1 + c2 * p2) * rw;
        }
        if constexpr (Alpha)
            a[k] = (a0 * p0 + a1 * p1 + a2 * p2) * rw;
        if constexpr (Uv) {
            u[k] = (u0 * b0[k] + u1 * b1[k] + u2 * b2[k]) * rw;
            v[k] = (t0 * b0[k] + t1 * b1[k] + t2 * b2[k]) * rw;
        }
    }
}

/**
 * Interpolate the @p attrs lanes of a span from its barycentrics.
 * Each lane evaluates Rasterizer::interpolate's expression trees in the
 * same order (no reassociation; the build does not contract to FMA), so
 * the loops may be vectorized without changing a bit.
 */
void
interpolateSpan(const ShadedVertex &v0, const ShadedVertex &v1,
                const ShadedVertex &v2, unsigned attrs, int n,
                const float *__restrict b0, const float *__restrict b1,
                const float *__restrict b2, float *__restrict depth,
                float *__restrict r, float *__restrict g,
                float *__restrict b, float *__restrict a,
                float *__restrict u, float *__restrict v)
{
    // Vertex constants in locals: the loops then read only the lane
    // arrays, which lets the compiler vectorize them without aliasing
    // checks.
    const float d0 = v0.depth, d1 = v1.depth, d2 = v2.depth;
    if (attrs & kSpanDepth) {
        for (int k = 0; k < n; ++k)
            depth[k] = b0[k] * d0 + b1[k] * d1 + b2[k] * d2;
    }
    // RGB implies alpha (the color lanes are written together).
    const bool uv = (attrs & kSpanUv) != 0;
    if (attrs & kSpanRgb) {
        if (uv)
            perspectiveSpan<true, true, true>(v0, v1, v2, n, b0, b1, b2, r,
                                              g, b, a, u, v);
        else
            perspectiveSpan<true, true, false>(v0, v1, v2, n, b0, b1, b2, r,
                                               g, b, a, u, v);
    } else if (attrs & kSpanAlpha) {
        if (uv)
            perspectiveSpan<false, true, true>(v0, v1, v2, n, b0, b1, b2, r,
                                               g, b, a, u, v);
        else
            perspectiveSpan<false, true, false>(v0, v1, v2, n, b0, b1, b2,
                                                r, g, b, a, u, v);
    } else if (uv) {
        perspectiveSpan<false, false, true>(v0, v1, v2, n, b0, b1, b2, r, g,
                                            b, a, u, v);
    }
}

/**
 * One triangle edge P -> Q as the row coverage search evaluates it: at
 * pixel center (px, py) the edge function is t - b * (px - a) with
 * t = dx * (py - ay), b = Q.y - P.y and a = P.x — exactly the mul,
 * mul, sub tree of Rasterizer::signedArea2(P, Q, p).
 */
struct EdgeEq {
    float dx;    ///< Q.x - P.x
    float ay;    ///< P.y
    float b;     ///< Q.y - P.y
    float a;     ///< P.x
    float inv_b; ///< 1 / b: only for guessing where the test flips
    bool tl;     ///< top-left edge: a zero value counts as inside
};

EdgeEq
edgeEq(const Vec2 &p, const Vec2 &q, bool tl)
{
    return {q.x - p.x, p.y, q.y - p.y, p.x,
            q.y != p.y ? 1.0f / (q.y - p.y) : 0.0f, tl};
}

/** First x in [lo, hi) where the monotone predicate @p pred (false,
 *  then true) holds, or hi; the walk starts at the guess @p g. */
template <typename Pred>
int
firstTrue(int lo, int hi, int g, Pred pred)
{
    if (g < hi && !pred(g)) {
        do
            ++g;
        while (g < hi && !pred(g));
        return g;
    }
    while (g > lo && pred(g - 1))
        --g;
    return g;
}

/**
 * The pixels x in [@p lo, @p hi) of row @p y whose centers pass all
 * three edge tests, narrowed in place (empty: lo == hi).
 *
 * Along a row each edge value t - b * (px - a) is monotone in px:
 * px - a, the product with the fixed b and the difference from the
 * fixed t are each monotone, and IEEE rounding preserves monotonicity.
 * So each edge passes a prefix (b > 0), a suffix (b < 0) or all or
 * none (b == 0) of the row, and the covered pixels form one interval.
 * Its ends are found by evaluating the exact test near the real root
 * of the edge function, so the interval holds exactly the pixels the
 * per-pixel test accepts.
 */
void
coveredInterval(const EdgeEq (&edges)[3], int y, int &lo, int &hi)
{
    const float py = static_cast<float>(y) + 0.5f;
    for (const EdgeEq &e : edges) {
        const float t = e.dx * (py - e.ay);
        auto inside = [&](int x) {
            const float v =
                t - e.b * ((static_cast<float>(x) + 0.5f) - e.a);
            return v > 0.0f || (v == 0.0f && e.tl);
        };
        if (e.b == 0.0f) {
            if (!inside(lo))
                hi = lo;
        } else {
            // Guess the flip from the real root px = a + t / b; any
            // guess (even NaN or out of range) only costs walk steps.
            const float root = e.a + t * e.inv_b - 0.5f;
            const int g = !(root > static_cast<float>(lo)) ? lo
                          : !(root < static_cast<float>(hi))
                              ? hi
                              : static_cast<int>(root);
            if (e.b > 0.0f)
                hi = firstTrue(lo, hi, g, [&](int x) { return !inside(x); });
            else
                lo = firstTrue(lo, hi, g, inside);
        }
        if (lo >= hi) {
            hi = lo;
            return;
        }
    }
}

} // namespace

void
Rasterizer::rasterizeSpansImpl(const ShadedPrimitive &prim,
                               const RectI &bounds, unsigned attrs,
                               FrameStats &stats, RasterScratch &scratch,
                               SpanCallback callback, void *ctx)
{
    Setup s;
    if (!setup(prim, s))
        return;

    BBox2 bb = BBox2::ofTriangle(s.p0, s.p1, s.p2);
    RectI range = bounds.intersect(
        {static_cast<int>(std::floor(bb.min_x)),
         static_cast<int>(std::floor(bb.min_y)),
         static_cast<int>(std::floor(bb.max_x)) + 1,
         static_cast<int>(std::floor(bb.max_y)) + 1});
    if (range.empty())
        return;

    // coverage()'s three edges: e0 = signedArea2(p1, p2, p), e1 =
    // signedArea2(p2, p0, p), e2 = signedArea2(p0, p1, p).
    const EdgeEq edges[3] = {edgeEq(s.p1, s.p2, s.tl0),
                             edgeEq(s.p2, s.p0, s.tl1),
                             edgeEq(s.p0, s.p1, s.tl2)};
    // Row buffers are indexed from the first quad column.
    const int qx0 = range.x0 & ~1;
    scratch.ensure(static_cast<std::size_t>(range.x1 - qx0 + 1));

    const ShadedVertex &v0 = prim.v[s.i0];
    const ShadedVertex &v1 = prim.v[s.i1];
    const ShadedVertex &v2 = prim.v[s.i2];
    FragmentSpan span;
    span.x = scratch.x.data();
    span.y = scratch.y.data();
    span.depth = scratch.depth.data();
    span.r = scratch.r.data();
    span.g = scratch.g.data();
    span.b = scratch.b.data();
    span.a = scratch.a.data();
    span.u = scratch.u.data();
    span.v = scratch.v.data();

    std::uint64_t fragments = 0;
    std::uint64_t quads = 0;
    for (int qy = range.y0 & ~1; qy < range.y1; qy += 2) {
        // Covered pixels [lo, hi) of each row, and their barycentrics
        // (coverage()'s e * inv_area) in the row buffers.
        int lo[2], hi[2];
        for (int dy = 0; dy < 2; ++dy) {
            const int y = qy + dy;
            lo[dy] = hi[dy] = range.x0;
            if (y < range.y0 || y >= range.y1)
                continue;
            hi[dy] = range.x1;
            coveredInterval(edges, y, lo[dy], hi[dy]);
            const float py = static_cast<float>(y) + 0.5f;
            float ts[3];
            for (int k = 0; k < 3; ++k)
                ts[k] = edges[k].dx * (py - edges[k].ay);
            float *__restrict w0 = scratch.w0[dy].data();
            float *__restrict w1 = scratch.w1[dy].data();
            float *__restrict w2 = scratch.w2[dy].data();
            for (int x = lo[dy]; x < hi[dy]; ++x) {
                const float px = static_cast<float>(x) + 0.5f;
                const int i = x - qx0;
                w0[i] = (ts[0] - edges[0].b * (px - edges[0].a)) *
                        s.inv_area;
                w1[i] = (ts[1] - edges[1].b * (px - edges[1].a)) *
                        s.inv_area;
                w2[i] = (ts[2] - edges[2].b * (px - edges[2].a)) *
                        s.inv_area;
            }
        }
        // Nothing in either row: skipping the quad row is stats-neutral
        // (empty quads never count).
        if (lo[0] == hi[0] && lo[1] == hi[1])
            continue;

        // Compact covered pixels in quad-walk order: per quad column,
        // row qy then row qy+1, left pixel first.
        const int qlo = (lo[0] == hi[0]   ? lo[1]
                         : lo[1] == hi[1] ? lo[0]
                                          : std::min(lo[0], lo[1])) &
                        ~1;
        const int qhi = std::max(hi[0], hi[1]);
        int n = 0;
        for (int qx = qlo; qx < qhi; qx += 2) {
            const int before = n;
            for (int dy = 0; dy < 2; ++dy) {
                for (int x = std::max(qx, lo[dy]);
                     x < std::min(qx + 2, hi[dy]); ++x) {
                    const std::size_t li = static_cast<std::size_t>(x - qx0);
                    scratch.x[n] = x;
                    scratch.y[n] = qy + dy;
                    scratch.b0[n] = scratch.w0[dy][li];
                    scratch.b1[n] = scratch.w1[dy][li];
                    scratch.b2[n] = scratch.w2[dy][li];
                    ++n;
                }
            }
            if (n > before)
                ++quads;
        }
        fragments += static_cast<std::uint64_t>(n);

        interpolateSpan(v0, v1, v2, attrs, n, scratch.b0.data(),
                        scratch.b1.data(), scratch.b2.data(),
                        scratch.depth.data(), scratch.r.data(),
                        scratch.g.data(), scratch.b.data(),
                        scratch.a.data(), scratch.u.data(),
                        scratch.v.data());
        span.count = n;
        callback(ctx, span);
    }
    stats.fragments_generated += fragments;
    stats.raster_quads += quads;
}

bool
Rasterizer::setup(const ShadedPrimitive &prim, Setup &s)
{
    Vec2 a = prim.v[0].screen;
    Vec2 b = prim.v[1].screen;
    Vec2 c = prim.v[2].screen;

    float area = signedArea2(a, b, c);
    if (area == 0.0f)
        return false;

    if (area > 0.0f) {
        s.p0 = a;
        s.p1 = b;
        s.p2 = c;
        s.i0 = 0;
        s.i1 = 1;
        s.i2 = 2;
    } else {
        // Normalize winding so the interior is on the positive side of
        // every edge; remember the vertex permutation for interpolation.
        s.p0 = a;
        s.p1 = c;
        s.p2 = b;
        s.i0 = 0;
        s.i1 = 2;
        s.i2 = 1;
        area = -area;
    }
    s.inv_area = 1.0f / area;

    // Top-left rule (y grows downwards): an edge a->b is "top" when it is
    // horizontal with the interior below (b.x > a.x), and "left" when it
    // goes upwards (b.y < a.y). Fragments on top/left edges are included,
    // on bottom/right edges excluded, so shared edges shade exactly once.
    auto top_left = [](const Vec2 &ea, const Vec2 &eb) {
        return (ea.y == eb.y && eb.x > ea.x) || (eb.y < ea.y);
    };
    s.tl0 = top_left(s.p1, s.p2);
    s.tl1 = top_left(s.p2, s.p0);
    s.tl2 = top_left(s.p0, s.p1);
    return true;
}

bool
Rasterizer::triangleOverlapsRect(const ShadedPrimitive &prim,
                                 const RectI &rect)
{
    Vec2 a = prim.v[0].screen;
    Vec2 b = prim.v[1].screen;
    Vec2 c = prim.v[2].screen;

    // Reject on bounding boxes first.
    BBox2 bb = BBox2::ofTriangle(a, b, c);
    auto rx0 = static_cast<float>(rect.x0);
    auto ry0 = static_cast<float>(rect.y0);
    auto rx1 = static_cast<float>(rect.x1);
    auto ry1 = static_cast<float>(rect.y1);
    if (bb.min_x >= rx1 || bb.max_x <= rx0 || bb.min_y >= ry1 ||
        bb.max_y <= ry0)
        return false;

    float area = signedArea2(a, b, c);
    if (area == 0.0f)
        return true; // degenerate: be conservative, keep the bbox result
    if (area < 0.0f)
        std::swap(b, c);

    // Separating-edge test: if all four rect corners lie strictly outside
    // one triangle edge, there is no intersection.
    const Vec2 corners[4] = {{rx0, ry0}, {rx1, ry0}, {rx0, ry1}, {rx1, ry1}};
    const Vec2 edges[3][2] = {{a, b}, {b, c}, {c, a}};
    for (const auto &e : edges) {
        bool all_outside = true;
        for (const auto &corner : corners) {
            if (signedArea2(e[0], e[1], corner) > 0.0f) {
                all_outside = false;
                break;
            }
        }
        if (all_outside)
            return false;
    }
    return true;
}

} // namespace evrsim
