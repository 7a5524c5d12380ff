/**
 * @file
 * Raster Pipeline implementation.
 */
#include "gpu/raster_pipeline.hpp"

#include "common/crash_handler.hpp"
#include "common/log.hpp"
#include "common/ordered_stream.hpp"
#include "common/trace.hpp"
#include "gpu/invariant_auditor.hpp"
#include "gpu/rasterizer.hpp"
#include "gpu/reference_raster.hpp"

namespace evrsim {

namespace {

/**
 * Per-thread tile-rendering scratch: the on-chip tile buffers plus the
 * rasterizer's SoA span buffers, reused across every tile a thread
 * renders so the steady-state hot path performs no heap allocation.
 * Thread-local (rather than per-pipeline) because tile jobs from
 * several concurrent simulations can share one JobPool worker; every
 * buffer is fully re-initialized per tile, so reuse cannot leak state
 * between tiles, frames or simulations.
 */
struct TileScratch {
    std::vector<float> depth;
    /** Preloaded depth: display-list position that set each pixel's
     *  final depth (kNoZWinner where none did). */
    std::vector<std::uint32_t> zwin;
    std::vector<Rgba8> color;
    std::vector<int> owner;
    std::vector<char> contributed;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> blend_journal;
    std::vector<DisplayListEntry> order;
    /** One span's opaque writes, batched for the visibility tracker. */
    std::vector<std::uint32_t> opaque_pixels;
    RasterScratch raster;
    /** Access log of the tile this thread renders and replays at once. */
    TileMemLog log;
};

thread_local TileScratch t_scratch;

/** Names @p tile in this thread's crash context for the scope. */
struct CrashTileScope {
    explicit CrashTileScope(int tile) { crashContextSetTile(tile); }
    ~CrashTileScope() { crashContextSetTile(-1); }
    CrashTileScope(const CrashTileScope &) = delete;
    CrashTileScope &operator=(const CrashTileScope &) = delete;
};

constexpr std::uint32_t kNoZWinner = ~std::uint32_t{0};

/** Where a primitive's depth test sits (Early needs a shader that
 *  cannot discard; Late runs after shading). */
enum class ZMode { None, Early, Late };

/**
 * Compile-time shape of one primitive's fragment loop: the per-primitive
 * constants the loop would otherwise re-test for every fragment.
 */
template <FragmentProgram Prog, ZMode Z, bool Write, bool Leq, bool Blend,
          bool Track>
struct SpanSpec {
    static constexpr FragmentProgram kProgram = Prog;
    static constexpr ZMode kZ = Z;
    static constexpr bool kWrite = Write; ///< depth write on pass
    static constexpr bool kLeq = Leq;     ///< preloaded depth: first-wins tie
    static constexpr bool kBlend = Blend; ///< BlendMode::Alpha
    static constexpr bool kTrack = Track; ///< visibility tracker present
    static constexpr bool kTextured =
        ShaderCore::fragmentTexFetches(Prog) > 0;

    /** SpanAttr lanes the loop reads. */
    static constexpr unsigned
    attrs()
    {
        unsigned a = Z == ZMode::None ? 0u : unsigned{kSpanDepth};
        switch (Prog) {
          case FragmentProgram::Flat:
            return a | kSpanRgb | kSpanAlpha;
          case FragmentProgram::Textured:
            // An opaque write forces alpha to 1, so only blending reads
            // the vertex alpha.
            return a | kSpanUv | (Blend ? unsigned{kSpanAlpha} : 0u);
          default:
            return a | kSpanRgb | kSpanAlpha | kSpanUv;
        }
    }
};

/** Everything a primitive's span loop reads or writes. */
struct PrimContext {
    // Tile buffers and geometry.
    float *depth;
    const std::uint32_t *zwin; ///< preloaded depth's winners (kLeq only)
    Rgba8 *color;
    int *owner;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> *blend_journal;
    std::uint32_t *opaque_pixels;
    int x0, y0, w;
    int tile;
    // The primitive.
    std::uint32_t pos;
    std::uint16_t layer;
    bool is_woz;
    const Texture *tex;
    // Memory and hooks.
    ShaderCore *shader;
    TileMemLog *log;
    TileVisibilityTracker *tracker;
    FrameStats *ts;
};

/** Per-primitive event counts, kept in locals and flushed once. */
struct PrimCounts {
    std::uint64_t z_tests = 0;
    std::uint64_t z_kills = 0;
    std::uint64_t z_writes = 0;
    std::uint64_t shaded = 0;
    std::uint64_t discarded = 0;
    std::uint64_t blended = 0;
};

/**
 * Depth test (and write) of the fragment at tile pixel @p li; false =
 * killed. Against preloaded final depths a Z-writer passes on equality
 * only if it set that depth in the prepass, so ties keep the
 * submission-order winner (the first), as without a preload.
 */
template <class S>
inline bool
depthTest(float z, std::size_t li, const PrimContext &c, PrimCounts &n)
{
    ++n.z_tests;
    float &stored = c.depth[li];
    const bool pass =
        z < stored || (S::kLeq && z == stored && c.zwin[li] == c.pos);
    if (!pass) {
        ++n.z_kills;
        return false;
    }
    if constexpr (S::kWrite) {
        stored = z;
        ++n.z_writes;
    }
    return true;
}

/**
 * One span through depth test, shading, blending and the Color Buffer
 * write, specialized by @p S. Fragments are processed in span (quad
 * walk) order, so texture fetches reach the simulated caches in the
 * same sequence as one-fragment-at-a-time processing.
 */
template <class S>
void
shadeSpan(const FragmentSpan &sp, const PrimContext &c, PrimCounts &n)
{
    int opaque = 0;
    for (int k = 0; k < sp.count; ++k) {
        const std::size_t li =
            static_cast<std::size_t>(sp.y[k] - c.y0) * c.w +
            static_cast<std::size_t>(sp.x[k] - c.x0);
        if constexpr (S::kZ == ZMode::Early) {
            if (!depthTest<S>(sp.depth[k], li, c, n))
                continue;
        }

        ++n.shaded;
        Vec4 t;
        const Vec2 uv = (S::attrs() & kSpanUv) ? Vec2{sp.u[k], sp.v[k]}
                                               : Vec2{};
        if constexpr (S::kTextured) {
            int tx, ty;
            c.tex->toTexel(uv.x, uv.y, tx, ty);
            c.log->textureFetch(c.shader->unitFor(sp.x[k], sp.y[k]),
                                c.tex->texelAddrAt(tx, ty), 4);
            t = c.tex->texelAt(tx, ty);
        }
        const Vec4 color = {(S::attrs() & kSpanRgb) ? sp.r[k] : 0.0f,
                            (S::attrs() & kSpanRgb) ? sp.g[k] : 0.0f,
                            (S::attrs() & kSpanRgb) ? sp.b[k] : 0.0f,
                            (S::attrs() & kSpanAlpha) ? sp.a[k] : 0.0f};
        Vec4 res;
        if (!ShaderCore::programColor<S::kProgram>(color, uv, t, res)) {
            ++n.discarded;
            continue;
        }

        if constexpr (S::kZ == ZMode::Late) {
            // Late Depth Test (shader may have discarded fragments, so
            // the Z Buffer could not be updated early).
            if (!depthTest<S>(sp.depth[k], li, c, n))
                continue;
        }

        ++n.blended;
        bool is_opaque = true;
        if constexpr (!S::kBlend) {
            res.w = 1.0f;
            c.color[li] = toRgba8(res);
        } else {
            const Vec4 dst = toVec4(c.color[li]);
            const float a = clampf(res.w, 0.0f, 1.0f);
            Vec4 out = res * a + dst * (1.0f - a);
            out.w = a + dst.w * (1.0f - a);
            c.color[li] = toRgba8(out);
            is_opaque = res.w >= 1.0f;
        }
        if (is_opaque) {
            c.owner[li] = static_cast<int>(c.pos);
            if constexpr (S::kTrack)
                c.opaque_pixels[opaque++] = static_cast<std::uint32_t>(li);
        } else {
            c.blend_journal->emplace_back(static_cast<std::uint32_t>(li),
                                          c.pos);
        }
    }
    if constexpr (S::kTrack) {
        if (opaque > 0)
            c.tracker->onOpaqueWrites(c.tile, c.opaque_pixels, opaque,
                                      c.layer, c.is_woz, *c.ts);
    }
}

/** Rasterize and shade one primitive with loop shape @p S. */
template <class S>
void
renderPrimitive(const ShadedPrimitive &prim, const RectI &rect,
                const PrimContext &c, RasterScratch &scratch)
{
    FrameStats &ts = *c.ts;
    PrimCounts n;
    Rasterizer::rasterizeSpans(
        prim, rect, S::attrs(), ts, scratch,
        [&](const FragmentSpan &span) { shadeSpan<S>(span, c, n); });

    if constexpr (S::kZ == ZMode::Early) {
        ts.early_z_tests += n.z_tests;
        ts.early_z_kills += n.z_kills;
    } else if constexpr (S::kZ == ZMode::Late) {
        ts.late_z_tests += n.z_tests;
        ts.late_z_kills += n.z_kills;
    }
    ts.depth_buffer_accesses += n.z_tests + n.z_writes;
    ts.fragments_shaded += n.shaded;
    ts.fragment_shader_instrs +=
        n.shaded * ShaderCore::fragmentInstrs(S::kProgram);
    ts.texture_fetches +=
        n.shaded * ShaderCore::fragmentTexFetches(S::kProgram);
    ts.fragments_discarded_shader += n.discarded;
    ts.blend_ops += n.blended;
    // Opaque writes touch the Color Buffer once; blends read and write.
    ts.color_buffer_accesses += (S::kBlend ? 2 : 1) * n.blended;
}

/** Call @p f with std::true_type{} or std::false_type{} for @p b. */
template <typename F>
decltype(auto)
withBool(bool b, F &&f)
{
    if (b)
        return f(std::true_type{});
    return f(std::false_type{});
}

/**
 * Pick the SpanSpec for @p state once per primitive and render it.
 * Only reachable shapes are instantiated: a discarding program can
 * only test depth late and every other program only early, and depth
 * write/leq mean nothing without a depth test.
 */
void
dispatchPrimitive(const ShadedPrimitive &prim, const RectI &rect,
                  bool preloaded_z, const PrimContext &c,
                  RasterScratch &scratch)
{
    const RenderState &state = prim.state;
    const bool write = state.depth_write;
    // Preloaded final depths (oracle or Z-Prepass): the Z-writer that
    // set a pixel's final depth must pass on equality or it kills
    // itself.
    const bool leq = preloaded_z && write;
    ShaderCore::withProgram(state.program, [&](auto prog) {
        constexpr FragmentProgram P = decltype(prog)::value;
        constexpr ZMode kTested = P == FragmentProgram::TexturedDiscard
                                      ? ZMode::Late
                                      : ZMode::Early;
        auto shaped = [&](auto z, auto w, auto l) {
            withBool(state.blend == BlendMode::Alpha, [&](auto blend) {
                withBool(c.tracker != nullptr, [&](auto track) {
                    renderPrimitive<SpanSpec<P, decltype(z)::value,
                                             decltype(w)::value,
                                             decltype(l)::value,
                                             decltype(blend)::value,
                                             decltype(track)::value>>(
                        prim, rect, c, scratch);
                });
            });
        };
        using None = std::integral_constant<ZMode, ZMode::None>;
        using Tested = std::integral_constant<ZMode, kTested>;
        if (!state.depth_test)
            shaped(None{}, std::false_type{}, std::false_type{});
        else if (!write)
            shaped(Tested{}, std::false_type{}, std::false_type{});
        else if (!leq)
            shaped(Tested{}, std::true_type{}, std::false_type{});
        else
            shaped(Tested{}, std::true_type{}, std::true_type{});
    });
}

} // namespace

RasterPipeline::RasterPipeline(const GpuConfig &config, MemorySystem &mem,
                               ShaderCore &shader, const TimingModel &timing)
    : config_(config), mem_(mem), shader_(shader), timing_(timing)
{
}

RectI
RasterPipeline::tileRect(int tile) const
{
    int ts = config_.tile_size;
    int tx = tile % config_.tilesX();
    int ty = tile / config_.tilesX();
    RectI rect = {tx * ts, ty * ts, (tx + 1) * ts, (ty + 1) * ts};
    return rect.intersect({0, 0, config_.screen_width,
                           config_.screen_height});
}

void
RasterPipeline::depthPrepass(const RectI &rect, const Scene &scene,
                             const ParameterBuffer &pb,
                             const std::vector<DisplayListEntry> &order,
                             float clear_depth, std::vector<float> &depth,
                             std::vector<std::uint32_t> &zwin,
                             FrameStats *charge, TileMemLog &log,
                             RasterScratch &scratch) const
{
    depth.assign(static_cast<std::size_t>(rect.area()), clear_depth);
    zwin.assign(depth.size(), kNoZWinner);
    const int w = rect.width();

    // With charge == null this is Figure 8's idealization: it runs
    // functionally, costing no cycles, energy or memory traffic. With a
    // stats block it is the real Z-Prepass: rasterization, depth tests
    // and discard-shader evaluations are all paid a second time.
    FrameStats uncharged;
    FrameStats &ts = charge ? *charge : uncharged;

    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const ShadedPrimitive &prim = pb.prim(order[pos].prim);
        const RenderState &state = prim.state;
        if (!state.depth_write)
            continue;
        if (charge)
            ++ts.prim_tile_rasterized;

        // Discarding shaders must run even in a depth-only pass (the
        // discard decides Z coverage).
        const bool discards = state.shaderDiscards();
        const Texture *tex =
            discards && state.texture >= 0
                ? scene.textures[static_cast<std::size_t>(state.texture)]
                : nullptr;
        const unsigned attrs =
            kSpanDepth | (discards ? kSpanAlpha | kSpanUv : 0u);
        auto span_depth = [&](const FragmentSpan &sp) {
            for (int k = 0; k < sp.count; ++k) {
                const std::size_t li =
                    static_cast<std::size_t>(sp.y[k] - rect.y0) * w +
                    static_cast<std::size_t>(sp.x[k] - rect.x0);
                if (discards) {
                    float alpha = sp.a[k];
                    if (tex) {
                        if (charge) {
                            ++ts.fragments_shaded;
                            FragmentShadeResult res = shader_.shadeFragment(
                                state, {0.0f, 0.0f, 0.0f, sp.a[k]},
                                {sp.u[k], sp.v[k]}, sp.x[k], sp.y[k], ts,
                                log);
                            alpha = res.discarded ? 0.0f : 1.0f;
                        } else {
                            alpha *= tex->sample(sp.u[k], sp.v[k]).w;
                        }
                    }
                    if (alpha < 0.5f)
                        continue;
                }
                if (state.depth_test) {
                    if (charge) {
                        ++ts.early_z_tests;
                        ++ts.depth_buffer_accesses;
                    }
                    if (!(sp.depth[k] < depth[li])) {
                        if (charge)
                            ++ts.early_z_kills;
                        continue;
                    }
                }
                if (charge)
                    ++ts.depth_buffer_accesses;
                depth[li] = sp.depth[k];
                zwin[li] = static_cast<std::uint32_t>(pos);
            }
        };
        Rasterizer::rasterizeSpans(prim, rect, attrs, ts, scratch,
                                   span_depth);
    }
}

void
RasterPipeline::renderTile(int tile, const Scene &scene,
                           const ParameterBuffer &pb, Framebuffer &fb,
                           bool has_prev_frame, const RasterHooks &hooks,
                           FrameStats &ts, TileMemLog &log)
{
    ++ts.tiles_total;

    if (hooks.signature && hooks.signature->shouldSkipTile(tile, ts)) {
        // Rendering Elimination hit: the framebuffer already holds this
        // tile's colors from the previous frame.
        ++ts.tiles_skipped_re;
        if (hooks.tracker)
            hooks.tracker->tileSkipped(tile);
        if (has_prev_frame) {
            // A skipped tile is unchanged by construction.
            ++ts.tiles_equal_oracle;
        }
        // Audit the skip decision itself: the pixels left in place must
        // equal what rendering this frame's display list would produce.
        if (hooks.auditor && hooks.auditor->identityEnabled() &&
            hooks.auditor->shouldAuditTile(tile)) {
            ++ts.validate_tile_checks;
            RectI rect = tileRect(tile);
            std::vector<Rgba8> ref = renderTileReference(
                scene, pb, rect, pb.renderOrder(tile));
            bool same = true;
            for (int y = rect.y0; y < rect.y1 && same; ++y)
                for (int x = rect.x0; x < rect.x1; ++x)
                    if (fb.pixel(x, y) !=
                        ref[static_cast<std::size_t>(y - rect.y0) *
                                rect.width() +
                            (x - rect.x0)]) {
                        same = false;
                        break;
                    }
            if (!same) {
                hooks.auditor->reportTileMismatch(tile, ts);
                for (int y = rect.y0; y < rect.y1; ++y)
                    for (int x = rect.x0; x < rect.x1; ++x)
                        fb.setPixel(
                            x, y,
                            ref[static_cast<std::size_t>(y - rect.y0) *
                                    rect.width() +
                                (x - rect.x0)]);
                hooks.auditor->degradeTile(tile, ts);
            }
        }
        return;
    }
    ++ts.tiles_rendered;

    RectI rect = tileRect(tile);
    const int w = rect.width();
    const auto npix = static_cast<std::size_t>(rect.area());

    // Fetch the Display List through the Tile Cache.
    unsigned entry_bytes = DisplayListEntry::kBaseBytes;
    if (hooks.tracker)
        entry_bytes += DisplayListEntry::kLayerBytes;
    for (Addr addr : pb.entryAddrs(tile))
        log.paramRead(addr, entry_bytes);

    // On-chip tile buffers, from the thread's reusable scratch (every
    // one fully re-initialized here).
    const std::vector<DisplayListEntry> &order =
        pb.renderOrderInto(tile, t_scratch.order);

    std::vector<float> &depth = t_scratch.depth;
    if (hooks.oracle_z || hooks.z_prepass) {
        depthPrepass(rect, scene, pb, order, scene.clear_depth, depth,
                     t_scratch.zwin, hooks.z_prepass ? &ts : nullptr, log,
                     t_scratch.raster);
    } else {
        depth.assign(npix, scene.clear_depth);
    }
    std::vector<Rgba8> &color = t_scratch.color;
    color.assign(npix, scene.clear_color);
    /** Display-list position of the opaque fragment owning each pixel. */
    std::vector<int> &owner = t_scratch.owner;
    owner.assign(npix, -1);
    /** Ground-truth contribution per display-list position. */
    std::vector<char> &contributed = t_scratch.contributed;
    contributed.assign(order.size(), 0);
    /** Journal of translucent blends: (pixel, position). A translucent
     *  blend only reaches the final image if no opaque write follows at
     *  that pixel, resolved against the final owner at end of tile. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> &blend_journal =
        t_scratch.blend_journal;
    blend_journal.clear();

    if (hooks.tracker)
        hooks.tracker->tileStart(tile, w, rect.height(), ts);

    // A span holds at most two rows of whole quads.
    t_scratch.opaque_pixels.resize(2 * static_cast<std::size_t>(w + 2));
    PrimContext ctx{};
    ctx.depth = depth.data();
    ctx.zwin = t_scratch.zwin.data();
    ctx.color = color.data();
    ctx.owner = owner.data();
    ctx.blend_journal = &blend_journal;
    ctx.opaque_pixels = t_scratch.opaque_pixels.data();
    ctx.x0 = rect.x0;
    ctx.y0 = rect.y0;
    ctx.w = w;
    ctx.tile = tile;
    ctx.shader = &shader_;
    ctx.log = &log;
    ctx.tracker = hooks.tracker;
    ctx.ts = &ts;
    const bool preloaded_z = hooks.oracle_z || hooks.z_prepass;

    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const DisplayListEntry &e = order[pos];
        const ShadedPrimitive &prim = pb.prim(e.prim);

        log.paramRead(prim.pb_addr, ShadedPrimitive::kAttrBytes);
        ++ts.prim_tile_rasterized;

        const RenderState &state = prim.state;
        ctx.pos = static_cast<std::uint32_t>(pos);
        ctx.layer = e.layer;
        ctx.is_woz = state.depth_write;
        ctx.tex = ShaderCore::fragmentTexFetches(state.program) > 0
                      ? shader_.boundTexture(state.texture)
                      : nullptr;
        dispatchPrimitive(prim, rect, preloaded_z, ctx, t_scratch.raster);
    }

    // Ground truth: a primitive contributed iff it owns a pixel's base
    // color or blended into the pixel after its final opaque write.
    for (std::size_t li = 0; li < npix; ++li) {
        if (owner[li] >= 0)
            contributed[static_cast<std::size_t>(owner[li])] = 1;
    }
    for (const auto &[li, pos] : blend_journal) {
        if (static_cast<int>(pos) > owner[li])
            contributed[pos] = 1;
    }

    if (hooks.tracker) {
        hooks.tracker->tileEnd(tile, depth.data(),
                               static_cast<int>(npix), ts);
        if (hooks.auditor)
            hooks.auditor->checkFvpConservative(
                tile, depth.data(), static_cast<int>(npix), ts);
    }

    // Report visible mispredictions: an excluded primitive that reached
    // the final pixels poisons the tile's signature (see DESIGN.md 4.1).
    if (hooks.signature) {
        for (std::size_t pos = 0; pos < order.size(); ++pos) {
            if (order[pos].predicted_occluded && contributed[pos]) {
                hooks.signature->tileMispredicted(tile);
                if (hooks.auditor)
                    hooks.auditor->checkMispredictionPoisoned(tile, ts);
                break;
            }
        }
    }

    // Sampled image-identity audit: the tile's pixels must match a
    // submission-order reference render. On mismatch the reference
    // pixels are shipped (and the tile's EVR/RE state degraded) so a
    // permissive run still produces the correct image.
    if (hooks.auditor && hooks.auditor->identityEnabled() &&
        hooks.auditor->shouldAuditTile(tile)) {
        ++ts.validate_tile_checks;
        std::vector<Rgba8> ref =
            renderTileReference(scene, pb, rect, order);
        if (ref != color) {
            hooks.auditor->reportTileMismatch(tile, ts);
            color = std::move(ref);
            hooks.auditor->degradeTile(tile, ts);
        }
    }

    // Table I casuistry and prediction quality, per (primitive, tile).
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        bool pred_occl = order[pos].predicted_occluded;
        bool act_occl = !contributed[pos];
        int scenario;
        if (!pred_occl && !act_occl)
            scenario = static_cast<int>(Casuistry::VisibleVisible);
        else if (!pred_occl && act_occl)
            scenario = static_cast<int>(Casuistry::VisibleOccluded);
        else if (pred_occl && act_occl)
            scenario = static_cast<int>(Casuistry::OccludedOccluded);
        else
            scenario = static_cast<int>(Casuistry::OccludedVisible);
        ++ts.casuistry[scenario];
        if (pred_occl) {
            if (act_occl)
                ++ts.pred_occluded_correct;
            else
                ++ts.pred_occluded_wrong;
        }
    }

    // Flush the Color Buffer to the framebuffer in main memory, one
    // cache-line-sized row segment at a time.
    for (int y = rect.y0; y < rect.y1; ++y) {
        Addr row_addr = AddressSpace::framebufferAddr(rect.x0, y,
                                                      config_.screen_width);
        log.framebufferWrite(row_addr, static_cast<unsigned>(w) * 4);
    }
    ts.tile_flush_bytes += npix * 4;

    // Until this tile's rows land, fb's rect still holds the previous
    // frame's pixels (tile rects are disjoint, so no other tile job
    // writes them): compare before writing for the "equal tiles"
    // oracle.
    bool equal = has_prev_frame;
    for (int y = rect.y0; y < rect.y1; ++y) {
        const Rgba8 *row = &color[static_cast<std::size_t>(y - rect.y0) * w];
        if (equal && !fb.rowEquals(rect.x0, y, row, w))
            equal = false;
        fb.writeRow(rect.x0, y, row, w);
    }
    if (equal)
        ++ts.tiles_equal_oracle;
}

void
RasterPipeline::renderAndReplayTile(int tile, const Scene &scene,
                                    const ParameterBuffer &pb,
                                    Framebuffer &fb, bool has_prev_frame,
                                    const RasterHooks &hooks,
                                    FrameStats &frame)
{
    CrashTileScope crash_tile(tile);
    // Per-tile span: the hottest category, so it honours the
    // EVRSIM_TRACE tile/N sampling filter (a disabled or sampled-out
    // span is one relaxed load + one branch).
    TraceSpan tile_span(TraceCat::Tile, "tile");
    tile_span.setValue(tile);
    TileMemLog &log = t_scratch.log;
    log.reset(mem_.config());
    FrameStats ts;
    renderTile(tile, scene, pb, fb, has_prev_frame, hooks, ts, log);
    ts.raster_mem_latency += log.replay(mem_);
    ts.raster_cycles = timing_.tileCycles(ts);
    frame.accumulate(ts);
}

Cycles
RasterPipeline::run(const Scene &scene, const ParameterBuffer &pb,
                    const GeometryMemLog &geometry, Framebuffer &fb,
                    bool has_prev_frame, const RasterHooks &hooks,
                    FrameStats &stats)
{
    shader_.bindTextures(&scene.textures);

    int tiles = config_.tileCount();
    EVRSIM_ASSERT(pb.tileCount() == tiles);

    FrameStats frame;
    Cycles geometry_latency = 0;
    if (tile_pool_ == nullptr) {
        // Serial path: the geometry segment heads the stream, then each
        // tile's log replays as soon as it rendered.
        geometry_latency = geometry.replay(mem_);
        for (int tile = 0; tile < tiles; ++tile)
            renderAndReplayTile(tile, scene, pb, fb, has_prev_frame, hooks,
                                frame);
    } else {
        geometry_latency = runStreaming(scene, pb, geometry, fb,
                                        has_prev_frame, hooks, frame);
    }

    // Per-frame conservation: every tile is rendered or skipped by RE,
    // and every depth test kills or passes its fragment.
    EVRSIM_ASSERT(frame.tiles_total ==
                  frame.tiles_rendered + frame.tiles_skipped_re);
    EVRSIM_ASSERT(frame.early_z_kills <= frame.early_z_tests);
    EVRSIM_ASSERT(frame.late_z_kills <= frame.late_z_tests);
    stats.accumulate(frame);
    return geometry_latency;
}

Cycles
RasterPipeline::runStreaming(const Scene &scene, const ParameterBuffer &pb,
                             const GeometryMemLog &geometry, Framebuffer &fb,
                             bool has_prev_frame, const RasterHooks &hooks,
                             FrameStats &frame)
{
    // Tiles render concurrently on the ordered stream, each recording
    // its memory accesses in a TileMemLog of its own. The owner replays
    // the geometry segment first (while the helpers already render),
    // then each tile's log as soon as that tile and every earlier one
    // have rendered, while later tiles are still rendering: the
    // MemorySystem sees the serial renderer's global access stream
    // (same cache contents, hit rates and latencies), and per-tile
    // stats merge in tile order (raster_cycles only after the replayed
    // latencies landed). An unclaimed next tile renders into the owner
    // thread's log and replays at once, as on the serial path. The
    // window is the whole frame; a log lives from its render to its
    // replay and then waits in spare_logs_ for a later tile.
    const int tiles = config_.tileCount();
    if (slots_.size() < static_cast<std::size_t>(tiles))
        slots_.resize(static_cast<std::size_t>(tiles));

    Cycles geometry_latency = 0;
    auto replay_geometry_before = [&](int tile) {
        if (tile == 0)
            geometry_latency = geometry.replay(mem_);
    };

    OrderedStreamSteps steps;
    steps.produce = [&](int tile) {
        TileSlot &slot = slots_[static_cast<std::size_t>(tile)];
        CrashTileScope crash_tile(tile);
        TraceSpan tile_span(TraceCat::Tile, "tile");
        tile_span.setValue(tile);
        {
            std::lock_guard<std::mutex> lock(spare_logs_mu_);
            if (!spare_logs_.empty()) {
                slot.log = std::move(spare_logs_.back());
                spare_logs_.pop_back();
            }
        }
        if (!slot.log)
            slot.log = std::make_unique<TileMemLog>();
        slot.log->reset(mem_.config());
        slot.stats = FrameStats{};
        renderTile(tile, scene, pb, fb, has_prev_frame, hooks, slot.stats,
                   *slot.log);
    };
    steps.consume = [&](int tile) {
        replay_geometry_before(tile);
        TileSlot &slot = slots_[static_cast<std::size_t>(tile)];
        FrameStats &ts = slot.stats;
        ts.raster_mem_latency += slot.log->replay(mem_);
        {
            std::lock_guard<std::mutex> lock(spare_logs_mu_);
            spare_logs_.push_back(std::move(slot.log));
        }
        ts.raster_cycles = timing_.tileCycles(ts);
        frame.accumulate(ts);
    };
    steps.produce_and_consume = [&](int tile) {
        replay_geometry_before(tile);
        renderAndReplayTile(tile, scene, pb, fb, has_prev_frame, hooks,
                            frame);
    };
    runOrderedStream(*tile_pool_, tile_jobs_, tiles, tiles, steps);
    return geometry_latency;
}

} // namespace evrsim
