/**
 * @file
 * Geometry Pipeline implementation.
 */
#include "gpu/geometry_pipeline.hpp"

#include <algorithm>
#include <cmath>

#include "common/crc32.hpp"
#include "common/log.hpp"
#include "common/ordered_stream.hpp"
#include "gpu/rasterizer.hpp"
#include "gpu/shader.hpp"

namespace evrsim {

namespace {

/** Post-transform vertex cache: shaded vertices reused across triangles. */
constexpr unsigned kPostTransformEntries = 32;

/** Triangles per chunk: large enough that a chunk's hand-off costs
 *  little next to its work, small enough to spread a 3D frame's few
 *  thousand triangles over the pool. */
constexpr std::uint32_t kChunkTriangles = 128;

/** Chunks produced ahead of the commit, per thread of the stream. */
constexpr int kChunksInFlightPerJob = 4;

/** A draw command the geometry pipeline must skip. */
bool
unusable(const DrawCommand &cmd)
{
    return cmd.mesh == nullptr || cmd.mesh->buffer_base == 0;
}

} // namespace

void
GeometryPipeline::noteOnce(std::vector<Warning> &warnings, const Warning &w)
{
    for (const Warning &met : warnings)
        if (met.bad_texture == w.bad_texture)
            return;
    warnings.push_back(w);
}

GeometryPipeline::GeometryPipeline(const GpuConfig &config)
    : config_(config)
{
}

void
GeometryPipeline::setExecution(JobPool *pool, int jobs)
{
    pool_ = jobs > 1 ? pool : nullptr;
    jobs_ = pool_ != nullptr ? jobs : 1;
}

GeometryPipeline::ClipVertex
GeometryPipeline::shade(const Vertex &v, const Mat4 &mvp, const Vec4 &tint)
{
    ClipVertex out;
    out.clip = mvp.transformPoint(v.position);
    out.color = {v.color.x * tint.x, v.color.y * tint.y, v.color.z * tint.z,
                 v.color.w * tint.w};
    out.uv = v.uv;
    return out;
}

ShadedVertex
GeometryPipeline::toScreen(const ClipVertex &v) const
{
    float inv_w = 1.0f / v.clip.w;
    float ndc_x = v.clip.x * inv_w;
    float ndc_y = v.clip.y * inv_w;
    float ndc_z = v.clip.z * inv_w;

    ShadedVertex out;
    out.screen = {(ndc_x + 1.0f) * 0.5f * config_.screen_width,
                  (1.0f - ndc_y) * 0.5f * config_.screen_height};
    out.depth = clampf((ndc_z + 1.0f) * 0.5f, 0.0f, 1.0f);
    out.inv_w = inv_w;
    out.color = v.color;
    out.uv = v.uv;
    return out;
}

int
GeometryPipeline::clipNear(const ClipVertex tri[3], ClipVertex out[2][3])
{
    // Signed distance to the near plane z = -w; >= 0 means inside.
    float d[3];
    int inside_count = 0;
    for (int i = 0; i < 3; ++i) {
        d[i] = tri[i].clip.z + tri[i].clip.w;
        if (d[i] >= 0.0f)
            ++inside_count;
    }

    if (inside_count == 3) {
        for (int i = 0; i < 3; ++i)
            out[0][i] = tri[i];
        return 1;
    }
    if (inside_count == 0)
        return 0;

    auto clip_lerp = [](const ClipVertex &a, const ClipVertex &b, float t) {
        ClipVertex r;
        r.clip = a.clip + (b.clip - a.clip) * t;
        r.color = a.color + (b.color - a.color) * t;
        r.uv = a.uv + (b.uv - a.uv) * t;
        return r;
    };

    // Walk the polygon, emitting inside vertices and edge crossings.
    ClipVertex poly[4];
    int n = 0;
    for (int i = 0; i < 3; ++i) {
        int j = (i + 1) % 3;
        bool in_i = d[i] >= 0.0f;
        bool in_j = d[j] >= 0.0f;
        if (in_i)
            poly[n++] = tri[i];
        if (in_i != in_j) {
            float t = d[i] / (d[i] - d[j]);
            poly[n++] = clip_lerp(tri[i], tri[j], t);
        }
    }

    EVRSIM_ASSERT(n == 3 || n == 4);
    for (int i = 0; i < 3; ++i)
        out[0][i] = poly[i];
    if (n == 4) {
        out[1][0] = poly[0];
        out[1][1] = poly[2];
        out[1][2] = poly[3];
        return 2;
    }
    return 1;
}

void
GeometryPipeline::stageTriangle(const ClipVertex tri[3],
                                const DrawCommand &cmd, const Scene &scene,
                                Chunk &out) const
{
    FrameStats &counts = out.counts;
    // Guard against degenerate w (can only happen with broken projections).
    for (int i = 0; i < 3; ++i) {
        if (tri[i].clip.w <= 1e-6f) {
            ++counts.prims_clipped_away;
            return;
        }
    }

    if (cmd.state.cull_backface) {
        // Orientation in NDC (y up): front faces are counter-clockwise.
        Vec2 a = {tri[0].clip.x / tri[0].clip.w, tri[0].clip.y / tri[0].clip.w};
        Vec2 b = {tri[1].clip.x / tri[1].clip.w, tri[1].clip.y / tri[1].clip.w};
        Vec2 c = {tri[2].clip.x / tri[2].clip.w, tri[2].clip.y / tri[2].clip.w};
        float area = Rasterizer::signedArea2(a, b, c);
        if (area <= 0.0f) {
            ++counts.prims_backface_culled;
            return;
        }
    }

    StagedPrim &staged = out.prims.emplace_back();
    ShadedPrimitive &prim = staged.prim;
    for (int i = 0; i < 3; ++i)
        prim.v[i] = toScreen(tri[i]);
    prim.state = cmd.state;
    prim.cmd_id = cmd.id;
    prim.updateZNear();

    // Viewport rejection: completely off-screen primitives are dropped.
    BBox2 bb = BBox2::ofTriangle(prim.v[0].screen, prim.v[1].screen,
                                 prim.v[2].screen);
    if (bb.max_x <= 0.0f || bb.max_y <= 0.0f ||
        bb.min_x >= config_.screen_width || bb.min_y >= config_.screen_height) {
        ++counts.prims_clipped_away;
        out.prims.pop_back();
        return;
    }

    // A texture slot that does not resolve to a bound texture would be
    // dereferenced here and again at shading: reject the primitive (the
    // raster pipeline must never see unusable render state).
    const bool samples =
        ShaderCore::fragmentTexFetches(prim.state.program) > 0;
    if ((samples && prim.state.texture < 0) ||
        (prim.state.texture >= 0 &&
         (prim.state.texture >= static_cast<int>(scene.textures.size()) ||
          scene.textures[prim.state.texture] == nullptr))) {
        ++counts.prims_rejected;
        noteOnce(out.warnings, {true, cmd.id, prim.state.texture, false});
        out.prims.pop_back();
        return;
    }

    // Rendering Elimination signature: CRC32 of the primitive's
    // post-transform vertex attributes plus the state that affects its
    // colors. Computed once per primitive, combined per overlapped tile.
    Crc32 crc;
    static_assert(sizeof(ShadedVertex) == 40, "no padding expected");
    crc.update(prim.v, sizeof(prim.v));
    crc.updateValue(prim.state.depth_write);
    crc.updateValue(prim.state.depth_test);
    crc.updateValue(prim.state.blend);
    crc.updateValue(prim.state.program);
    if (prim.state.texture >= 0)
        crc.updateValue(scene.textures[prim.state.texture]->contentKey());
    prim.attr_crc = crc.value();
    prim.attr_bytes = static_cast<std::uint32_t>(crc.length());

    // The tiles the Polygon List Builder sorts it into.
    const int ts = config_.tile_size;
    int tx0 = clampi(static_cast<int>(std::floor(bb.min_x / ts)), 0,
                     config_.tilesX() - 1);
    int ty0 = clampi(static_cast<int>(std::floor(bb.min_y / ts)), 0,
                     config_.tilesY() - 1);
    int tx1 = clampi(static_cast<int>(std::floor(bb.max_x / ts)), 0,
                     config_.tilesX() - 1);
    int ty1 = clampi(static_cast<int>(std::floor(bb.max_y / ts)), 0,
                     config_.tilesY() - 1);
    for (int ty = ty0; ty <= ty1; ++ty) {
        for (int tx = tx0; tx <= tx1; ++tx) {
            RectI tile_rect = {tx * ts, ty * ts, (tx + 1) * ts,
                               (ty + 1) * ts};
            if (Rasterizer::triangleOverlapsRect(prim, tile_rect))
                out.tiles.push_back(ty * config_.tilesX() + tx);
        }
    }
    staged.tiles_end = static_cast<std::uint32_t>(out.tiles.size());
    staged.fetches_end = static_cast<std::uint32_t>(out.fetches.size());
}

void
GeometryPipeline::planChunks(const Scene &scene)
{
    pieces_.clear();
    chunk_ends_.clear();
    std::uint32_t filled = 0; // triangles in the open chunk
    for (std::size_t c = 0; c < scene.commands.size(); ++c) {
        const DrawCommand &cmd = scene.commands[c];
        const auto tris = unusable(cmd) ? std::uint32_t{0}
                                        : static_cast<std::uint32_t>(
                                              cmd.mesh->triangleCount());
        std::uint32_t t = 0;
        do {
            const std::uint32_t take =
                std::min(tris - t, kChunkTriangles - filled);
            pieces_.push_back({static_cast<std::uint32_t>(c), t, t + take});
            t += take;
            filled += take;
            if (filled == kChunkTriangles) {
                chunk_ends_.push_back(
                    static_cast<std::uint32_t>(pieces_.size()));
                filled = 0;
            }
        } while (t < tris);
    }
    const std::uint32_t closed = chunk_ends_.empty() ? 0 : chunk_ends_.back();
    if (pieces_.size() > closed)
        chunk_ends_.push_back(static_cast<std::uint32_t>(pieces_.size()));
}

void
GeometryPipeline::produceChunk(int index, const FrameInputs &in,
                               Chunk &out) const
{
    out.counts = FrameStats{};
    out.fetches.clear();
    out.prims.clear();
    out.tiles.clear();
    out.warnings.clear();

    const Scene &scene = *in.scene;
    const std::uint32_t begin =
        index == 0 ? 0 : chunk_ends_[static_cast<std::size_t>(index) - 1];
    const std::uint32_t end = chunk_ends_[static_cast<std::size_t>(index)];
    for (std::uint32_t p = begin; p < end; ++p) {
        const Piece &piece = pieces_[p];
        const DrawCommand &cmd = scene.commands[piece.cmd];
        if (piece.tri_begin == 0) {
            ++out.counts.draw_commands;
            // A null or never-uploaded mesh is an application error, not
            // a simulator bug: skip the command (counted, warned once)
            // rather than killing the whole sweep process.
            if (unusable(cmd)) {
                ++out.counts.commands_rejected;
                noteOnce(out.warnings,
                         {false, cmd.id, -1, cmd.mesh == nullptr});
                continue;
            }
        }

        const Mat4 mvp =
            (cmd.screen_space ? in.pixel_proj : in.view_proj) * cmd.model;
        const Mesh &mesh = *cmd.mesh;

        // The post-transform cache is flushed between draw commands
        // (different commands may use different uniforms). A piece that
        // starts inside a command rebuilds the cache's tags from the
        // indices before it: each slot holds the last index that mapped
        // there. The hit/miss sequence is thus a pure function of the
        // index stream, and a hit's vertex, shaded again here, equals
        // the cached one.
        struct PtEntry {
            std::uint32_t index = 0;
            bool valid = false;  ///< holds a vertex index
            bool shaded = false; ///< v is computed (tags may be rebuilt)
            ClipVertex v;
        };
        PtEntry pt_cache[kPostTransformEntries];
        unsigned tagged = 0;
        for (std::size_t i = std::size_t{piece.tri_begin} * 3;
             i > 0 && tagged < kPostTransformEntries; --i) {
            const std::uint32_t idx = mesh.indices[i - 1];
            PtEntry &slot = pt_cache[idx % kPostTransformEntries];
            if (!slot.valid) {
                slot.index = idx;
                slot.valid = true;
                ++tagged;
            }
        }

        for (std::uint32_t t = piece.tri_begin; t < piece.tri_end; ++t) {
            ClipVertex tri[3];
            for (int k = 0; k < 3; ++k) {
                std::uint32_t idx = mesh.indices[std::size_t{t} * 3 + k];
                PtEntry &slot = pt_cache[idx % kPostTransformEntries];
                if (!slot.valid || slot.index != idx) {
                    out.fetches.push_back(mesh.vertexAddr(idx));
                    ++out.counts.vertices_fetched;
                    ++out.counts.vertices_shaded;
                    out.counts.vertex_shader_instrs +=
                        ShaderCore::kVertexShaderInstrs;
                    slot.index = idx;
                    slot.valid = true;
                    slot.shaded = false;
                }
                if (!slot.shaded) {
                    slot.v = shade(mesh.vertices[idx], mvp, cmd.tint);
                    slot.shaded = true;
                }
                tri[k] = slot.v;
            }

            ++out.counts.prims_submitted;

            ClipVertex clipped[2][3];
            int n = clipNear(tri, clipped);
            if (n == 0) {
                ++out.counts.prims_clipped_away;
                continue;
            }
            if (n == 2)
                ++out.counts.prims_clip_split;
            for (int i = 0; i < n; ++i)
                stageTriangle(clipped[i], cmd, scene, out);
        }
    }
}

void
GeometryPipeline::commitChunk(const Chunk &chunk, ParameterBuffer &pb,
                              const GeometryHooks &hooks, FrameStats &stats)
{
    std::size_t fetch = 0;
    auto fetch_until = [&](std::size_t end) {
        for (; fetch < end; ++fetch)
            mem_log_.vertexFetch(chunk.fetches[fetch], kVertexBytes);
    };

    std::uint32_t tiles_begin = 0;
    for (const StagedPrim &staged : chunk.prims) {
        fetch_until(staged.fetches_end);
        std::uint32_t index = pb.addPrimitive(staged.prim);
        mem_log_.parameterWrite(pb.prim(index).pb_addr,
                                ShadedPrimitive::kAttrBytes);
        stats.param_attr_bytes += ShadedPrimitive::kAttrBytes;
        ++stats.prims_binned;
        if (hooks.signature)
            stats.signature_bytes_hashed += staged.prim.attr_bytes;
        binPrimitive(index, chunk.tiles.data() + tiles_begin,
                     chunk.tiles.data() + staged.tiles_end, pb, hooks, stats);
        tiles_begin = staged.tiles_end;
    }
    fetch_until(chunk.fetches.size());
    stats.accumulate(chunk.counts);

    for (const Warning &w : chunk.warnings) {
        if (w.bad_texture && !warned_bad_texture_) {
            warned_bad_texture_ = true;
            warn("command %u references texture slot %d with no bound "
                 "texture; dropping its primitives",
                 w.cmd_id, w.texture);
        } else if (!w.bad_texture && !warned_bad_command_) {
            warned_bad_command_ = true;
            warn("command %u has a %s mesh; skipping it (and any "
                 "later offender, silently)",
                 w.cmd_id, w.null_mesh ? "null" : "never-uploaded");
        }
    }
}

void
GeometryPipeline::binPrimitive(std::uint32_t prim_index, const int *tiles,
                               const int *tiles_end, ParameterBuffer &pb,
                               const GeometryHooks &hooks, FrameStats &stats)
{
    const ShadedPrimitive &prim = pb.prim(prim_index);
    unsigned entry_bytes = DisplayListEntry::kBaseBytes;
    if (hooks.store_layers)
        entry_bytes += DisplayListEntry::kLayerBytes;
    for (; tiles != tiles_end; ++tiles) {
        const int tile = *tiles;
        ++stats.bin_tile_pairs;

        BinDecision d;
        if (hooks.scheduler)
            d = hooks.scheduler->onBin(prim, tile, stats);

        if (d.move_second_to_first && pb.moveSecondToFirst(tile))
            ++stats.second_list_flushes;

        DisplayListEntry entry;
        entry.prim = prim_index;
        entry.layer = d.layer;
        entry.predicted_occluded = d.predicted_occluded;

        Addr addr = pb.append(tile, entry, d.to_second_list, entry_bytes);
        mem_log_.parameterWrite(addr, entry_bytes);
        stats.param_list_bytes += DisplayListEntry::kBaseBytes;
        if (hooks.store_layers)
            stats.layer_param_bytes += DisplayListEntry::kLayerBytes;
        if (d.to_second_list)
            ++stats.second_list_entries;

        if (hooks.signature) {
            bool exclude = hooks.filter_signature && d.predicted_occluded;
            hooks.signature->addPrimitive(tile, prim, exclude, stats);
        }
    }
}

void
GeometryPipeline::run(const Scene &scene, ParameterBuffer &pb,
                      const GeometryHooks &hooks, FrameStats &stats)
{
    if (hooks.scheduler)
        hooks.scheduler->frameStart();
    if (hooks.signature)
        hooks.signature->frameStart();

    FrameInputs in;
    in.scene = &scene;
    in.view_proj = scene.viewProj();
    // Overlay projection for screen-space commands (HUDs): maps pixel
    // coordinates to clip space with depth passed through (see
    // setCamera2D for the same construction).
    in.pixel_proj = Mat4::ortho(0.0f,
                                static_cast<float>(config_.screen_width),
                                static_cast<float>(config_.screen_height),
                                0.0f, -1.0f, 1.0f);
    in.pixel_proj.m[2][2] = 2.0f;
    in.pixel_proj.m[3][2] = -1.0f;

    mem_log_.reset(config_.mem);
    planChunks(scene);
    const int chunks = static_cast<int>(chunk_ends_.size());
    const int window = pool_ != nullptr ? kChunksInFlightPerJob * jobs_ : 1;
    if (slots_.size() < static_cast<std::size_t>(window))
        slots_.resize(static_cast<std::size_t>(window));
    auto slot = [&](int chunk) -> Chunk & {
        return slots_[static_cast<std::size_t>(chunk % window)];
    };

    OrderedStreamSteps steps;
    steps.produce = [&](int chunk) { produceChunk(chunk, in, slot(chunk)); };
    steps.consume = [&](int chunk) {
        commitChunk(slot(chunk), pb, hooks, stats);
    };
    steps.produce_and_consume = [&](int chunk) {
        steps.produce(chunk);
        steps.consume(chunk);
    };
    if (pool_ != nullptr) {
        runOrderedStream(*pool_, jobs_, chunks, window, steps);
    } else {
        for (int chunk = 0; chunk < chunks; ++chunk)
            steps.produce_and_consume(chunk);
    }
}

} // namespace evrsim
