/**
 * @file
 * The Geometry Pipeline: vertex fetch and shading, primitive assembly
 * (near-plane clipping, culling, viewport transform) and the Polygon List
 * Builder, which bins primitives into per-tile Display Lists in the
 * Parameter Buffer.
 *
 * EVR and Rendering Elimination attach here through the hook interfaces:
 * the scheduler is consulted per (primitive, tile) pair — that is where
 * layers are assigned, visibility is predicted and Algorithm 1 reorders —
 * and the signature updater folds primitives into per-tile CRCs.
 */
#ifndef EVRSIM_GPU_GEOMETRY_PIPELINE_HPP
#define EVRSIM_GPU_GEOMETRY_PIPELINE_HPP

#include <vector>

#include "common/job_pool.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/parameter_buffer.hpp"
#include "gpu/pipeline_hooks.hpp"
#include "gpu/tile_mem_log.hpp"
#include "scene/scene.hpp"

namespace evrsim {

/** Optional attachments for one frame's geometry pass. */
struct GeometryHooks {
    PrimitiveScheduler *scheduler = nullptr; ///< EVR layer/predict/reorder
    SignatureUpdater *signature = nullptr;   ///< Rendering Elimination
    /** Store layer identifiers in the Parameter Buffer (EVR enabled). */
    bool store_layers = false;
    /** Exclude predicted-occluded primitives from tile signatures. */
    bool filter_signature = false;
};

/**
 * Runs the geometry half of the frame in two stages (DESIGN.md section
 * 12). The frame's triangles are cut into chunks. A pure stage turns a
 * chunk into its binned primitives: vertex shading, near clipping,
 * culling, viewport and texture checks, the attribute CRC and each
 * primitive's overlapped tiles. It touches no simulator state, so
 * chunks run concurrently on the tile pool. An ordered commit stage
 * then logs each chunk's vertex fetches and Parameter Buffer writes,
 * appends its display-list entries and runs the EVR and RE hooks,
 * chunk by chunk in submission order. Without a pool the same two
 * stages run one chunk at a time, so every result is byte-identical
 * either way.
 *
 * The pipeline never touches the memory hierarchy: the commit records
 * its accesses in the frame's geometry log (memLog()), which
 * RasterPipeline::run replays at the head of the frame's access
 * stream. FrameStats::geom_mem_latency is that replay's latency.
 */
class GeometryPipeline
{
  public:
    explicit GeometryPipeline(const GpuConfig &config);

    /**
     * Process every draw command of @p scene into @p pb, and log the
     * frame's geometry memory accesses into memLog().
     * @p pb must already be beginFrame()'d for this frame.
     */
    void run(const Scene &scene, ParameterBuffer &pb,
             const GeometryHooks &hooks, FrameStats &stats);

    /** The last run()'s vertex fetches and Parameter Buffer writes, in
     *  commit order, not yet issued to any memory hierarchy. */
    const GeometryMemLog &memLog() const { return mem_log_; }

    /**
     * Run the pure stage on @p pool (EVRSIM_TILE_JOBS), @p jobs threads
     * wide, the committing owner included. Null or @p jobs <= 1 runs
     * it inline.
     */
    void setExecution(JobPool *pool, int jobs);

  private:
    /** Vertex after the vertex shader, before the perspective divide. */
    struct ClipVertex {
        Vec4 clip;
        Vec4 color;
        Vec2 uv;
    };

    /** Triangles [tri_begin, tri_end) of command @p cmd; a piece with
     *  tri_begin == 0 starts the command. */
    struct Piece {
        std::uint32_t cmd;
        std::uint32_t tri_begin;
        std::uint32_t tri_end;
    };

    /** A primitive the pure stage binned. */
    struct StagedPrim {
        ShadedPrimitive prim;
        /** End of its overlapped tiles in Chunk::tiles (they start at
         *  the previous primitive's end). */
        std::uint32_t tiles_end;
        /** Vertex fetches the serial pipeline issues before it. */
        std::uint32_t fetches_end;
    };

    /** A once-per-pipeline warning, as the pure stage first met it. */
    struct Warning {
        bool bad_texture; ///< else a null or never-uploaded mesh
        std::uint32_t cmd_id;
        int texture;      ///< the unbound slot (bad_texture)
        bool null_mesh;   ///< the mesh is null (!bad_texture)
    };

    /** The pure stage's output for one chunk: bounded by the chunk's
     *  triangles, and reused across chunks and frames. */
    struct Chunk {
        /** Counters whose sum does not depend on order. */
        FrameStats counts;
        /** Vertex addresses of post-transform cache misses, in order. */
        std::vector<Addr> fetches;
        std::vector<StagedPrim> prims;
        std::vector<int> tiles;
        /** At most one of each kind, in the order met. */
        std::vector<Warning> warnings;
    };

    /** Record @p w unless @p warnings holds one of its kind. */
    static void noteOnce(std::vector<Warning> &warnings, const Warning &w);

    /** Per-frame inputs of the pure stage. */
    struct FrameInputs {
        const Scene *scene;
        Mat4 view_proj;
        Mat4 pixel_proj;
    };

    /** Shade one vertex (no fetch: that is the commit's). */
    static ClipVertex shade(const Vertex &v, const Mat4 &mvp,
                            const Vec4 &tint);

    /** Perspective divide + viewport transform. */
    ShadedVertex toScreen(const ClipVertex &v) const;

    /**
     * Clip a triangle against the near plane (clip.z >= -clip.w).
     * Appends 0..2 triangles to @p out.
     */
    static int clipNear(const ClipVertex tri[3],
                        ClipVertex out[2][3]);

    /** Cut the frame's triangles into pieces and chunks of them. */
    void planChunks(const Scene &scene);

    /** Pure stage: chunk @p index of the frame into @p out. */
    void produceChunk(int index, const FrameInputs &in, Chunk &out) const;

    /** Assemble, cull and check one triangle; stage it with its tiles. */
    void stageTriangle(const ClipVertex tri[3], const DrawCommand &cmd,
                       const Scene &scene, Chunk &out) const;

    /** Ordered stage: commit one produced chunk (its memory accesses
     *  into mem_log_). */
    void commitChunk(const Chunk &chunk, ParameterBuffer &pb,
                     const GeometryHooks &hooks, FrameStats &stats);

    /** Polygon List Builder: sort one primitive into its tiles. */
    void binPrimitive(std::uint32_t prim_index, const int *tiles,
                      const int *tiles_end, ParameterBuffer &pb,
                      const GeometryHooks &hooks, FrameStats &stats);

    const GpuConfig &config_;
    /** This frame's geometry segment; reset per frame, keeping its
     *  buffer, so it is sized by the previous frame. */
    GeometryMemLog mem_log_;
    JobPool *pool_ = nullptr;
    int jobs_ = 1;
    /** This frame's pieces, and each chunk's end in them. */
    std::vector<Piece> pieces_;
    std::vector<std::uint32_t> chunk_ends_;
    /** Chunk i is produced into slots_[i % slots_.size()]. */
    std::vector<Chunk> slots_;
    /** One warning per reject class per pipeline, not per occurrence. */
    bool warned_bad_command_ = false;
    bool warned_bad_texture_ = false;
};

} // namespace evrsim

#endif // EVRSIM_GPU_GEOMETRY_PIPELINE_HPP
