/**
 * @file
 * Shader cores: the programmable stages of the pipeline.
 *
 * The simulator ships a fixed set of fragment programs (Table III's
 * workloads are built from flat-shaded, textured and procedural
 * materials). Each program has a functional evaluation (producing the
 * color) and a cost (ALU instructions, texture fetches) used by the
 * timing and energy models. Texture fetches are recorded in the tile's
 * TileMemLog, whose replay drives the fragment processor's texture
 * cache, so shading cost depends on real locality.
 */
#ifndef EVRSIM_GPU_SHADER_HPP
#define EVRSIM_GPU_SHADER_HPP

#include <cmath>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "gpu/gpu_stats.hpp"
#include "gpu/tile_mem_log.hpp"
#include "mem/memory_system.hpp"
#include "scene/draw_command.hpp"
#include "scene/texture.hpp"

namespace evrsim {

/** Result of shading one fragment. */
struct FragmentShadeResult {
    Vec4 color;
    /** Fragment killed by a shader discard (TexturedDiscard only). */
    bool discarded = false;
};

/**
 * Executes vertex and fragment programs and charges their cost.
 */
class ShaderCore
{
  public:
    /** @param mem the hierarchy whose texture caches fetches target */
    explicit ShaderCore(const MemorySystemConfig &mem)
        : num_units_(mem.num_texture_caches)
    {
        EVRSIM_ASSERT((num_units_ & (num_units_ - 1)) == 0);
    }

    /** Bind this frame's texture table (owned by the scene/workload). */
    void
    bindTextures(const std::vector<const Texture *> *textures)
    {
        textures_ = textures;
    }

    /** ALU instructions of the standard transform vertex shader. */
    static constexpr unsigned kVertexShaderInstrs = 20;

    // The per-fragment functions below are inline: they run once per
    // generated fragment (tens of millions of times per sweep) and the
    // build has no LTO to inline them across translation units.

    /** ALU instruction cost of a fragment program. */
    static constexpr unsigned
    fragmentInstrs(FragmentProgram program)
    {
        switch (program) {
          case FragmentProgram::Flat:
            return 4;
          case FragmentProgram::Textured:
            return 8;
          case FragmentProgram::TexturedTint:
            return 12;
          case FragmentProgram::Procedural:
            return 32;
          case FragmentProgram::TexturedDiscard:
            return 10;
        }
        panic("invalid fragment program %d", static_cast<int>(program));
    }

    /** Texture fetches a fragment program performs. */
    static constexpr unsigned
    fragmentTexFetches(FragmentProgram program)
    {
        switch (program) {
          case FragmentProgram::Flat:
          case FragmentProgram::Procedural:
            return 0;
          case FragmentProgram::Textured:
          case FragmentProgram::TexturedTint:
          case FragmentProgram::TexturedDiscard:
            return 1;
        }
        panic("invalid fragment program %d", static_cast<int>(program));
    }

    /**
     * Color math of fragment program @p P — the one definition every
     * shading path (shadeFragment, shadeFunctional and the raster
     * pipeline's span loops) evaluates.
     *
     * @param color interpolated vertex color
     * @param uv    interpolated texture coordinates
     * @param t     the fetched texel (ignored by untextured programs)
     * @return false when the program discards the fragment
     */
    template <FragmentProgram P>
    static bool
    programColor(const Vec4 &color, const Vec2 &uv, const Vec4 &t,
                 Vec4 &out)
    {
        if constexpr (P == FragmentProgram::Flat) {
            out = color;
        } else if constexpr (P == FragmentProgram::Textured) {
            out = t;
            // Carry the vertex alpha so translucent textured sprites
            // work.
            out.w *= color.w;
        } else if constexpr (P == FragmentProgram::TexturedTint) {
            out = {t.x * color.x, t.y * color.y, t.z * color.z,
                   t.w * color.w};
        } else if constexpr (P == FragmentProgram::Procedural) {
            // ALU-heavy deterministic pattern: two octaves of sine bands
            // modulating the interpolated color.
            float a = std::sin(uv.x * 37.0f) * std::sin(uv.y * 29.0f);
            float b = std::sin(uv.x * 11.0f + uv.y * 7.0f);
            float k = 0.5f + 0.25f * a + 0.25f * b;
            out = {color.x * k, color.y * k, color.z * k, color.w};
        } else {
            static_assert(P == FragmentProgram::TexturedDiscard);
            if (t.w * color.w < 0.5f)
                return false;
            out = {t.x * color.x, t.y * color.y, t.z * color.z, 1.0f};
        }
        return true;
    }

    /**
     * Call @p f with std::integral_constant<FragmentProgram, P>{} for
     * the runtime program @p program (templated shading paths pick
     * their specialization once per primitive through this).
     */
    template <typename F>
    static decltype(auto)
    withProgram(FragmentProgram program, F &&f)
    {
        using FP = FragmentProgram;
        switch (program) {
          case FP::Flat:
            return f(std::integral_constant<FP, FP::Flat>{});
          case FP::Textured:
            return f(std::integral_constant<FP, FP::Textured>{});
          case FP::TexturedTint:
            return f(std::integral_constant<FP, FP::TexturedTint>{});
          case FP::Procedural:
            return f(std::integral_constant<FP, FP::Procedural>{});
          case FP::TexturedDiscard:
            return f(std::integral_constant<FP, FP::TexturedDiscard>{});
        }
        panic("invalid fragment program %d", static_cast<int>(program));
    }

    /**
     * Shade one fragment.
     *
     * @param state  render state of the owning primitive
     * @param color  perspective-interpolated vertex color
     * @param uv     perspective-interpolated texture coordinates
     * @param px,py  screen pixel (selects the fragment processor / texture
     *               cache and thus the locality the cache observes)
     * @param stats  instruction/texture counters are charged here
     * @param log    the texture fetch is recorded here; its latency is
     *               charged when the tile's log is replayed
     */
    FragmentShadeResult
    shadeFragment(const RenderState &state, const Vec4 &color,
                  const Vec2 &uv, int px, int py, FrameStats &stats,
                  TileMemLog &log)
    {
        stats.fragment_shader_instrs += fragmentInstrs(state.program);
        Vec4 t;
        if (fragmentTexFetches(state.program) > 0) {
            const Texture *tex = boundTexture(state.texture);
            // Wrap the UV once and reuse the texel coordinates for both
            // the simulated fetch address and the color lookup.
            int tx, ty;
            tex->toTexel(uv.x, uv.y, tx, ty);
            log.textureFetch(unitFor(px, py), tex->texelAddrAt(tx, ty), 4);
            ++stats.texture_fetches;
            t = tex->texelAt(tx, ty);
        }
        FragmentShadeResult out;
        out.discarded = !withProgram(state.program, [&](auto p) {
            return programColor<decltype(p)::value>(color, uv, t,
                                                    out.color);
        });
        if (out.discarded)
            ++stats.fragments_discarded_shader;
        return out;
    }

    /**
     * Pure color math of shadeFragment: no cost charged, no simulated
     * memory touched. The invariant auditor's reference rasterizer uses
     * this so an audited run's caches and counters stay bit-identical to
     * an unaudited one.
     */
    static FragmentShadeResult
    shadeFunctional(const RenderState &state, const Vec4 &color,
                    const Vec2 &uv,
                    const std::vector<const Texture *> &textures)
    {
        Vec4 t;
        if (fragmentTexFetches(state.program) > 0) {
            EVRSIM_ASSERT(state.texture >= 0 &&
                          state.texture <
                              static_cast<int>(textures.size()));
            t = textures[static_cast<std::size_t>(state.texture)]->sample(
                uv.x, uv.y);
        }
        FragmentShadeResult out;
        out.discarded = !withProgram(state.program, [&](auto p) {
            return programColor<decltype(p)::value>(color, uv, t,
                                                    out.color);
        });
        return out;
    }

    /** The bound texture in slot @p slot (asserted valid). */
    const Texture *
    boundTexture(int slot) const
    {
        EVRSIM_ASSERT(textures_ != nullptr);
        EVRSIM_ASSERT(slot >= 0 &&
                      slot < static_cast<int>(textures_->size()));
        return (*textures_)[static_cast<std::size_t>(slot)];
    }

    /** Fragment processor (and texture cache) a pixel's quad maps to. */
    unsigned
    unitFor(int px, int py) const
    {
        return (static_cast<unsigned>(px >> 1) +
                static_cast<unsigned>(py >> 1)) &
               (num_units_ - 1);
    }

  private:
    const std::vector<const Texture *> *textures_ = nullptr;
    unsigned num_units_;
};

} // namespace evrsim

#endif // EVRSIM_GPU_SHADER_HPP
