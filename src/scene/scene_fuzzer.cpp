/**
 * @file
 * SceneFuzzer implementation.
 */
#include "scene/scene_fuzzer.hpp"

#include <limits>

#include "common/rng.hpp"

namespace evrsim {

namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/** Cheap counter-mode stream over the fuzzer's (seed, key) pair. */
struct FuzzRng {
    std::uint64_t state;
    std::uint64_t n = 0;

    std::uint64_t next() { return mix64(state ^ mix64(n++)); }

    /** Uniform draw in [0, bound). @p bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }
};

} // namespace

std::string
SceneFuzzer::corruptScene(Scene &scene, std::uint64_t key)
{
    if (scene.commands.empty())
        return "";

    FuzzRng rng{mix64(seed_ ^ mix64(key))};
    const std::size_t target = static_cast<std::size_t>(
        rng.below(scene.commands.size()));
    DrawCommand &cmd = scene.commands[target];
    const std::string where =
        "command " + std::to_string(target) + ": ";
    const int kind = static_cast<int>(rng.below(kNumCorruptions));

    switch (kind) {
      case 0:
        cmd.mesh = nullptr;
        return where + "mesh pointer nulled";
      case 1: {
        const int r = static_cast<int>(rng.below(4));
        const int c = static_cast<int>(rng.below(4));
        cmd.model.m[r][c] = kNaN;
        return where + "model matrix cell set to NaN";
      }
      case 2:
        cmd.tint.y = kInf;
        return where + "tint component set to Inf";
      case 3:
        cmd.state.texture =
            static_cast<int>(scene.textures.size()) + 7;
        return where + "texture slot pointed out of range";
      case 4:
        scene.clear_depth = kNaN;
        return "clear depth set to NaN";
      case 5: {
        const int r = static_cast<int>(rng.below(4));
        const int c = static_cast<int>(rng.below(4));
        scene.view.m[r][c] = kNaN;
        return "view matrix cell set to NaN";
      }
      case 6:
      case 7: {
        if (!cmd.mesh || cmd.mesh->vertices.empty() ||
            cmd.mesh->indices.empty()) {
            cmd.mesh = nullptr;
            return where + "mesh pointer nulled (clone not possible)";
        }
        // Repoint the command at a private, damaged clone; the shared
        // original may be in use by other configurations of the sweep.
        // The clone keeps buffer_base so memory traffic stays plausible
        // for any primitive that still renders.
        owned_meshes_.push_back(std::make_unique<Mesh>(*cmd.mesh));
        Mesh &clone = *owned_meshes_.back();
        cmd.mesh = &clone;
        if (kind == 6) {
            const std::size_t slot = static_cast<std::size_t>(
                rng.below(clone.indices.size()));
            clone.indices[slot] = static_cast<std::uint32_t>(
                clone.vertices.size() + rng.below(1000));
            return where + "cloned mesh index pushed out of range";
        }
        const std::size_t v = static_cast<std::size_t>(
            rng.below(clone.vertices.size()));
        clone.vertices[v].position.z = kNaN;
        return where + "cloned mesh vertex position set to NaN";
      }
      default:
        break;
    }
    return "";
}

} // namespace evrsim
