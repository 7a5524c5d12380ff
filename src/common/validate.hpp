/**
 * @file
 * Validation-and-degradation policy for the simulation core.
 *
 * EVRSIM_VALIDATE selects how much the simulator distrusts its inputs
 * and itself:
 *
 *   off         (default) no ingestion checks, no invariant auditing —
 *               the production fast path, zero overhead.
 *   permissive  malformed scene input is sanitized (offending draw
 *               commands dropped), pipeline invariants are audited, and
 *               a violation never aborts: the offending tile is repaired
 *               from the reference raster path, EVR/RE is disabled for
 *               it, and a degradation counter is recorded in the frame's
 *               stats (surfacing in RunResult JSON and the sweep fault
 *               report).
 *   strict      the same checks, but any violation converts the frame
 *               (and therefore the run) into a failing Status — the mode
 *               the `invariants` ctest label runs under.
 *
 * An optional `:rate` suffix (EVRSIM_VALIDATE=permissive:0.25) tunes
 * the expensive end-of-tile image-identity check (default 0.0625): the
 * fraction of tiles (deterministically sampled per frame)
 * re-rendered through the reference raster path and compared
 * bit-for-bit. 1 = every tile, 0 = identity checking off; the cheap
 * structural checks (binning containment, Algorithm 1 list composition,
 * FVP conservativeness, scenario-D poisoning) always run when validation
 * is enabled.
 */
#ifndef EVRSIM_COMMON_VALIDATE_HPP
#define EVRSIM_COMMON_VALIDATE_HPP

#include <cstdint>
#include <string>

#include "common/status.hpp"

namespace evrsim {

/** How much checking the simulation core performs. */
enum class ValidateMode {
    Off = 0,    ///< no checks (production path)
    Permissive, ///< check, repair and count — never abort
    Strict,     ///< check and fail the run on the first violation
};

/** Stable name used in env values and cache tags ("permissive"). */
const char *validateModeName(ValidateMode mode);

/** Resolved validation policy for one simulation. */
struct ValidationConfig {
    ValidateMode mode = ValidateMode::Off;

    /**
     * Fraction of rendered tiles whose final pixels are compared against
     * the reference raster path each frame, in [0, 1]. Sampling is a
     * pure function of (seed, frame, tile), so runs are reproducible.
     */
    double tile_sample_rate = 0.0625;

    /** Stream seed for the tile-sampling decisions. */
    std::uint64_t seed = 0;

    bool enabled() const { return mode != ValidateMode::Off; }
    bool strict() const { return mode == ValidateMode::Strict; }

    /**
     * Cache-key fragment distinguishing validated runs from production
     * runs (auditing adds counters to the persisted totals). Empty when
     * validation is off, so existing cache entries keep their names.
     */
    std::string cacheTag() const;
};

/**
 * Resolve the validation policy from EVRSIM_VALIDATE=mode[:rate]. Unset
 * means off; a malformed value is InvalidArgument naming the variable,
 * never silently ignored, and so is the retired EVRSIM_VALIDATE_SAMPLE.
 */
Result<ValidationConfig> validationFromEnvChecked();

/** validationFromEnvChecked() that exits(1) on invalid knobs. */
ValidationConfig validationFromEnv();

} // namespace evrsim

#endif // EVRSIM_COMMON_VALIDATE_HPP
