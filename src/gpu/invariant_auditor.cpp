/**
 * @file
 * InvariantAuditor implementation.
 */
#include "gpu/invariant_auditor.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "gpu/rasterizer.hpp"

namespace evrsim {

InvariantAuditor::InvariantAuditor(const ValidationConfig &config,
                                   const GpuConfig &gpu)
    : config_(config), gpu_(gpu)
{
}

void
InvariantAuditor::frameStart(std::uint64_t frame)
{
    frame_ = frame;
    std::lock_guard<std::mutex> lock(mu_);
    pending_.clear();
    next_seq_ = 0;
    frame_violation_count_ = 0;
}

bool
InvariantAuditor::shouldAuditTile(int tile) const
{
    if (config_.tile_sample_rate <= 0.0)
        return false;
    if (config_.tile_sample_rate >= 1.0)
        return true;
    std::uint64_t h = mix64(config_.seed ^ mix64(frame_) ^
                            mix64(static_cast<std::uint64_t>(tile) +
                                  0x7461756469740ull));
    double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return u < config_.tile_sample_rate;
}

RectI
InvariantAuditor::tileRect(int tile) const
{
    int ts = gpu_.tile_size;
    int tx = tile % gpu_.tilesX();
    int ty = tile / gpu_.tilesX();
    RectI rect = {tx * ts, ty * ts, (tx + 1) * ts, (ty + 1) * ts};
    return rect.intersect({0, 0, gpu_.screen_width, gpu_.screen_height});
}

void
InvariantAuditor::checkBinning(const ParameterBuffer &pb, FrameStats &stats)
{
    const int tiles = pb.tileCount();
    for (int tile = 0; tile < tiles; ++tile) {
        const RectI rect = tileRect(tile);

        for (const DisplayListEntry &e : pb.firstList(tile)) {
            const ShadedPrimitive &prim = pb.prim(e.prim);
            if (!Rasterizer::triangleOverlapsRect(prim, rect))
                record(Phase::Binning, tile,
                       "binning: prim " + std::to_string(e.prim) +
                           " listed in tile " + std::to_string(tile) +
                           " it does not overlap",
                       stats);
        }
        for (const DisplayListEntry &e : pb.secondList(tile)) {
            const ShadedPrimitive &prim = pb.prim(e.prim);
            if (!Rasterizer::triangleOverlapsRect(prim, rect))
                record(Phase::Binning, tile,
                       "binning: prim " + std::to_string(e.prim) +
                           " listed in tile " + std::to_string(tile) +
                           " it does not overlap",
                       stats);
            // Algorithm 1 defers only predicted-occluded opaque WOZ
            // primitives; anything else in the Second List would change
            // rendering semantics, not just order.
            if (!e.predicted_occluded || !prim.state.depth_write ||
                prim.state.blend != BlendMode::Opaque)
                record(Phase::Binning, tile,
                       "ordering: tile " + std::to_string(tile) +
                           " Second List holds prim " +
                           std::to_string(e.prim) +
                           " that is not predicted-occluded opaque WOZ",
                       stats);
        }
    }
}

void
InvariantAuditor::checkFvpConservative(int tile, const float *tile_depth,
                                       int pixel_count, FrameStats &stats)
{
    if (!tracker_)
        return;
    float max_depth = 0.0f;
    for (int i = 0; i < pixel_count; ++i)
        if (tile_depth[i] > max_depth)
            max_depth = tile_depth[i];
    if (tracker_->fvpConservative(tile, max_depth))
        return;
    record(Phase::Raster, tile,
           "fvp: tile " + std::to_string(tile) +
               " stored a farthest-visible point nearer than its actual "
               "farthest depth",
           stats);
    // The prediction is unsound; forget it rather than let the next
    // frame exclude visible primitives with it.
    degradeTile(tile, stats);
}

void
InvariantAuditor::checkMispredictionPoisoned(int tile, FrameStats &stats)
{
    // A misprediction takes the tile's signature out of service for two
    // frames — that is the degradation the counters must surface.
    ++stats.degraded_tiles;
    if (!signature_ || signature_->mispredictionPoisoned(tile))
        return;
    record(Phase::Raster, tile,
           "re: tile " + std::to_string(tile) +
               " misprediction did not poison its signature",
           stats);
}

void
InvariantAuditor::reportTileMismatch(int tile, FrameStats &stats)
{
    record(Phase::Raster, tile,
           "identity: tile " + std::to_string(tile) +
               " pixels differ from the submission-order reference",
           stats);
}

void
InvariantAuditor::degradeTile(int tile, FrameStats &stats)
{
    ++stats.degraded_tiles;
    if (signature_)
        signature_->tileMispredicted(tile);
    if (tracker_)
        tracker_->invalidatePrediction(tile);
}

void
InvariantAuditor::record(Phase phase, int tile, std::string message,
                         FrameStats &stats)
{
    ++stats.validate_violations;
    if (config_.strict())
        warn("invariant violation (frame %llu): %s",
             static_cast<unsigned long long>(frame_), message.c_str());
    std::lock_guard<std::mutex> lock(mu_);
    ++total_violations_;
    ++frame_violation_count_;
    // Keep every message until the frame is read out: the retention cap
    // is applied after the (phase, tile, seq) sort, so which messages
    // survive a violation storm never depends on thread interleaving.
    pending_.push_back(
        {static_cast<int>(phase), tile, next_seq_++, std::move(message)});
}

std::vector<std::string>
InvariantAuditor::sortedViolationsLocked() const
{
    std::vector<const Pending *> order;
    order.reserve(pending_.size());
    for (const Pending &p : pending_)
        order.push_back(&p);
    std::stable_sort(order.begin(), order.end(),
                     [](const Pending *a, const Pending *b) {
                         if (a->phase != b->phase)
                             return a->phase < b->phase;
                         if (a->tile != b->tile)
                             return a->tile < b->tile;
                         return a->seq < b->seq;
                     });
    std::vector<std::string> out;
    out.reserve(std::min(order.size(), kMaxStoredViolations));
    for (const Pending *p : order) {
        if (out.size() >= kMaxStoredViolations)
            break;
        out.push_back(p->msg);
    }
    return out;
}

bool
InvariantAuditor::frameClean() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.empty();
}

std::uint64_t
InvariantAuditor::totalViolations() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_violations_;
}

std::vector<std::string>
InvariantAuditor::frameViolations() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sortedViolationsLocked();
}

Status
InvariantAuditor::frameStatus() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty())
        return {};
    std::vector<std::string> stored = sortedViolationsLocked();
    std::string msg = stored.front();
    if (frame_violation_count_ > 1 || stored.size() > 1)
        msg += " (+" + std::to_string(stored.size() - 1) +
               " more this frame)";
    return Status::invariantViolation(std::move(msg));
}

} // namespace evrsim
