/**
 * @file
 * The defensive simulation core: EVRSIM_VALIDATE resolution, panic-free
 * scene ingestion (audit/sanitize), each invariant-auditor check against
 * deliberately seeded violations, safe degradation in permissive mode,
 * and the strict-mode conversion of violations into failing Status.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/crash_handler.hpp"
#include "common/validate.hpp"
#include "driver/experiment.hpp"
#include "gpu/invariant_auditor.hpp"
#include "scene/scene_validate.hpp"
#include "support.hpp"

using namespace evrsim;
using namespace evrsim::test;

namespace {

constexpr int kW = 64;
constexpr int kH = 48;

/** Scoped environment override, restored on destruction. */
class EnvVar
{
  public:
    EnvVar(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvVar()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_;
    std::string old_;
};

ValidationConfig
permissiveConfig(double sample_rate = 1.0)
{
    ValidationConfig v;
    v.mode = ValidateMode::Permissive;
    v.tile_sample_rate = sample_rate;
    return v;
}

ValidationConfig
strictConfig(double sample_rate = 1.0)
{
    ValidationConfig v = permissiveConfig(sample_rate);
    v.mode = ValidateMode::Strict;
    return v;
}

SimConfig
withValidation(SimConfig c, const ValidationConfig &v)
{
    c.validation = v;
    return c;
}

/** A clean one-quad scene covering most of the screen. */
Scene
cleanScene(const Mesh *quad, Vec4 tint = {0.8f, 0.3f, 0.2f, 1.0f})
{
    Scene s;
    setCamera2D(s, kW, kH);
    submitRect(s, quad, 4, 4, kW - 8, kH - 8, 0.5f, RenderState{}).tint =
        tint;
    return s;
}

} // namespace

// ------------------------------------------------------- env parsing --

TEST(ValidateEnv, UnsetMeansOff)
{
    EnvVar mode("EVRSIM_VALIDATE", nullptr);
    Result<ValidationConfig> cfg = validationFromEnvChecked();
    ASSERT_TRUE(cfg.ok());
    EXPECT_FALSE(cfg.value().enabled());
    EXPECT_EQ(cfg.value().cacheTag(), "");
}

TEST(ValidateEnv, ModesParse)
{
    {
        EnvVar mode("EVRSIM_VALIDATE", "permissive");
        Result<ValidationConfig> cfg = validationFromEnvChecked();
        ASSERT_TRUE(cfg.ok());
        EXPECT_TRUE(cfg.value().enabled());
        EXPECT_FALSE(cfg.value().strict());
        EXPECT_NE(cfg.value().cacheTag().find("permissive"),
                  std::string::npos);
        // Without a :rate suffix the default sample rate applies.
        EXPECT_DOUBLE_EQ(cfg.value().tile_sample_rate, 0.0625);
    }
    {
        EnvVar mode("EVRSIM_VALIDATE", "strict");
        Result<ValidationConfig> cfg = validationFromEnvChecked();
        ASSERT_TRUE(cfg.ok());
        EXPECT_TRUE(cfg.value().strict());
    }
    {
        EnvVar mode("EVRSIM_VALIDATE", "off");
        Result<ValidationConfig> cfg = validationFromEnvChecked();
        ASSERT_TRUE(cfg.ok());
        EXPECT_FALSE(cfg.value().enabled());
    }
}

TEST(ValidateEnv, MalformedModeIsInvalidArgumentNotExit)
{
    EnvVar mode("EVRSIM_VALIDATE", "paranoid");
    Result<ValidationConfig> cfg = validationFromEnvChecked();
    ASSERT_FALSE(cfg.ok());
    EXPECT_EQ(cfg.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(cfg.status().message().find("EVRSIM_VALIDATE"),
              std::string::npos);
}

TEST(ValidateEnv, SampleRateParsesAndRejects)
{
    {
        EnvVar mode("EVRSIM_VALIDATE", "permissive:0.25");
        Result<ValidationConfig> cfg = validationFromEnvChecked();
        ASSERT_TRUE(cfg.ok());
        EXPECT_EQ(cfg.value().mode, ValidateMode::Permissive);
        EXPECT_DOUBLE_EQ(cfg.value().tile_sample_rate, 0.25);
        // The cache tag (and so every job key) is the one the retired
        // EVRSIM_VALIDATE_SAMPLE=0.25 produced.
        EXPECT_EQ(cfg.value().cacheTag(), "-Vpermissive-s0.25");
    }
    {
        EnvVar mode("EVRSIM_VALIDATE", "strict:0");
        Result<ValidationConfig> cfg = validationFromEnvChecked();
        ASSERT_TRUE(cfg.ok());
        EXPECT_TRUE(cfg.value().strict());
        EXPECT_DOUBLE_EQ(cfg.value().tile_sample_rate, 0.0);
    }
    for (const char *bad :
         {"permissive:1.5", "permissive:-0.1", "permissive:lots",
          "permissive:", "strict: 0.5", "bogus:0.5", ":0.5"}) {
        EnvVar mode("EVRSIM_VALIDATE", bad);
        Result<ValidationConfig> cfg = validationFromEnvChecked();
        ASSERT_FALSE(cfg.ok()) << "value '" << bad << "'";
        EXPECT_NE(cfg.status().message().find("EVRSIM_VALIDATE"),
                  std::string::npos);
    }
}

TEST(ValidateEnv, BenchParamsPropagateBadKnob)
{
    EnvVar mode("EVRSIM_VALIDATE", "bogus");
    Result<BenchParams> p = benchParamsFromEnvChecked();
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), ErrorCode::InvalidArgument);
}

// --------------------------------------------------- config checking --

TEST(ConfigCheck, RecoverableStatusInsteadOfExit)
{
    GpuConfig gpu = tinyGpu(kW, kH);
    SimConfig bad = SimConfig::baseline(gpu);
    bad.gpu.screen_width = 0;
    EXPECT_EQ(bad.checkValid().code(), ErrorCode::InvalidArgument);

    SimConfig flags = SimConfig::baseline(gpu);
    flags.evr_reorder = true; // without evr_predict
    EXPECT_EQ(flags.checkValid().code(), ErrorCode::InvalidArgument);

    EXPECT_TRUE(SimConfig::evr(gpu).checkValid().ok());
}

// --------------------------------------------------- scene ingestion --

TEST(SceneAudit, CleanSceneIsClean)
{
    Mesh quad = meshes::quad({1, 1, 1, 1});
    Scene s = cleanScene(&quad);
    EXPECT_TRUE(auditScene(s).ok());
    EXPECT_TRUE(validateScene(s).ok());
}

TEST(SceneAudit, CatchesEachDefectClass)
{
    Mesh quad = meshes::quad({1, 1, 1, 1});
    const float nan = std::nanf("");

    { // null mesh
        Scene s = cleanScene(&quad);
        s.commands[0].mesh = nullptr;
        SceneAuditReport r = auditScene(s);
        ASSERT_EQ(r.issues.size(), 1u);
        EXPECT_EQ(r.issues[0].command, 0);
    }
    { // non-finite model matrix
        Scene s = cleanScene(&quad);
        s.commands[0].model.m[1][2] = nan;
        EXPECT_FALSE(auditScene(s).ok());
    }
    { // non-finite tint
        Scene s = cleanScene(&quad);
        s.commands[0].tint.y = std::numeric_limits<float>::infinity();
        EXPECT_FALSE(auditScene(s).ok());
    }
    { // index out of range
        Mesh broken = meshes::quad({1, 1, 1, 1});
        broken.indices.push_back(0);
        broken.indices.push_back(1);
        broken.indices.push_back(
            static_cast<std::uint32_t>(broken.vertices.size()) + 9);
        Scene s = cleanScene(&quad);
        s.commands[0].mesh = &broken;
        SceneAuditReport r = auditScene(s);
        ASSERT_FALSE(r.ok());
        EXPECT_NE(r.issues[0].detail.find("out of range"),
                  std::string::npos);
    }
    { // index count not a triangle list
        Mesh broken = meshes::quad({1, 1, 1, 1});
        broken.indices.push_back(0);
        Scene s = cleanScene(&quad);
        s.commands[0].mesh = &broken;
        EXPECT_FALSE(auditScene(s).ok());
    }
    { // non-finite vertex attribute
        Mesh broken = meshes::quad({1, 1, 1, 1});
        broken.vertices[0].position.z = nan;
        Scene s = cleanScene(&quad);
        s.commands[0].mesh = &broken;
        EXPECT_FALSE(auditScene(s).ok());
    }
    { // texture slot out of range
        Scene s = cleanScene(&quad);
        s.commands[0].state.texture = 3; // nothing bound
        EXPECT_FALSE(auditScene(s).ok());
    }
    { // sampling program without a texture
        Scene s = cleanScene(&quad);
        s.commands[0].state.program = FragmentProgram::Textured;
        s.commands[0].state.texture = -1;
        EXPECT_FALSE(auditScene(s).ok());
    }
    { // frame-level: broken camera
        Scene s = cleanScene(&quad);
        s.view.m[0][0] = nan;
        SceneAuditReport r = auditScene(s);
        ASSERT_FALSE(r.ok());
        EXPECT_TRUE(r.frameLevel());
        EXPECT_EQ(r.issues[0].command, -1);
    }
    { // frame-level: clear depth out of range
        Scene s = cleanScene(&quad);
        s.clear_depth = 2.0f;
        SceneAuditReport r = auditScene(s);
        ASSERT_FALSE(r.ok());
        EXPECT_TRUE(r.frameLevel());
    }
}

TEST(SceneSanitize, DropsOnlyOffendersAndKeepsIds)
{
    Mesh quad = meshes::quad({1, 1, 1, 1});
    Scene s;
    setCamera2D(s, kW, kH);
    submitRect(s, &quad, 0, 0, 20, 20, 0.5f, RenderState{});
    submitRect(s, &quad, 20, 0, 20, 20, 0.5f, RenderState{}).mesh =
        nullptr;
    submitRect(s, &quad, 40, 0, 20, 20, 0.5f, RenderState{});

    SceneAuditReport r = auditScene(s);
    EXPECT_EQ(sanitizeScene(s, r), 1u);
    ASSERT_EQ(s.commands.size(), 2u);
    // Submission ids survive so layer assignment matches a stream that
    // never contained the offender.
    EXPECT_EQ(s.commands[0].id, 0u);
    EXPECT_EQ(s.commands[1].id, 2u);
}

TEST(SceneSanitize, BrokenCameraDropsEveryCommandAndClampssClearDepth)
{
    Mesh quad = meshes::quad({1, 1, 1, 1});
    Scene s = cleanScene(&quad);
    s.view.m[2][3] = std::nanf("");
    s.clear_depth = -4.0f;
    SceneAuditReport r = auditScene(s);
    EXPECT_EQ(sanitizeScene(s, r), 1u);
    EXPECT_TRUE(s.commands.empty());
    EXPECT_EQ(s.clear_depth, 1.0f);
}

TEST(SceneSanitize, PermissiveRenderEqualsManuallyCleanedScene)
{
    // Rendering the malformed scene in permissive mode must produce the
    // exact image of a scene that never contained the bad command.
    Mesh quad = meshes::quad({1, 1, 1, 1});

    GpuSimulator dirty(withValidation(
        SimConfig::baseline(tinyGpu(kW, kH)), permissiveConfig(0.0)));
    GpuSimulator clean(SimConfig::baseline(tinyGpu(kW, kH)));
    dirty.uploadMesh(quad);

    Scene bad = cleanScene(&quad);
    submitRect(bad, &quad, 10, 10, 30, 20, 0.3f, RenderState{}).mesh =
        nullptr;
    Scene good = cleanScene(&quad);

    FrameStats stats = dirty.renderFrame(bad);
    clean.renderFrame(good);

    EXPECT_TRUE(dirty.framebuffer().equals(clean.framebuffer()));
    EXPECT_EQ(stats.validate_scene_issues, 1u);
    EXPECT_EQ(stats.validate_commands_dropped, 1u);
    EXPECT_EQ(stats.validate_violations, 0u);
}

TEST(SceneSanitize, StrictModeTurnsBadSceneIntoStatus)
{
    Mesh quad = meshes::quad({1, 1, 1, 1});
    GpuSimulator sim(withValidation(SimConfig::baseline(tinyGpu(kW, kH)),
                                    strictConfig(0.0)));
    sim.uploadMesh(quad);

    Scene bad = cleanScene(&quad);
    bad.commands[0].tint.x = std::nanf("");
    Result<FrameStats> r = sim.tryRenderFrame(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(r.status().message().find("command 0"), std::string::npos);
}

// ------------------------------------------------- auditor unit tests --

TEST(Auditor, TileSamplingIsDeterministicAndRespectsBounds)
{
    GpuConfig gpu = tinyGpu(kW, kH);
    InvariantAuditor all(permissiveConfig(1.0), gpu);
    InvariantAuditor none(permissiveConfig(0.0), gpu);
    InvariantAuditor some(permissiveConfig(0.5), gpu);
    InvariantAuditor some2(permissiveConfig(0.5), gpu);

    all.frameStart(3);
    none.frameStart(3);
    some.frameStart(3);
    some2.frameStart(3);

    int sampled = 0;
    for (int t = 0; t < gpu.tileCount(); ++t) {
        EXPECT_TRUE(all.shouldAuditTile(t));
        EXPECT_FALSE(none.shouldAuditTile(t));
        EXPECT_EQ(some.shouldAuditTile(t), some2.shouldAuditTile(t));
        sampled += some.shouldAuditTile(t) ? 1 : 0;
    }
    // Not a statistical assertion — just that 0.5 is neither of the
    // degenerate policies on this many tiles.
    EXPECT_GT(sampled, 0);
    EXPECT_LT(sampled, gpu.tileCount());
}

TEST(Auditor, BinningContainmentViolationIsRecorded)
{
    GpuConfig gpu = tinyGpu(kW, kH);
    InvariantAuditor auditor(permissiveConfig(), gpu);
    auditor.frameStart(0);

    AddressSpace as;
    ParameterBuffer pb;
    pb.beginFrame(gpu.tileCount(), as);

    // A triangle wholly inside tile 0, listed in the last tile too.
    std::uint32_t p = pb.addPrimitive(
        screenTriangle({1, 1}, {6, 1}, {1, 6}, 0.5f));
    pb.append(0, {p, 0, false}, false, 4);
    pb.append(gpu.tileCount() - 1, {p, 0, false}, false, 4);

    FrameStats stats;
    auditor.checkBinning(pb, stats);
    EXPECT_EQ(stats.validate_violations, 1u);
    EXPECT_FALSE(auditor.frameClean());
    EXPECT_EQ(auditor.frameStatus().code(), ErrorCode::InvariantViolation);
}

TEST(Auditor, SecondListCompositionIsAudited)
{
    GpuConfig gpu = tinyGpu(kW, kH);
    InvariantAuditor auditor(permissiveConfig(), gpu);
    auditor.frameStart(0);

    AddressSpace as;
    ParameterBuffer pb;
    pb.beginFrame(gpu.tileCount(), as);

    // Algorithm 1 may defer only predicted-occluded opaque WOZ
    // primitives. Seed the Second List with (a) a non-predicted entry
    // and (b) a translucent primitive.
    ShadedPrimitive woz = screenTriangle({1, 1}, {6, 1}, {1, 6}, 0.5f);
    std::uint32_t a = pb.addPrimitive(woz);
    ShadedPrimitive blend = woz;
    blend.state.blend = BlendMode::Alpha;
    std::uint32_t b = pb.addPrimitive(blend);

    pb.append(0, {a, 0, false}, true, 4);
    pb.append(0, {b, 0, true}, true, 4);

    FrameStats stats;
    auditor.checkBinning(pb, stats);
    EXPECT_EQ(stats.validate_violations, 2u);

    // A legitimate Second List entry adds nothing.
    InvariantAuditor ok_auditor(permissiveConfig(), gpu);
    ok_auditor.frameStart(0);
    ParameterBuffer pb2;
    pb2.beginFrame(gpu.tileCount(), as);
    std::uint32_t c = pb2.addPrimitive(woz);
    pb2.append(0, {c, 0, true}, true, 4);
    FrameStats clean;
    ok_auditor.checkBinning(pb2, clean);
    EXPECT_EQ(clean.validate_violations, 0u);
    EXPECT_TRUE(ok_auditor.frameClean());
}

TEST(Auditor, FvpConservativenessCatchesTooNearPrediction)
{
    GpuConfig gpu = tinyGpu(kW, kH);
    EarlyVisibilityResolution evr(gpu.tileCount(), gpu.tile_size);
    InvariantAuditor auditor(permissiveConfig(), gpu);
    auditor.attach(nullptr, &evr);
    auditor.frameStart(0);

    std::vector<float> depth(
        static_cast<std::size_t>(gpu.tile_size) * gpu.tile_size, 0.8f);
    const int n = static_cast<int>(depth.size());
    FrameStats stats;

    // No stored prediction: vacuously conservative.
    auditor.checkFvpConservative(0, depth.data(), n, stats);
    EXPECT_EQ(stats.validate_violations, 0u);

    // Honest prediction (z_far >= true farthest depth): clean.
    evr.mutableFvpTable().storeWoz(0, 0.8f);
    auditor.checkFvpConservative(0, depth.data(), n, stats);
    EXPECT_EQ(stats.validate_violations, 0u);

    // Corrupted too-near prediction: violation, and the entry is
    // dropped so the next frame cannot predict with it.
    evr.mutableFvpTable().storeWoz(0, 0.2f);
    auditor.checkFvpConservative(0, depth.data(), n, stats);
    EXPECT_EQ(stats.validate_violations, 1u);
    EXPECT_GT(stats.degraded_tiles, 0u);
    EXPECT_FALSE(evr.fvpTable().valid(0));
}

TEST(Auditor, MispredictionMustPoisonSignature)
{
    GpuConfig gpu = tinyGpu(kW, kH);
    RenderingElimination re(gpu.tileCount());
    InvariantAuditor auditor(permissiveConfig(), gpu);
    auditor.attach(&re, nullptr);
    auditor.frameStart(0);

    FrameStats stats;
    // Properly reported misprediction: poison took, counted as
    // degradation but no violation.
    re.tileMispredicted(2);
    auditor.checkMispredictionPoisoned(2, stats);
    EXPECT_EQ(stats.validate_violations, 0u);
    EXPECT_EQ(stats.degraded_tiles, 1u);

    // Un-poisoned misprediction (the defense silently failed): caught.
    auditor.checkMispredictionPoisoned(3, stats);
    EXPECT_EQ(stats.validate_violations, 1u);
}

TEST(Auditor, DegradeTilePoisonsSignatureAndDropsPrediction)
{
    GpuConfig gpu = tinyGpu(kW, kH);
    RenderingElimination re(gpu.tileCount());
    EarlyVisibilityResolution evr(gpu.tileCount(), gpu.tile_size);
    evr.mutableFvpTable().storeWoz(1, 0.5f);

    InvariantAuditor auditor(permissiveConfig(), gpu);
    auditor.attach(&re, &evr);
    auditor.frameStart(0);

    FrameStats stats;
    auditor.degradeTile(1, stats);
    EXPECT_EQ(stats.degraded_tiles, 1u);
    EXPECT_TRUE(re.signatureBuffer().currentPoisoned(1));
    EXPECT_FALSE(evr.fvpTable().valid(1));
}

// ------------------------------------- end-to-end identity and repair --

TEST(IdentityAudit, CleanRunsStayCleanInStrictMode)
{
    // Strict validation over several frames of a real multi-config
    // render must find nothing: the techniques are sound, and the
    // reference raster path must agree with the pipeline bit for bit.
    Mesh quad = meshes::quad({1, 1, 1, 1});
    for (SimConfig cfg :
         {SimConfig::baseline(tinyGpu(kW, kH)),
          SimConfig::renderingElimination(tinyGpu(kW, kH)),
          SimConfig::evr(tinyGpu(kW, kH))}) {
        GpuSimulator sim(withValidation(cfg, strictConfig(1.0)));
        sim.uploadMesh(quad);
        for (int f = 0; f < 4; ++f) {
            Scene s;
            setCamera2D(s, kW, kH);
            RenderState woz;
            submitRect(s, &quad, -1, -1, kW + 2, kH + 2, 0.9f, woz);
            float x = 4.0f + 3.0f * static_cast<float>(f);
            submitRect(s, &quad, x, 8, 20, 16, 0.4f, woz).tint = {
                0.9f, 0.7f, 0.1f, 1.0f};
            RenderState blend;
            blend.depth_write = false;
            blend.blend = BlendMode::Alpha;
            submitRect(s, &quad, 12, 20, 24, 12, 0.2f, blend).tint = {
                0.2f, 0.4f, 0.9f, 0.5f};
            Result<FrameStats> r = sim.tryRenderFrame(s);
            ASSERT_TRUE(r.ok()) << cfg.name << " frame " << f << ": "
                                << r.status().message();
            EXPECT_GT(r.value().validate_tile_checks, 0u);
        }
        EXPECT_EQ(sim.auditor()->totalViolations(), 0u);
    }
}

TEST(IdentityAudit, WrongSkipIsCaughtRepairedAndDegraded)
{
    // Choreograph the failure RE must never produce naturally: plant a
    // forged previous-frame signature equal to what the *next* frame
    // will hash, so RE wrongly skips tiles whose pixels changed. The
    // sampled identity audit must catch it, repair the pixels from the
    // reference path, and take the tiles out of the fast path.
    Mesh quad = meshes::quad({1, 1, 1, 1});

    auto sceneX = [&] { return cleanScene(&quad, {0.9f, 0.1f, 0.1f, 1}); };
    auto sceneY = [&] { return cleanScene(&quad, {0.1f, 0.9f, 0.1f, 1}); };

    // Learn Y's per-tile signatures with a disposable RE simulator.
    GpuSimulator probe(SimConfig::renderingElimination(tinyGpu(kW, kH)));
    probe.uploadMesh(quad);
    probe.renderFrame(sceneY());

    GpuSimulator sim(withValidation(
        SimConfig::renderingElimination(tinyGpu(kW, kH)),
        permissiveConfig(1.0)));
    sim.uploadMesh(quad);
    sim.renderFrame(sceneX());

    SignatureBuffer &sigs = sim.mutableRe()->mutableSignatureBuffer();
    const SignatureBuffer &probe_sigs = probe.re()->signatureBuffer();
    for (int t = 0; t < sigs.tileCount(); ++t)
        sigs.setPrevious(t, probe_sigs.previous(t), true);

    FrameStats stats = sim.renderFrame(sceneY());

    // The forged signatures made RE skip; the audit must have repaired
    // the image back to the true render of Y.
    GpuSimulator truth(SimConfig::baseline(tinyGpu(kW, kH)));
    truth.uploadMesh(quad);
    truth.renderFrame(sceneY());
    EXPECT_TRUE(sim.framebuffer().equals(truth.framebuffer()));
    EXPECT_GT(stats.validate_violations, 0u);
    EXPECT_GT(stats.degraded_tiles, 0u);

    // Degradation poisoned the repaired tiles' signatures, so the next
    // identical frame renders (no skip on poisoned state) and is clean.
    FrameStats next = sim.renderFrame(sceneY());
    EXPECT_TRUE(sim.framebuffer().equals(truth.framebuffer()));
    EXPECT_EQ(next.validate_violations, 0u);
}

TEST(IdentityAudit, StrictModeFailsTheFrameOnSeededViolation)
{
    Mesh quad = meshes::quad({1, 1, 1, 1});

    GpuSimulator probe(SimConfig::renderingElimination(tinyGpu(kW, kH)));
    probe.uploadMesh(quad);
    probe.renderFrame(cleanScene(&quad, {0.1f, 0.9f, 0.1f, 1}));

    GpuSimulator sim(withValidation(
        SimConfig::renderingElimination(tinyGpu(kW, kH)),
        strictConfig(1.0)));
    sim.uploadMesh(quad);
    ASSERT_TRUE(
        sim.tryRenderFrame(cleanScene(&quad, {0.9f, 0.1f, 0.1f, 1})).ok());

    SignatureBuffer &sigs = sim.mutableRe()->mutableSignatureBuffer();
    for (int t = 0; t < sigs.tileCount(); ++t)
        sigs.setPrevious(t, probe.re()->signatureBuffer().previous(t),
                         true);

    Result<FrameStats> r =
        sim.tryRenderFrame(cleanScene(&quad, {0.1f, 0.9f, 0.1f, 1}));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::InvariantViolation);
}

// ----------------------------------------------------- crash handler --

using CrashHandlerDeathTest = ::testing::Test;

TEST(CrashHandlerDeathTest, PrintsActiveContextAndReRaises)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            installCrashHandler();
            crashContextSetRun("ata", "evr");
            crashContextSetFrame(12);
            crashContextSetTile(77);
            std::abort();
        },
        "evrsim crash: SIGABRT(.|\\n)*active run: ata/evr(.|\\n)*"
        "frame: 12(.|\\n)*tile: 77");
}

TEST(CrashHandlerDeathTest, ClearedContextReportsNone)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            installCrashHandler();
            crashContextSetRun("ata", "evr");
            crashContextClear();
            std::abort();
        },
        "active run: \\(none recorded on this thread\\)");
}
