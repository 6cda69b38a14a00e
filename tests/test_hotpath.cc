/**
 * @file
 * Tests for the hot-path engine: bit-exactness of the blocked GEMM
 * microkernel against the naive reference (including ragged tails,
 * signed zeros, packing, and row parallelism), zero steady-state
 * allocation of the workspace forward pass and cached pose estimator,
 * and bit-identity of the buffer-reusing camera/sensor paths.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "bridge/packet.hh"
#include "dnn/classifier.hh"
#include "dnn/engine.hh"
#include "dnn/forward.hh"
#include "env/sensors.hh"
#include "env/world.hh"
#include "gemmini/gemmini.hh"
#include "util/arena.hh"
#include "util/rng.hh"

using namespace rose;
using namespace rose::dnn;
using namespace rose::gemmini;

// --------------------------------------------------------------------
// Global allocation counter: every operator new in the process bumps
// it, so a steady-state region that performs zero heap allocations is
// directly observable. Counting is always on; the zero-alloc
// assertions are skipped under sanitizers, whose instrumentation may
// allocate on its own schedule.

namespace {
std::atomic<uint64_t> g_allocCount{0};
} // namespace

void *
operator new(size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }

namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kUnderSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kUnderSanitizer = true;
#else
constexpr bool kUnderSanitizer = false;
#endif
#else
constexpr bool kUnderSanitizer = false;
#endif

/** Fill a matrix with random values, injecting exact +/-0.0 entries —
 *  the values the naive kernel's skip branch treats specially. */
void
fillMatrix(std::vector<float> &m, Rng &rng, double zeroFrac)
{
    for (float &v : m) {
        double roll = rng.uniform(0, 1);
        if (roll < zeroFrac / 2)
            v = 0.0f;
        else if (roll < zeroFrac)
            v = -0.0f;
        else
            v = float(rng.uniform(-1, 1));
    }
}

template <typename VecA, typename VecB>
bool
bitIdentical(const VecA &a, const VecB &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(float)) == 0);
}

} // namespace

// ----------------------------------------------------------- GEMM kernel

TEST(HotpathGemm, BlockedMatchesNaiveBitExact)
{
    // Shapes straddle every blocking boundary: sub-tile, exact
    // multiples of the 8-wide panel / 8-row tile, ragged tails in every
    // dimension, and k odd (exercises the unroll remainder).
    const int shapes[][3] = {
        {1, 1, 1},   {3, 5, 7},    {8, 8, 8},    {8, 9, 16},
        {13, 17, 9}, {32, 28, 40}, {57, 64, 31}, {64, 72, 80},
        {100, 33, 65},
    };
    Gemmini g;
    Rng rng(2024);
    for (const auto &s : shapes) {
        int m = s[0], k = s[1], n = s[2];
        std::vector<float> a(size_t(m) * k), b(size_t(k) * n);
        // Heavy zero injection in A: the naive kernel skips those
        // terms, the blocked kernel does not — bit-identity across the
        // skip is the determinism theorem under test.
        fillMatrix(a, rng, 0.4);
        fillMatrix(b, rng, 0.1);
        std::vector<float> naive(size_t(m) * n, -1.f);
        std::vector<float> blocked(size_t(m) * n, 1.f);
        g.matmulNaive(m, k, n, a.data(), b.data(), naive.data());
        g.matmul(m, k, n, a.data(), b.data(), blocked.data());
        EXPECT_TRUE(bitIdentical(naive, blocked))
            << "shape " << m << "x" << k << "x" << n;
    }
}

TEST(HotpathGemm, PackedAndThreadedMatchBitExact)
{
    Gemmini g;
    Rng rng(77);
    const int m = 300, k = 45, n = 61; // ragged everywhere, m > block
    std::vector<float> a(size_t(m) * k), b(size_t(k) * n);
    fillMatrix(a, rng, 0.3);
    fillMatrix(b, rng, 0.0);

    std::vector<float> ref(size_t(m) * n);
    g.matmulNaive(m, k, n, a.data(), b.data(), ref.data());

    PackedB pb;
    Gemmini::packB(k, n, b.data(), pb);
    std::vector<float> viaPacked(size_t(m) * n);
    g.matmulPacked(m, a.data(), pb, viaPacked.data());
    EXPECT_TRUE(bitIdentical(ref, viaPacked));

    // Deterministic row parallelism: disjoint row chunks, identical
    // per-element FP order, so the result is bitwise the same.
    for (int threads : {2, 3, 4, 7}) {
        std::vector<float> par(size_t(m) * n);
        g.matmulPacked(m, a.data(), pb, par.data(), threads);
        EXPECT_TRUE(bitIdentical(ref, par)) << threads << " threads";
    }
}

TEST(HotpathGemm, PackBZeroPadsRaggedPanel)
{
    const int k = 5, n = 13; // 13 = one full panel + 5-wide tail
    std::vector<float> b(size_t(k) * n);
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = float(i + 1);
    PackedB pb;
    Gemmini::packB(k, n, b.data(), pb);
    const int pw = Gemmini::kPanelWidth;
    ASSERT_EQ(pb.k, k);
    ASSERT_EQ(pb.n, n);
    ASSERT_EQ(pb.data.size(), size_t(2) * k * pw);
    // Panel 0 holds columns 0..7 row-contiguously.
    for (int kk = 0; kk < k; ++kk)
        for (int j = 0; j < pw; ++j)
            EXPECT_EQ(pb.data[size_t(kk) * pw + j], b[size_t(kk) * n + j]);
    // Panel 1 holds columns 8..12 and three zero-padded lanes.
    const float *panel1 = pb.data.data() + size_t(k) * pw;
    for (int kk = 0; kk < k; ++kk)
        for (int j = 0; j < pw; ++j) {
            float want = j < 5 ? b[size_t(kk) * n + 8 + j] : 0.0f;
            EXPECT_EQ(panel1[size_t(kk) * pw + j], want);
        }
}

TEST(HotpathGemm, PackWeightsTransposedFoldsTranspose)
{
    const int k = 7, n = 11;
    Rng rng(5);
    std::vector<float> wt(size_t(n) * k); // W[N,K]: B's transpose
    fillMatrix(wt, rng, 0.0);
    std::vector<float> b(size_t(k) * n);
    for (int kk = 0; kk < k; ++kk)
        for (int j = 0; j < n; ++j)
            b[size_t(kk) * n + j] = wt[size_t(j) * k + kk];
    PackedB fromB, fromW;
    Gemmini::packB(k, n, b.data(), fromB);
    Gemmini::packWeightsTransposed(k, n, wt.data(), fromW);
    EXPECT_TRUE(bitIdentical(fromB.data, fromW.data));
}

// ------------------------------------------------------- ISA dispatch

namespace {

/** RAII: drop any tier override so later tests see auto again. */
struct IsaGuard
{
    ~IsaGuard() { resetGemmIsa(); }
};

} // namespace

TEST(HotpathGemmIsa, NamesParseAndScalarAlwaysSupported)
{
    bool is_auto = false;
    GemmIsa isa = GemmIsa::Avx2;
    EXPECT_TRUE(parseGemmIsa("auto", is_auto, isa));
    EXPECT_TRUE(is_auto);
    for (GemmIsa t :
         {GemmIsa::Scalar, GemmIsa::Avx2, GemmIsa::Avx2Fma}) {
        is_auto = true;
        GemmIsa parsed = GemmIsa::Scalar;
        ASSERT_TRUE(parseGemmIsa(gemmIsaName(t), is_auto, parsed));
        EXPECT_FALSE(is_auto);
        EXPECT_EQ(parsed, t);
    }
    EXPECT_FALSE(parseGemmIsa("sse9", is_auto, isa));
    EXPECT_FALSE(parseGemmIsa("", is_auto, isa));
    EXPECT_TRUE(gemmIsaSupported(GemmIsa::Scalar));
    // Whatever auto resolved to must itself be a supported tier.
    EXPECT_TRUE(gemmIsaSupported(activeGemmIsa()));
}

TEST(HotpathGemmIsa, BitExactTiersMatchOracleExactly)
{
    // Every compiled-and-supported bit-exact tier must reproduce the
    // naive oracle to the bit, across shapes that straddle the
    // small-shape scalar fallback (< 2^14 multiply-adds), the 8-wide
    // panel / 8-row tile boundaries, and ragged tails in every
    // dimension — with +/-0.0 and subnormal inputs in the mix (the
    // vector path must not flush or re-associate differently).
    const int shapes[][3] = {
        {1, 1, 1},    {4, 4, 4},    {16, 16, 16}, {32, 32, 32},
        {33, 17, 31}, {8, 2048, 8}, {128, 9, 17}, {57, 64, 31},
        {40, 28, 72}, {100, 33, 65},
    };
    IsaGuard guard;
    Gemmini g;
    Rng rng(0x15a);
    for (const auto &s : shapes) {
        int m = s[0], k = s[1], n = s[2];
        std::vector<float> a(size_t(m) * k), b(size_t(k) * n);
        fillMatrix(a, rng, 0.3);
        fillMatrix(b, rng, 0.2);
        for (size_t i = 0; i < a.size(); i += 17)
            a[i] = 1e-41f; // subnormal
        for (size_t i = 3; i < b.size(); i += 23)
            b[i] = -1e-39f;
        std::vector<float> oracle(size_t(m) * n);
        g.matmulNaive(m, k, n, a.data(), b.data(), oracle.data());

        for (GemmIsa tier : {GemmIsa::Scalar, GemmIsa::Avx2}) {
            if (!gemmIsaSupported(tier))
                continue;
            setGemmIsa(tier);
            std::vector<float> out(size_t(m) * n, -2.f);
            g.matmul(m, k, n, a.data(), b.data(), out.data());
            EXPECT_TRUE(bitIdentical(oracle, out))
                << gemmIsaName(tier) << " " << m << "x" << k << "x"
                << n;
            // The packed + threaded path dispatches identically.
            PackedB pb;
            Gemmini::packB(k, n, b.data(), pb);
            std::vector<float> par(size_t(m) * n, -3.f);
            g.matmulPacked(m, a.data(), pb, par.data(), 3);
            EXPECT_TRUE(bitIdentical(oracle, par))
                << gemmIsaName(tier) << " threaded " << m << "x" << k
                << "x" << n;
        }
    }
}

TEST(HotpathGemmIsa, FmaTierStaysWithinAccumulationTolerance)
{
    if (!gemmIsaSupported(GemmIsa::Avx2Fma))
        GTEST_SKIP() << "avx2fma not compiled in or not supported "
                        "by this CPU";
    // FMA fuses the multiply-add rounding, so bit-identity to the
    // oracle is NOT promised (that is why the tier is opt-in). What
    // is promised: each output stays within a small multiple of the
    // worst-case float accumulation error of its dot product.
    IsaGuard guard;
    Gemmini g;
    Rng rng(0xf0a);
    const int m = 45, k = 300, n = 33; // above the scalar fallback
    std::vector<float> a(size_t(m) * k), b(size_t(k) * n);
    fillMatrix(a, rng, 0.2);
    fillMatrix(b, rng, 0.1);
    std::vector<float> oracle(size_t(m) * n);
    g.matmulNaive(m, k, n, a.data(), b.data(), oracle.data());

    setGemmIsa(GemmIsa::Avx2Fma);
    ASSERT_EQ(activeGemmIsa(), GemmIsa::Avx2Fma);
    std::vector<float> fma(size_t(m) * n);
    g.matmul(m, k, n, a.data(), b.data(), fma.data());

    const double eps = 1.1920928955078125e-07; // 2^-23
    for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
            double absSum = 0.0;
            for (int t = 0; t < k; ++t)
                absSum += std::fabs(double(a[size_t(i) * k + t]) *
                                    double(b[size_t(t) * n + j]));
            double tol = 2.0 * double(k) * eps * absSum + 1e-30;
            ASSERT_NEAR(double(fma[size_t(i) * n + j]),
                        double(oracle[size_t(i) * n + j]), tol)
                << "element (" << i << "," << j << ")";
        }
    }
}

TEST(HotpathGemmIsa, UnsupportedRequestDegradesNotFails)
{
    IsaGuard guard;
    // Requesting any tier — supported or not — must leave the
    // dispatcher on a tier the host can actually run.
    for (GemmIsa t :
         {GemmIsa::Avx2Fma, GemmIsa::Avx2, GemmIsa::Scalar}) {
        setGemmIsa(t);
        EXPECT_TRUE(gemmIsaSupported(activeGemmIsa()))
            << "requested " << gemmIsaName(t);
    }
    resetGemmIsa();
    EXPECT_TRUE(gemmIsaSupported(activeGemmIsa()));
}

TEST(HotpathGemmIsa, ForwardPassParityScalarVsAuto)
{
    // The full DNN forward pass — im2col, packed GEMM, bias/relu,
    // dense head — must be bit-identical whether the dispatcher runs
    // the scalar kernel or whatever auto resolved to (auto only ever
    // picks bit-exact tiers unless ROSE_GEMM_FMA opts in; CI pins a
    // scalar-forced pass of the whole suite on top of this).
    IsaGuard guard;
    Model m = makeResNet(6);
    Weights w = initWeights(m, 21);
    PackedWeights pw = packWeights(m, w);
    Tensor in(1, kDnnInputH, kDnnInputW);
    Rng rng(303);
    for (float &v : in.data())
        v = float(rng.uniform(0, 1));

    setGemmIsa(GemmIsa::Scalar);
    ForwardWorkspace wsScalar;
    ForwardResult scalar;
    runForward(m, w, pw, in, wsScalar, scalar);

    resetGemmIsa(); // back to auto (env / cpuid resolution)
    ForwardWorkspace wsAuto;
    ForwardResult fast;
    runForward(m, w, pw, in, wsAuto, fast);

    EXPECT_TRUE(bitIdentical(scalar.angularProbs, fast.angularProbs));
    EXPECT_TRUE(bitIdentical(scalar.lateralProbs, fast.lateralProbs));
}

// --------------------------------------------------------- ScratchArena

TEST(HotpathArena, SteadyStateHasNoGrowth)
{
    ScratchArena arena;
    arena.floats(0, 1000);
    arena.floats(1, 64);
    uint64_t afterFirst = arena.growthEvents();
    EXPECT_GT(afterFirst, 0u);
    for (int frame = 0; frame < 10; ++frame) {
        std::vector<float> &a = arena.floats(0, 1000);
        std::vector<float> &b = arena.floats(1, 64);
        EXPECT_EQ(a.size(), 1000u);
        EXPECT_EQ(b.size(), 64u);
        // Shrinking requests reuse capacity too.
        arena.floats(0, 500);
    }
    EXPECT_EQ(arena.growthEvents(), afterFirst);
    arena.floats(0, 2000); // genuine growth is still counted
    EXPECT_GT(arena.growthEvents(), afterFirst);
}

// ------------------------------------------------------- forward engine

TEST(HotpathForward, WorkspaceMatchesReferenceBitExact)
{
    for (int depth : {6, 14}) {
        Model m = makeResNet(depth);
        Weights w = initWeights(m, 33);
        PackedWeights pw = packWeights(m, w);
        Tensor in(1, kDnnInputH, kDnnInputW);
        Rng rng(101 + depth);
        for (float &v : in.data())
            v = float(rng.uniform(0, 1));

        ForwardResult ref = runForward(m, w, in, /*use_gemm=*/true);
        ForwardWorkspace ws;
        ForwardResult got;
        runForward(m, w, pw, in, ws, got);
        EXPECT_TRUE(bitIdentical(ref.angularProbs, got.angularProbs))
            << "depth " << depth;
        EXPECT_TRUE(bitIdentical(ref.lateralProbs, got.lateralProbs))
            << "depth " << depth;

        // Re-running with the warmed workspace is still identical.
        runForward(m, w, pw, in, ws, got);
        EXPECT_TRUE(bitIdentical(ref.angularProbs, got.angularProbs));
        EXPECT_TRUE(bitIdentical(ref.lateralProbs, got.lateralProbs));
    }
}

TEST(HotpathForward, ThreadedWorkspaceMatchesBitExact)
{
    Model m = makeResNet(6);
    Weights w = initWeights(m, 9);
    PackedWeights pw = packWeights(m, w);
    Tensor in(1, kDnnInputH, kDnnInputW);
    Rng rng(55);
    for (float &v : in.data())
        v = float(rng.uniform(0, 1));
    ForwardWorkspace one, four;
    four.gemmThreads = 4;
    ForwardResult a, b;
    runForward(m, w, pw, in, one, a);
    runForward(m, w, pw, in, four, b);
    EXPECT_TRUE(bitIdentical(a.angularProbs, b.angularProbs));
    EXPECT_TRUE(bitIdentical(a.lateralProbs, b.lateralProbs));
}

TEST(HotpathForward, SteadyStateZeroAllocation)
{
    if (kUnderSanitizer)
        GTEST_SKIP() << "allocation counting is unreliable under "
                        "sanitizer instrumentation";
    Model m = makeResNet(6);
    Weights w = initWeights(m, 13);
    PackedWeights pw = packWeights(m, w);
    Tensor in(1, kDnnInputH, kDnnInputW);
    Rng rng(17);
    for (float &v : in.data())
        v = float(rng.uniform(0, 1));

    ForwardWorkspace ws;
    ForwardResult out;
    // Warm-up frames size every buffer.
    runForward(m, w, pw, in, ws, out);
    runForward(m, w, pw, in, ws, out);
    uint64_t growth = ws.arena.growthEvents();

    uint64_t before = g_allocCount.load();
    for (int frame = 0; frame < 5; ++frame)
        runForward(m, w, pw, in, ws, out);
    uint64_t allocs = g_allocCount.load() - before;
    EXPECT_EQ(allocs, 0u)
        << "steady-state forward pass performed heap allocations";
    EXPECT_EQ(ws.arena.growthEvents(), growth);
}

// ----------------------------------------------------- shared artifacts

TEST(HotpathShared, PackedWeightsAndSchedulesAreMemoized)
{
    auto w1 = sharedWeights(6, 42);
    auto w2 = sharedWeights(6, 42);
    EXPECT_EQ(w1.get(), w2.get());
    EXPECT_NE(w1.get(), sharedWeights(6, 43).get());

    auto p1 = sharedPackedWeights(6, 42);
    auto p2 = sharedPackedWeights(6, 42);
    EXPECT_EQ(p1.get(), p2.get());

    // Packed entries exist for every weighted layer (convs + heads).
    Model m = makeResNet(6);
    for (const LayerSpec &l : m.layers)
        if (l.weighted())
            EXPECT_EQ(p1->layers.count(l.name), 1u) << l.name;

    soc::SocConfig soc;
    ExecutionEngine eng(soc);
    std::shared_ptr<const Model> model = sharedResNet(6);
    auto s1 = eng.scheduleShared(*model);
    auto s2 = eng.scheduleShared(*model);
    EXPECT_EQ(s1.get(), s2.get());
    // The memoized schedule is the schedule.
    InferenceSchedule direct = eng.schedule(*model);
    EXPECT_EQ(s1->totalCycles, direct.totalCycles);
    EXPECT_EQ(s1->accelCycles, direct.accelCycles);
    EXPECT_EQ(s1->layers.size(), direct.layers.size());
}

// ------------------------------------------------------ camera hot path

TEST(HotpathCamera, RenderIntoBitIdenticalAndReusesBuffer)
{
    env::TunnelWorld world;
    env::Camera a(env::CameraConfig{}, Rng(7));
    env::Camera b(env::CameraConfig{}, Rng(7));
    env::Drone drone;
    env::Image reused;
    Rng rng(3);
    const float *pixels = nullptr;
    for (int frame = 0; frame < 6; ++frame) {
        drone.setPose({rng.uniform(5, 45), rng.uniform(-1, 1), 1.5},
                      Quat::fromEuler(0, 0, rng.uniform(-0.3, 0.3)));
        env::Image fresh =
            a.render(world, drone.position(), drone.attitude());
        b.renderInto(world, drone.position(), drone.attitude(), reused);
        ASSERT_EQ(fresh.width, reused.width);
        ASSERT_EQ(fresh.height, reused.height);
        EXPECT_TRUE(bitIdentical(fresh.pixels, reused.pixels))
            << "frame " << frame;
        if (frame == 0)
            pixels = reused.pixels.data();
        else
            EXPECT_EQ(reused.pixels.data(), pixels)
                << "image buffer was reallocated";
    }
}

// ----------------------------------------------------- pose-scratch path

TEST(HotpathPose, ScratchOverloadBitIdentical)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(21));
    env::Drone drone;
    Rng rng(23);
    EstimatorConfig cfg;
    PoseScratch scratch;
    for (int frame = 0; frame < 8; ++frame) {
        drone.setPose({rng.uniform(5, 45), rng.uniform(-1, 1), 1.5},
                      Quat::fromEuler(0, 0, rng.uniform(-0.3, 0.3)));
        env::Image img = cam.render(world, drone);
        PoseEstimate fresh = estimatePose(img, cfg);
        PoseEstimate cached = estimatePose(img, cfg, scratch);
        EXPECT_EQ(fresh.valid, cached.valid);
        // Bitwise double equality, not near-equality: the cached
        // tables hold exactly the values the fresh path recomputes.
        EXPECT_EQ(std::memcmp(&fresh.headingRad, &cached.headingRad,
                              sizeof(double)), 0);
        EXPECT_EQ(std::memcmp(&fresh.offsetM, &cached.offsetM,
                              sizeof(double)), 0);
    }
}

TEST(HotpathPose, BoundedSsdMatchesFullSsdFit)
{
    // estimatePose abandons a template's SSD once its partial sum
    // reaches the best so far. Replay every column's fit with full
    // sums over the scratch's own template bank and require the same
    // winner, on s-shape frames quantized to 8 bits by the image codec
    // as every mission frame is. Every fourth frame looks down the
    // straight tunnel instead, where the open-corridor profile wins.
    env::SShapeWorld sshape;
    env::TunnelWorld tunnel;
    env::Camera cam(env::CameraConfig{}, Rng(51));
    env::Drone drone;
    Rng rng(53);
    EstimatorConfig cfg;
    PoseScratch scratch;
    int columns = 0, open_columns = 0;
    for (int frame = 0; frame < 64; ++frame) {
        const env::World &world =
            frame % 4 == 3 ? static_cast<const env::World &>(tunnel)
                           : sshape;
        double x = rng.uniform(2, world.length() - 2);
        drone.setPose({x,
                       world.centerY(x) +
                           rng.uniform(-0.8, 0.8) * world.halfWidth(x),
                       1.5},
                      Quat::fromEuler(0, 0,
                                      world.tangentAngle(x) +
                                          rng.uniform(-0.6, 0.6)));
        env::Image img = bridge::decodeImageResp(
            bridge::encodeImageResp(cam.render(world, drone)));
        estimatePose(img, cfg, scratch);

        const size_t W = size_t(img.width), H = size_t(img.height);
        for (size_t c = 0; c < W; ++c) {
            auto fullSsd = [&](const float *profile) {
                double sum = 0.0;
                for (size_t r = 0; r < H; ++r) {
                    double d = double(profile[r]) -
                               double(img.at(int(r), int(c)));
                    sum += d * d;
                }
                return sum;
            };
            double best = 1e30, best_d = cfg.maxDepth;
            for (size_t ci = 0; ci < scratch.candidates.size(); ++ci) {
                double e = fullSsd(
                    &scratch.profiles[(ci * W + c) * H]);
                if (e < best) {
                    best = e;
                    best_d = scratch.candidates[ci];
                }
            }
            bool open = fullSsd(scratch.openProfile.data()) < best;
            double ray = open ? cfg.maxDepth
                              : best_d / std::max(0.2,
                                                  std::cos(
                                                      scratch.alpha[c]));
            EXPECT_EQ(bool(scratch.open[c]), open)
                << "frame " << frame << " column " << c;
            EXPECT_EQ(std::memcmp(&scratch.rayDist[c], &ray,
                                  sizeof(double)),
                      0)
                << "frame " << frame << " column " << c;
            ++columns;
            open_columns += open;
        }
    }
    EXPECT_EQ(columns, 64 * 64);
    EXPECT_GT(open_columns, 0);
}

TEST(HotpathPose, ScratchSteadyStateZeroAllocation)
{
    if (kUnderSanitizer)
        GTEST_SKIP() << "allocation counting is unreliable under "
                        "sanitizer instrumentation";
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(31));
    env::Drone drone;
    drone.setPose({10, 0.2, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Image img;
    cam.renderInto(world, drone.position(), drone.attitude(), img);

    EstimatorConfig cfg;
    PoseScratch scratch;
    estimatePose(img, cfg, scratch); // sizes the cache + scratch
    uint64_t before = g_allocCount.load();
    for (int i = 0; i < 5; ++i)
        estimatePose(img, cfg, scratch);
    EXPECT_EQ(g_allocCount.load() - before, 0u);
}

TEST(HotpathPose, ScratchRebuildsOnConfigChange)
{
    env::TunnelWorld world;
    env::Camera cam(env::CameraConfig{}, Rng(41));
    env::Drone drone;
    drone.setPose({12, -0.4, 1.5}, Quat::fromEuler(0, 0, -0.15));
    env::Image img = cam.render(world, drone);

    PoseScratch scratch;
    EstimatorConfig cfg;
    PoseEstimate a = estimatePose(img, cfg, scratch);
    EstimatorConfig other = cfg;
    other.maxDepth *= 0.5;
    PoseEstimate b = estimatePose(img, other, scratch);
    PoseEstimate bFresh = estimatePose(img, other);
    EXPECT_EQ(std::memcmp(&b.headingRad, &bFresh.headingRad,
                          sizeof(double)), 0);
    // Switching back re-keys again and still matches the fresh path.
    PoseEstimate a2 = estimatePose(img, cfg, scratch);
    EXPECT_EQ(std::memcmp(&a.headingRad, &a2.headingRad,
                          sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(&a.offsetM, &a2.offsetM, sizeof(double)), 0);
}
