/**
 * @file
 * Tests for the per-frame mission path: bit-identity of the
 * buffer-reusing camera render and the cached pose estimator, zero
 * steady-state allocation of the pose scratch, and the memoized
 * inference schedule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "bridge/packet.hh"
#include "dnn/classifier.hh"
#include "dnn/engine.hh"
#include "env/sensors.hh"
#include "env/world.hh"
#include "util/rng.hh"

using namespace rose;
using namespace rose::dnn;

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

// ----------------------------------------------------- shared artifacts

TEST(HotpathShared, SchedulesAreMemoized)
{
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

namespace {

/** Columns checked by expectFullSsdFit, and how many were special. */
struct FitTally
{
    int columns = 0;
    int open = 0;
    /** Columns whose least full SSD is shared by several candidates. */
    int tied = 0;
    /** Columns won by a candidate whose full SSD beats a lower-index
     *  one by less than 6e-10, about 2E for 48 rows (DESIGN.md §5h):
     *  the band-sum bounds cannot order the two. */
    int nearTied = 0;
};

/**
 * Replay every column's fit of the last estimatePose(img, cfg,
 * scratch) call with full row-ordered SSD sums over the scratch's own
 * template bank, first candidate winning ties and the open profile
 * last, and require the same winner.
 */
void
expectFullSsdFit(const env::Image &img, const EstimatorConfig &cfg,
                 const PoseScratch &scratch, int frame, FitTally &tally)
{
    const size_t W = size_t(img.width), H = size_t(img.height);
    const size_t ncand = scratch.candidates.size();
    std::vector<double> ssd(ncand + 1);
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
        for (size_t k = 0; k < ncand; ++k)
            ssd[k] = fullSsd(&scratch.profiles[(k * W + c) * H]);
        ssd[ncand] = fullSsd(scratch.openProfile.data());
        size_t win = size_t(std::min_element(ssd.begin(), ssd.end()) -
                            ssd.begin());
        bool open = win == ncand;
        double ray = open ? cfg.maxDepth
                          : scratch.candidates[win] /
                                std::max(0.2, std::cos(scratch.alpha[c]));
        EXPECT_EQ(bool(scratch.open[c]), open)
            << "frame " << frame << " column " << c;
        EXPECT_EQ(std::memcmp(&scratch.rayDist[c], &ray, sizeof(double)),
                  0)
            << "frame " << frame << " column " << c;
        ++tally.columns;
        tally.open += open;
        tally.tied += std::count(ssd.begin(), ssd.end(), ssd[win]) > 1;
        tally.nearTied += std::any_of(
            ssd.begin(), ssd.begin() + std::ptrdiff_t(win),
            [&](double e) { return e - ssd[win] < 6e-10; });
    }
}

} // namespace

TEST(HotpathPose, BoundedSsdMatchesFullSsdFit)
{
    // estimatePose bounds each template's SSD from band sums and
    // sweeps only the candidates the bound cannot rule out. Replay the
    // full-SSD fit on s-shape frames quantized to 8 bits by the image
    // codec, as every mission frame is. Every fourth frame looks down
    // the straight tunnel instead, where the open-corridor profile
    // wins.
    env::SShapeWorld sshape;
    env::TunnelWorld tunnel;
    env::Camera cam(env::CameraConfig{}, Rng(51));
    env::Drone drone;
    Rng rng(53);
    EstimatorConfig cfg;
    PoseScratch scratch;
    FitTally tally;
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
        expectFullSsdFit(img, cfg, scratch, frame, tally);
    }
    EXPECT_EQ(tally.columns, 64 * 64);
    EXPECT_GT(tally.open, 0);
}

TEST(HotpathPose, BandSumFitKeepsFullSsdTies)
{
    // Tie-heavy frames for the band-sum certificate: noise-free
    // renders (raw and 8-bit quantized), far views down the tunnel
    // where several far candidates have the same sky/floor-only
    // column, columns copied verbatim from a template (SSD exactly 0,
    // shared by every identical template), and columns with pixels
    // outside [0, 1], which the bound does not cover.
    env::TunnelWorld tunnel;
    env::SShapeWorld sshape;
    env::CameraConfig clean;
    clean.noiseStd = 0.0;
    env::Camera cam(clean, Rng(61));
    env::Drone drone;
    Rng rng(67);
    EstimatorConfig cfg;
    PoseScratch scratch;
    FitTally tally;
    int frame = 0;
    for (; frame < 24; ++frame) {
        const env::World &world =
            frame % 2 ? static_cast<const env::World &>(tunnel) : sshape;
        // Tunnel frames start near the entrance and look straight down
        // it, so most walls are far away.
        double x = frame % 2 ? rng.uniform(1, 4)
                             : rng.uniform(2, world.length() - 2);
        double yaw = world.tangentAngle(x) +
                     (frame % 2 ? rng.uniform(-0.05, 0.05)
                                : rng.uniform(-0.6, 0.6));
        drone.setPose({x, world.centerY(x), 1.5},
                      Quat::fromEuler(0, 0, yaw));
        env::Image img = cam.render(world, drone);
        if (frame % 3 == 0)
            img = bridge::decodeImageResp(bridge::encodeImageResp(img));
        estimatePose(img, cfg, scratch);
        expectFullSsdFit(img, cfg, scratch, frame, tally);
    }

    // Synthetic columns. Two templates with the same band edges
    // differ only in their wall level, w_a vs w_b. A column equal to
    // both outside the wall band, whose wall rows pair up as one row
    // at w_a and one at w_b, has equal SSDs for the two (each sees the
    // same residuals, in swapped rows): an exact tie. With an odd
    // number of wall rows, the spare row takes the float next to the
    // midpoint on w_b's side, so the higher-index w_b wins by about
    // |w_a - w_b| * ulp, often below what the band-sum bound resolves:
    // only the sweep picks it.
    // Other columns copy a template (SSD exactly 0) or the open
    // profile.
    const size_t ncand = scratch.candidates.size();
    const size_t W = 64, H = 48;
    int twin_columns = 0;
    for (; frame < 56; ++frame) {
        env::Image img{int(W), int(H)};
        for (size_t c = 0; c < W; ++c) {
            const PoseScratch::Band *bands = &scratch.bands[c * ncand];
            std::vector<std::pair<size_t, size_t>> twins;
            for (size_t i = 0; i < ncand; ++i)
                for (size_t j = i + 1; j < ncand; ++j)
                    if (bands[i].skyEnd == bands[j].skyEnd &&
                        bands[i].floorBegin == bands[j].floorBegin &&
                        bands[i].floorBegin > bands[i].skyEnd)
                        twins.emplace_back(i, j);
            size_t k = rng.uniformInt(ncand + 1);
            const float *src = k == ncand
                                   ? scratch.openProfile.data()
                                   : &scratch.profiles[(k * W + c) * H];
            for (size_t r = 0; r < H; ++r)
                img.at(int(r), int(c)) = src[r];
            if (!twins.empty() && rng.uniform() < 0.7) {
                auto [a, b] = twins[rng.uniformInt(twins.size())];
                const PoseScratch::Band &band = bands[a];
                // Odd bands: the higher index wins. Even: either.
                if ((band.floorBegin - band.skyEnd) % 2 == 0 &&
                    rng.uniform() < 0.5)
                    std::swap(a, b);
                const float *pa = &scratch.profiles[(a * W + c) * H];
                for (size_t r = 0; r < H; ++r)
                    img.at(int(r), int(c)) = pa[r];
                float wa = float(bands[a].wall), wb = float(bands[b].wall);
                int r = band.skyEnd;
                if ((band.floorBegin - r) % 2 == 1) {
                    float mid = float(0.5 * (double(wa) + double(wb)));
                    if (std::abs(double(mid) - wb) > std::abs(double(mid) - wa))
                        mid = std::nextafter(mid, wb);
                    img.at(r++, int(c)) = mid;
                }
                for (; r < band.floorBegin; r += 2) {
                    bool flip = rng.uniform() < 0.5;
                    img.at(r + flip, int(c)) = wb;
                    img.at(r + !flip, int(c)) = wa;
                }
                ++twin_columns;
            }
            if (frame % 4 == 0 && c % 5 == 0)
                img.at(int(rng.uniformInt(H)), int(c)) = 1.5f;
        }
        estimatePose(img, cfg, scratch);
        expectFullSsdFit(img, cfg, scratch, frame, tally);
    }
    ASSERT_GT(twin_columns, 100);
    EXPECT_EQ(tally.columns, 56 * 64);
    EXPECT_GT(tally.open, 0);
    EXPECT_GT(tally.tied, 50) << "of " << twin_columns;
    EXPECT_GT(tally.nearTied, 5) << "of " << twin_columns;
}

TEST(HotpathPose, BandEdgesMatchProfiles)
{
    // The band model the certificate relies on is recorded while the
    // bank is built, from the row-edge formulas; check it against the
    // templates row by row, over image sizes of both parities and the
    // rover's camera height.
    EstimatorConfig rover;
    rover.camAltitude = 0.4;
    const struct
    {
        int w, h;
        EstimatorConfig cfg;
    } cases[] = {{64, 48, {}}, {33, 25, {}}, {64, 48, rover}};
    for (const auto &tc : cases) {
        PoseScratch s;
        estimatePose(env::Image(tc.w, tc.h), tc.cfg, s);
        ASSERT_TRUE(s.bandsCertified);
        const size_t W = size_t(tc.w), H = size_t(tc.h);
        const size_t ncand = s.candidates.size();
        ASSERT_EQ(s.bands.size(), W * ncand);
        for (size_t ci = 0; ci < ncand; ++ci) {
            for (size_t c = 0; c < W; ++c) {
                const PoseScratch::Band &b = s.bands[c * ncand + ci];
                ASSERT_LE(0, b.skyEnd);
                ASSERT_LE(b.skyEnd, b.floorBegin);
                ASSERT_LE(b.floorBegin, tc.h);
                const float *p = &s.profiles[(ci * W + c) * H];
                for (int r = 0; r < tc.h; ++r) {
                    float want = r < b.skyEnd        ? 0.85f
                                 : r < b.floorBegin ? float(b.wall)
                                                    : s.floorRow[size_t(r)];
                    ASSERT_EQ(p[r], want)
                        << tc.w << "x" << tc.h << " cand " << ci
                        << " col " << c << " row " << r;
                }
            }
        }
        for (int r = 0; r < tc.h; ++r)
            ASSERT_EQ(s.openProfile[size_t(r)],
                      r < s.openSkyEnd ? 0.85f : 0.15f)
                << "open row " << r;
    }
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
