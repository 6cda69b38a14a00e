/**
 * @file
 * Golden-trace regression tests: canonical tunnel missions (SoC configs
 * A, B, C from Table 2) and s-shape missions (each config at three
 * initial headings) with checked-in FNV-1a hashes of their trajectory
 * CSVs. Silent physics/timing drift — a changed integrator constant, a
 * reordered RNG draw, an off-by-one sync period — fails here instead
 * of quietly corrupting every number in EXPERIMENTS.md.
 *
 * When a change *intentionally* alters simulation behavior, regenerate
 * the goldens: run this binary with ROSE_REGEN_GOLDEN=1 and paste the
 * printed tables over kGolden / kSShapeGolden below (the test fails in
 * regen mode so CI can never pass on unpinned values). The trajectory
 * CSV format itself is part of the hashed surface (see
 * core::trajectoryCsvString).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "util/hash.hh"

using namespace rose;

namespace {

/** The canonical mission: ResNet14 @ 3 m/s, seed 1. The tunnel set
 *  flies 10 simulated seconds from a +20 degree initial heading
 *  (exercises the correction transient) under each SoC config; the
 *  s-shape set flies 30 s, long enough to cross most of the curved
 *  corridor, under each config at headings -20/0/+20 degrees. */
core::MissionSpec
canonicalSpec(const std::string &world, const std::string &socName,
              double yawDeg, double maxSimSeconds)
{
    core::MissionSpec spec;
    spec.world = world;
    spec.socName = socName;
    spec.modelDepth = 14;
    spec.velocity = 3.0;
    spec.initialYawDeg = yawDeg;
    spec.seed = 1;
    spec.maxSimSeconds = maxSimSeconds;
    return spec;
}

struct Golden
{
    const char *socName;
    uint64_t trajectoryHash; ///< fnv1a(trajectoryCsvString(result))
    size_t trajectorySamples;
    uint64_t collisions;
    double yawDeg = 20.0;
};

// Regenerate with ROSE_REGEN_GOLDEN=1 (see file header).
constexpr Golden kGolden[] = {
    {"A", 0x2b24ad514f06c3cbULL, 1000, 0},
    {"B", 0x02771540364e358fULL, 1000, 0},
    {"C", 0x0e337585f9a29f6aULL, 1000, 27},
};

constexpr Golden kSShapeGolden[] = {
    {"A", 0x8e54b4a4be10d9a0ULL, 2879, 1, -20.0},
    {"A", 0x59484fff89691f2eULL, 2849, 0, 0.0},
    {"A", 0x1430b1f1cc5affecULL, 2847, 0, 20.0},
    {"B", 0x0f4d52d3fb7c1106ULL, 2893, 1, -20.0},
    {"B", 0x10c5c5409053463aULL, 2854, 0, 0.0},
    {"B", 0x6fe3f231caf51ccaULL, 2854, 0, 20.0},
    {"C", 0xdd586b6ebb749adbULL, 3000, 51, -20.0},
    {"C", 0xbf3de3ce0eeaadf9ULL, 3000, 53, 0.0},
    {"C", 0x91c769f545ee8f07ULL, 3000, 25, 20.0},
};

/** Run each golden mission and check (or, under ROSE_REGEN_GOLDEN,
 *  print) its trajectory hash. */
template <size_t N>
void
checkGoldens(const char *table, const std::string &world,
             double maxSimSeconds, const Golden (&goldens)[N])
{
    const bool regen = std::getenv("ROSE_REGEN_GOLDEN") != nullptr;
    if (regen)
        std::printf("// Regenerated goldens — paste over %s:\n", table);

    for (const Golden &g : goldens) {
        SCOPED_TRACE(world + " config " + g.socName + " yaw " +
                     std::to_string(g.yawDeg));
        core::MissionResult r = core::runMission(
            canonicalSpec(world, g.socName, g.yawDeg, maxSimSeconds));
        std::string csv = core::trajectoryCsvString(r);
        uint64_t hash = fnv1a(csv);

        if (regen) {
            std::printf("    {\"%s\", 0x%016llxULL, %zu, %llu, %.1f},\n",
                        g.socName, (unsigned long long)hash,
                        r.trajectory.size(),
                        (unsigned long long)r.collisions, g.yawDeg);
            continue;
        }

        // Coarse goldens first: when these differ the drift is
        // behavioral (physics/control), not just numeric formatting.
        EXPECT_EQ(r.trajectory.size(), g.trajectorySamples);
        EXPECT_EQ(r.collisions, g.collisions);

        char actual[32];
        std::snprintf(actual, sizeof(actual), "0x%016llx",
                      (unsigned long long)hash);
        EXPECT_EQ(hash, g.trajectoryHash)
            << "trajectory CSV hash drifted (actual " << actual
            << "); if the change is intentional, regenerate with "
               "ROSE_REGEN_GOLDEN=1";
    }

    if (regen)
        FAIL() << "ROSE_REGEN_GOLDEN set: goldens printed, not checked";
}

} // namespace

TEST(GoldenTrace, CanonicalTunnelMissions)
{
    checkGoldens("kGolden", "tunnel", 10.0, kGolden);
}

TEST(GoldenTrace, CanonicalSShapeMissions)
{
    // The s-shape path is the one that exercises the curved-wall ray
    // march and the full template-bank pose fit on every frame.
    checkGoldens("kSShapeGolden", "s-shape", 30.0, kSShapeGolden);
}

TEST(GoldenTrace, HashPrimitivesAreStable)
{
    // The golden hashes are only as durable as the hash itself: pin
    // FNV-1a against its published test vectors.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(GoldenTrace, CsvStringMatchesFileOutput)
{
    // The hashed string form and the file writer must never diverge —
    // the goldens guard the same bytes the bench CSVs contain.
    core::MissionSpec spec = canonicalSpec("tunnel", "A", 20.0, 2.0);
    core::MissionResult r = core::runMission(spec);

    std::string path = ::testing::TempDir() + "golden_traj.csv";
    core::writeTrajectoryCsv(path, r);
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string fromFile;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        fromFile.append(buf, n);
    std::fclose(f);
    std::remove(path.c_str());

    EXPECT_EQ(fromFile, core::trajectoryCsvString(r));
}
