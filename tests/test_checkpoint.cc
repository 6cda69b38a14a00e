/**
 * @file
 * Tests for the resilience layer's state machinery: the serde
 * primitives, checkpoint capture/restore (including bit-identical
 * golden resume of the canonical missions), the disk format, the
 * in-memory ring, and the fail-fast physics divergence guard.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/supervisor.hh"
#include "env/envsim.hh"
#include "env/vehicle.hh"
#include "util/hash.hh"
#include "util/rng.hh"
#include "util/serde.hh"

using namespace rose;
using namespace rose::core;

// ------------------------------------------------------------------ serde

TEST(Serde, RoundTripsEveryType)
{
    StateWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFULL);
    w.f64(-1.5e-300);
    w.f32(3.25f);
    w.boolean(true);
    w.boolean(false);
    w.str("rosé");
    w.str("");

    StateReader r(w.data());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.f64(), -1.5e-300);
    EXPECT_EQ(r.f32(), 3.25f);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "rosé");
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serde, FloatBitPatternsSurviveExactly)
{
    // Checkpoint determinism rests on doubles round-tripping as bit
    // patterns, including the values ordinary text formatting mangles.
    const double values[] = {
        0.0, -0.0, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
    };
    StateWriter w;
    for (double v : values)
        w.f64(v);
    StateReader r(w.data());
    for (double v : values) {
        double got = r.f64();
        uint64_t vb, gb;
        std::memcpy(&vb, &v, 8);
        std::memcpy(&gb, &got, 8);
        EXPECT_EQ(vb, gb);
    }
}

TEST(Serde, UnderrunThrows)
{
    StateWriter w;
    w.u32(7);
    StateReader r(w.data());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u8(), SerdeError);

    StateReader r2(w.data());
    EXPECT_THROW(r2.u64(), SerdeError);

    // A string whose declared length exceeds the buffer must throw,
    // not read out of bounds.
    StateWriter w3;
    w3.u32(1000);
    StateReader r3(w3.data());
    EXPECT_THROW(r3.str(), SerdeError);
}

TEST(Serde, SkipStepsOverBytes)
{
    StateWriter w;
    w.u32(1);
    w.u32(2);
    w.u32(3);
    StateReader r(w.data());
    r.skip(4);
    EXPECT_EQ(r.u32(), 2u);
    EXPECT_THROW(r.skip(100), SerdeError);
}

// ----------------------------------------------------------------- ring

TEST(CheckpointRing, EvictsOldestAtCapacity)
{
    CheckpointRing ring(2);
    EXPECT_TRUE(ring.empty());
    EXPECT_THROW(ring.latest(), CheckpointError);
    EXPECT_THROW(ring.oldest(), CheckpointError);

    for (uint64_t p = 1; p <= 4; ++p) {
        Checkpoint ck;
        ck.period = p;
        ring.push(ck);
    }
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.oldest().period, 3u);
    EXPECT_EQ(ring.latest().period, 4u);

    EXPECT_TRUE(ring.dropLatest());
    EXPECT_EQ(ring.latest().period, 3u);
    EXPECT_TRUE(ring.dropLatest());
    EXPECT_FALSE(ring.dropLatest());
    EXPECT_TRUE(ring.empty());
}

// ------------------------------------------------------- capture/restore

namespace {

/** The canonical golden mission (mirrors tests/test_golden.cc). */
core::MissionSpec
canonicalSpec(const std::string &soc_name)
{
    core::MissionSpec spec;
    spec.world = "tunnel";
    spec.socName = soc_name;
    spec.modelDepth = 14;
    spec.velocity = 3.0;
    spec.initialYawDeg = 20.0;
    spec.seed = 1;
    spec.maxSimSeconds = 10.0;
    return spec;
}

struct Golden
{
    const char *socName;
    uint64_t trajectoryHash;
    size_t trajectorySamples;
    uint64_t collisions;
};

// Keep in sync with tests/test_golden.cc (regenerate there with
// ROSE_REGEN_GOLDEN=1). Resume-from-checkpoint must land on these
// exact hashes — that is the bit-identity contract.
constexpr Golden kGolden[] = {
    {"A", 0x2b24ad514f06c3cbULL, 1000, 0},
    {"B", 0x02771540364e358fULL, 1000, 0},
    {"C", 0x0e337585f9a29f6aULL, 1000, 27},
};

} // namespace

TEST(Checkpoint, CaptureIsSideEffectFree)
{
    // Taking a checkpoint must not perturb the simulation: two
    // interleaved captures of the same instant are byte-identical.
    CosimConfig cfg = canonicalSpec("A").toConfig();
    cfg.maxSimSeconds = 2.0;
    CoSimulation sim(cfg);
    for (int i = 0; i < 25; ++i)
        sim.stepPeriod();

    Checkpoint a = sim.checkpoint();
    Checkpoint b = sim.checkpoint();
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.period, 25u);
}

TEST(Checkpoint, RestoreRoundTripsToIdenticalState)
{
    CosimConfig cfg = canonicalSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 50; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    // Restore into a *fresh* instance and re-capture: the blob must be
    // byte-identical, i.e. save/restore are exact inverses.
    CoSimulation sim2(cfg);
    sim2.restore(ck);
    Checkpoint ck2 = sim2.checkpoint();
    EXPECT_EQ(ck.state, ck2.state);
    EXPECT_EQ(ck2.period, 50u);
    EXPECT_DOUBLE_EQ(ck2.simTime, ck.simTime);
}

TEST(Checkpoint, ResumeMatchesGoldenTraces)
{
    // The headline contract: run halfway, checkpoint, restore into a
    // fresh co-simulation, finish — and land on the same checked-in
    // FNV-1a trajectory hash as the uninterrupted golden run, for all
    // three Table 2 configs.
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(std::string("config ") + g.socName);
        CosimConfig cfg = canonicalSpec(g.socName).toConfig();

        CoSimulation first(cfg);
        while (first.environment().simTime() < 5.0)
            first.stepPeriod();
        Checkpoint ck = first.checkpoint();

        CoSimulation resumed(cfg);
        resumed.restore(ck);
        MissionResult r = resumed.run();

        EXPECT_EQ(r.trajectory.size(), g.trajectorySamples);
        EXPECT_EQ(r.collisions, g.collisions);
        EXPECT_EQ(fnv1a(core::trajectoryCsvString(r)), g.trajectoryHash)
            << "resumed trajectory diverged from the golden trace";
    }
}

TEST(Checkpoint, RefusesForeignConfig)
{
    CosimConfig cfg = canonicalSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 10; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    CosimConfig other = canonicalSpec("B").toConfig();
    CoSimulation sim2(other);
    EXPECT_THROW(sim2.restore(ck), CheckpointError);

    Checkpoint bad = ck;
    bad.version = 99;
    EXPECT_THROW(sim.restore(bad), CheckpointError);
}

TEST(Checkpoint, FingerprintIgnoresResilienceKnobs)
{
    // The supervisor mutates faults / transport / time limits between
    // capture and restore; the fingerprint must not change with them.
    CosimConfig cfg = canonicalSpec("A").toConfig();
    uint64_t base = configFingerprint(cfg);

    CosimConfig tweaked = cfg;
    tweaked.faults.enabled = true;
    tweaked.faults.dropProb = 0.5;
    tweaked.transport = TransportKind::Tcp;
    tweaked.maxSimSeconds = 99.0;
    tweaked.sync.syncDeadlineMs = 1;
    tweaked.app.sensorTimeoutCycles = 123;
    EXPECT_EQ(configFingerprint(tweaked), base);

    CosimConfig different = cfg;
    different.env.seed = 2;
    EXPECT_NE(configFingerprint(different), base);
}

TEST(Checkpoint, TcpTransportIsNotCheckpointable)
{
    CosimConfig cfg = canonicalSpec("A").toConfig();
    cfg.transport = TransportKind::Tcp;
    CoSimulation sim(cfg);
    EXPECT_FALSE(sim.checkpointable());
    EXPECT_THROW(sim.checkpoint(), CheckpointError);
}

TEST(Checkpoint, FaultInjectorStateIsCaptured)
{
    // A faulty run checkpoints the injector (its RNG position and
    // held packets); restore + resume must replay identically.
    core::MissionSpec spec = canonicalSpec("A");
    spec.maxSimSeconds = 4.0;
    spec.faults.enabled = true;
    spec.faults.dropProb = 0.05;
    spec.faults.delayProb = 0.05;
    CosimConfig cfg = spec.toConfig();

    CoSimulation first(cfg);
    while (first.environment().simTime() < 2.0)
        first.stepPeriod();
    Checkpoint ck = first.checkpoint();
    MissionResult rest = first.run();

    CoSimulation resumed(cfg);
    resumed.restore(ck);
    MissionResult rest2 = resumed.run();

    EXPECT_EQ(core::trajectoryCsvString(rest),
              core::trajectoryCsvString(rest2));
    EXPECT_EQ(rest.inferences, rest2.inferences);
}

namespace {

/** Offset and length of each section body of a checkpoint state blob
 *  (u8 tag, u32 length, body), keyed by tag. */
std::vector<std::pair<size_t, size_t>>
sectionBodies(const std::vector<uint8_t> &state, std::vector<uint8_t> &tags)
{
    std::vector<std::pair<size_t, size_t>> bodies;
    StateReader r(state);
    while (r.remaining() > 0) {
        tags.push_back(r.u8());
        uint32_t len = r.u32();
        bodies.emplace_back(r.pos(), len);
        r.skip(len);
    }
    return bodies;
}

/** Restore @p ck into a fresh mission: success or a SerdeError only. */
void
expectRestoreOrSerdeError(const CosimConfig &cfg, const Checkpoint &ck)
{
    CoSimulation target(cfg);
    try {
        target.restore(ck);
    } catch (const SerdeError &) {
    } catch (const std::exception &e) {
        ADD_FAILURE() << "restore threw a non-serde error: " << e.what();
    }
}

} // namespace

TEST(Checkpoint, RestoreRejectsOversizedSampleCount)
{
    // A Cosim section claiming 2^32-1 trajectory samples
    // must be a SerdeError from the count check, not a ~380 GB
    // reserve before the underrun is noticed.
    CosimConfig cfg = canonicalSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 30; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();
    std::vector<uint8_t> tags;
    auto bodies = sectionBodies(ck.state, tags);
    ASSERT_EQ(tags.front(), uint8_t(CkptSection::Cosim));
    // The sample count follows 8 u64/f64 accumulators.
    std::memset(ck.state.data() + bodies.front().first + 64, 0xff, 4);
    CoSimulation target(cfg);
    EXPECT_THROW(target.restore(ck), SerdeError);
}

TEST(Checkpoint, RestoreFuzzOfRehashedSectionsEndsCleanly)
{
    // Seeded bit flips inside one section body. In-memory restores
    // check no state hash (only the disk format carries one), so the
    // bytes reach the section restorers. Each restore must succeed or
    // throw SerdeError — no crash, no unbounded allocation (the ASan
    // preset aborts on an oversized allocation).
    core::MissionSpec spec = canonicalSpec("A");
    spec.faults.enabled = true;
    spec.faults.delayProb = 0.2;
    spec.faults.reorderProb = 0.2;
    CosimConfig cfg = spec.toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 60; ++i)
        sim.stepPeriod();
    const Checkpoint valid = sim.checkpoint();
    std::vector<uint8_t> tags;
    const auto bodies = sectionBodies(valid.state, tags);
    ASSERT_GE(bodies.size(), 8u);
    for (const auto &[at, len] : bodies)
        ASSERT_GT(len, 0u);

    for (uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x94d049bb133111ebULL);
        size_t si = rng.uniformInt(bodies.size());
        auto [at, len] = bodies[si];
        SCOPED_TRACE("section tag " + std::to_string(tags[si]));
        Checkpoint ck = valid;
        for (uint64_t f = 1 + rng.uniformInt(4); f > 0; --f) {
            size_t i = at + rng.uniformInt(len);
            // Whole bytes on odd seeds: corrupt lengths and counts
            // outright, not one bit at a time.
            ck.state[i] = seed % 2 ? uint8_t(rng.uniformInt(256))
                                   : ck.state[i] ^
                                         uint8_t(1u << rng.uniformInt(8));
        }
        expectRestoreOrSerdeError(cfg, ck);
    }
}

// ------------------------------------------------------------ disk format

TEST(CheckpointFile, RoundTripsAndValidates)
{
    CosimConfig cfg = canonicalSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 20; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    std::string path = ::testing::TempDir() + "rose_ckpt_test.bin";
    writeCheckpointFile(path, ck);
    Checkpoint back = readCheckpointFile(path);
    EXPECT_EQ(back.version, ck.version);
    EXPECT_EQ(back.period, ck.period);
    EXPECT_EQ(back.configFingerprint, ck.configFingerprint);
    EXPECT_EQ(back.state, ck.state);

    // And it actually restores.
    CoSimulation sim2(cfg);
    sim2.restore(back);
    EXPECT_EQ(sim2.periods(), 20u);

    // The file's state hash is checked on load: one flipped state
    // byte (the blob starts at offset 48) is rejected.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        char c;
        f.seekg(48 + std::streamoff(ck.state.size() / 2));
        f.get(c);
        f.seekp(48 + std::streamoff(ck.state.size() / 2));
        f.put(char(c ^ 0x01));
    }
    EXPECT_THROW(readCheckpointFile(path), CheckpointError);
    std::remove(path.c_str());
}

TEST(CheckpointFile, DetectsCorruptionAndTruncation)
{
    CosimConfig cfg = canonicalSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 5; ++i)
        sim.stepPeriod();
    Checkpoint ck = sim.checkpoint();

    std::string path = ::testing::TempDir() + "rose_ckpt_corrupt.bin";
    writeCheckpointFile(path, ck);

    // Flip one byte in the middle of the state blob.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(64);
        char c;
        f.seekg(64);
        f.get(c);
        f.seekp(64);
        f.put(char(c ^ 0x40));
    }
    EXPECT_THROW(readCheckpointFile(path), CheckpointError);

    // Truncate the file.
    writeCheckpointFile(path, ck);
    {
        std::ifstream in(path, std::ios::binary);
        std::vector<char> all((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        in.close();
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(all.data(), std::streamsize(all.size() / 2));
    }
    EXPECT_THROW(readCheckpointFile(path), CheckpointError);

    // Bad magic.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "NOTACKPTxxxxxxxxxxxxxxxx";
    }
    EXPECT_THROW(readCheckpointFile(path), CheckpointError);

    EXPECT_THROW(readCheckpointFile(path + ".does-not-exist"),
                 CheckpointError);
    std::remove(path.c_str());
}

TEST(CheckpointFile, DecodeFuzzEndsInCleanError)
{
    // Seeded random bytes, truncations and bit flips of a valid
    // checkpoint file. File layout: magic[0,8) version[8,12)
    // period[12,20) simTime[20,28) fingerprint[28,36) hash[36,44)
    // length[44,48) state[48,...). Only period, simTime and the
    // fingerprint are outside the integrity checks (restore vets the
    // fingerprint), so a flip anywhere else must be a CheckpointError;
    // so must every truncation and every random file.
    CosimConfig cfg = canonicalSpec("A").toConfig();
    CoSimulation sim(cfg);
    for (int i = 0; i < 5; ++i)
        sim.stepPeriod();
    const Checkpoint ck = sim.checkpoint();
    const std::string path = ::testing::TempDir() + "rose_ckpt_fuzz.bin";
    writeCheckpointFile(path, ck);
    std::vector<uint8_t> valid;
    {
        std::ifstream in(path, std::ios::binary);
        valid.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(valid.size(), 48 + ck.state.size());

    auto decode = [&path](const std::vector<uint8_t> &bytes) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(reinterpret_cast<const char *>(bytes.data()),
                      std::streamsize(bytes.size()));
        }
        return readCheckpointFile(path);
    };

    for (uint64_t seed = 1; seed <= 60; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0xd1342543de82ef95ULL);

        // Random bytes, behind a valid magic + version on odd seeds,
        // with a length field that sometimes claims far more state
        // than the file holds.
        std::vector<uint8_t> noise;
        if (seed % 2)
            noise.assign(valid.begin(), valid.begin() + 12);
        for (uint64_t n = rng.uniformInt(96); n > 0; --n)
            noise.push_back(uint8_t(rng.uniformInt(256)));
        if (noise.size() >= 48 && seed % 4 == 1)
            std::memset(noise.data() + 44, 0xff, 4);
        EXPECT_THROW(decode(noise), CheckpointError);

        // Truncation.
        std::vector<uint8_t> cut(
            valid.begin(), valid.begin() + rng.uniformInt(valid.size()));
        EXPECT_THROW(decode(cut), CheckpointError);

        // 1-4 bit flips at distinct bytes; every fourth seed keeps
        // them inside the unchecked header fields.
        std::vector<uint8_t> flipped = valid;
        std::set<size_t> at;
        for (uint64_t f = 1 + rng.uniformInt(4); f > 0; --f)
            at.insert(seed % 4 == 0 ? 12 + rng.uniformInt(24)
                                    : rng.uniformInt(valid.size()));
        bool checked = false;
        for (size_t i : at) {
            flipped[i] ^= uint8_t(1u << rng.uniformInt(8));
            checked |= i < 12 || i >= 36;
        }
        if (checked) {
            EXPECT_THROW(decode(flipped), CheckpointError);
            continue;
        }
        Checkpoint back = decode(flipped);
        EXPECT_EQ(back.state, ck.state);
        CoSimulation target(cfg);
        if (back.configFingerprint == ck.configFingerprint) {
            target.restore(back);
            EXPECT_EQ(target.periods(), 5u);
        } else {
            EXPECT_THROW(target.restore(back), CheckpointError);
        }
    }
    std::remove(path.c_str());
}

// ------------------------------------------------------ divergence guard

TEST(DivergenceGuard, NonFinitePhysicsStateFailsFast)
{
    env::EnvConfig cfg;
    env::EnvSim sim(cfg);
    sim.stepFrames(5);

    // Corrupt the vehicle state with a NaN position through the serde
    // path (position is the leading field of the drone's state blob).
    env::VehicleModel &vehicle = sim.mutableVehicle();
    StateWriter w;
    vehicle.saveState(w);
    std::vector<uint8_t> bytes = w.take();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(bytes.data(), &nan, sizeof(nan));
    StateReader r(bytes);
    vehicle.restoreState(r);

    try {
        sim.stepFrames(1);
        FAIL() << "expected env::DivergenceError";
    } catch (const env::DivergenceError &e) {
        // The diagnostic dump names the offending state.
        EXPECT_NE(std::string(e.what()).find("non-finite"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("pos="), std::string::npos);
    }
}
