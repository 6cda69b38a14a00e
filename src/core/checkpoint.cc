#include "checkpoint.hh"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/cosim.hh"
#include "util/serde.hh"

namespace rose::core {

namespace {

constexpr char kMagic[8] = {'R', 'O', 'S', 'E', 'C', 'K', 'P', 'T'};

} // namespace

uint64_t
stateHashOf(const std::vector<uint8_t> &bytes)
{
    return fnv1a(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), bytes.size()));
}

uint64_t
configFingerprint(const CosimConfig &cfg)
{
    // Serialize the determinism-relevant fields through the same
    // little-endian writer the checkpoint uses, then hash the bytes.
    // Fault injection, transport kind, maxSimSeconds, the sync
    // deadline, and the sensor timeout (defaulted from fault config)
    // are deliberately excluded: the supervisor mutates those between
    // capture and restore.
    StateWriter w;
    w.str(cfg.env.worldName);
    w.str(cfg.env.vehicleName);
    w.f64(cfg.env.frameHz);
    w.u32(uint32_t(cfg.env.physicsSubsteps));
    w.u64(cfg.env.seed);
    w.f64(cfg.env.initialPosition.x);
    w.f64(cfg.env.initialPosition.y);
    w.f64(cfg.env.initialPosition.z);
    w.f64(cfg.env.initialYawDeg);
    w.f64(cfg.env.cruiseAltitude);
    w.u32(uint32_t(cfg.env.obstacles.size()));
    w.f64(cfg.env.turbulenceForceStd);

    w.str(cfg.soc.name);
    w.boolean(cfg.soc.hasGemmini);
    w.f64(cfg.soc.clockHz);

    w.u64(cfg.sync.cyclesPerSync);
    w.f64(cfg.sync.clocks.socClockHz);
    w.f64(cfg.sync.clocks.envFrameHz);

    w.u8(uint8_t(cfg.app.mode));
    w.u32(uint32_t(cfg.app.modelDepth));
    w.u32(uint32_t(cfg.app.smallModelDepth));
    w.u64(cfg.app.seed);
    w.f64(cfg.app.policy.forwardVelocity);
    w.f64(cfg.app.policy.betaLateral);
    w.f64(cfg.app.policy.betaYaw);
    w.boolean(cfg.app.policy.argmaxPolicy);
    w.boolean(cfg.app.degraded.enabled);

    w.boolean(cfg.background.enabled);
    w.u64(cfg.samplePeriods);

    return stateHashOf(w.data());
}

const Checkpoint &
CheckpointRing::latest() const
{
    if (ring_.empty())
        throw CheckpointError("checkpoint ring is empty");
    return ring_.back();
}

const Checkpoint &
CheckpointRing::oldest() const
{
    if (ring_.empty())
        throw CheckpointError("checkpoint ring is empty");
    return ring_.front();
}

void
writeCheckpointFile(const std::string &path, const Checkpoint &ck)
{
    StateWriter w;
    w.u32(ck.version);
    w.u64(ck.period);
    w.f64(ck.simTime);
    w.u64(ck.configFingerprint);
    w.u64(ck.stateHash);
    w.u32(uint32_t(ck.state.size()));
    w.bytes(ck.state.data(), ck.state.size());

    // Write-aside + rename: the file is replaced atomically, so a
    // crash mid-write can never tear the checkpoint — the previous
    // good snapshot survives until the new one is fully on disk
    // (rosed's per-job crash recovery warm-restores from this file).
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            throw CheckpointError(
                "cannot open checkpoint file for write: " + tmp);
        f.write(kMagic, sizeof(kMagic));
        f.write(reinterpret_cast<const char *>(w.data().data()),
                std::streamsize(w.size()));
        if (!f)
            throw CheckpointError("short write to checkpoint file: " +
                                  tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw CheckpointError("cannot move checkpoint into place: " +
                              path);
    }
}

Checkpoint
readCheckpointFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw CheckpointError("cannot open checkpoint file: " + path);

    char magic[sizeof(kMagic)];
    f.read(magic, sizeof(magic));
    if (!f || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        throw CheckpointError("bad checkpoint magic in " + path);

    std::vector<uint8_t> rest(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    try {
        StateReader r(rest);
        Checkpoint ck;
        ck.version = r.u32();
        if (ck.version != Checkpoint::kVersion)
            throw CheckpointError(
                "unsupported checkpoint version " +
                std::to_string(ck.version) + " in " + path +
                " (expected " + std::to_string(Checkpoint::kVersion) +
                ")");
        ck.period = r.u64();
        ck.simTime = r.f64();
        ck.configFingerprint = r.u64();
        ck.stateHash = r.u64();
        // Bound the length by the bytes actually present before
        // allocating: a corrupt length must not reserve gigabytes.
        uint32_t n = r.u32();
        if (n > r.remaining())
            throw SerdeError("state length " + std::to_string(n) +
                             " exceeds the " +
                             std::to_string(r.remaining()) +
                             " bytes left in the file");
        ck.state.resize(n);
        if (n)
            r.bytes(ck.state.data(), n);
        if (stateHashOf(ck.state) != ck.stateHash)
            throw CheckpointError(
                "checkpoint state hash mismatch in " + path +
                " (file corrupt or truncated)");
        return ck;
    } catch (const SerdeError &e) {
        throw CheckpointError("truncated checkpoint file " + path + ": " +
                              e.what());
    }
}

} // namespace rose::core
