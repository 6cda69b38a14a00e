/**
 * @file
 * Versioned co-simulation checkpoints (the resilience layer's unit of
 * recovery).
 *
 * A Checkpoint is a self-describing snapshot of everything that moves
 * in a CoSimulation: environment 6-DOF state and sensor RNG streams,
 * SoC cycle counters and in-flight workload actions, synchronizer
 * period bookkeeping, bridge FIFO contents, and (when enabled) fault
 * injector and background-tenant state. Immutable artifacts — DNN
 * models, worlds, layer schedules — are rebuilt from the config on
 * restore, never serialized.
 *
 * The state blob is a sequence of tagged sections (u8 tag + u32 byte
 * length + payload) so a restore can skip sections whose component is
 * absent in the target configuration — the supervisor uses this to
 * restore a faults-enabled snapshot into a faults-disabled retry.
 *
 * Restoring a checkpoint and resuming is bit-identical to an
 * uninterrupted run: the golden-trace tests resume the canonical
 * missions from mid-flight checkpoints and require the PR-2 FNV-1a
 * trajectory hashes to match exactly.
 */

#ifndef ROSE_CORE_CHECKPOINT_HH
#define ROSE_CORE_CHECKPOINT_HH

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

namespace rose::core {

struct CosimConfig;

/** Thrown on checkpoint format/validation failures (bad magic, version
 *  mismatch, hash mismatch, config mismatch, empty ring). */
class CheckpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Tags of the sections inside a checkpoint's state blob. */
enum class CkptSection : uint8_t
{
    Cosim = 1,       ///< period counter, metric accumulators, trajectory
    Env = 2,         ///< vehicle 6-DOF, sensors, collision, env RNG
    Sync = 3,        ///< synchronizer counters and period bookkeeping
    Soc = 4,         ///< cycle counters, pending action, halt flag
    Bridge = 5,      ///< FIFO contents, staging buffer, cycle budget
    App = 6,         ///< control FSM, buffered sensors, telemetry
    TransportSync = 7,   ///< sync-side in-process endpoint queues
    TransportBridge = 8, ///< bridge-side in-process endpoint queues
    Faults = 9,      ///< fault injector (optional; skipped if disabled)
    Background = 10, ///< co-tenant scheduler (optional)
};

/** One snapshot of a CoSimulation. */
struct Checkpoint
{
    /** Bump on any layout change; restores reject other versions. */
    static constexpr uint32_t kVersion = 1;

    uint32_t version = kVersion;
    /** Sync periods executed when the snapshot was taken. */
    uint64_t period = 0;
    /** Environment time at capture [s]. */
    double simTime = 0.0;
    /** Fingerprint of the determinism-relevant config fields; restore
     *  refuses a checkpoint taken under a different mission. */
    uint64_t configFingerprint = 0;
    /** Tagged-section state blob. */
    std::vector<uint8_t> state;
};

/**
 * Fingerprint of the config fields that determine mission evolution.
 * Excludes knobs that may legitimately differ between capture and
 * restore: fault injection, transport kind, time limit, sync deadline,
 * and the sensor-timeout default derived from fault injection.
 */
uint64_t configFingerprint(const CosimConfig &cfg);

/**
 * Fixed-capacity in-memory ring of recent checkpoints. push() evicts
 * the oldest once full; the supervisor restores from latest() and
 * falls back to older snapshots with dropLatest().
 */
class CheckpointRing
{
  public:
    explicit CheckpointRing(size_t capacity) : capacity_(capacity) {}

    void
    push(Checkpoint ck)
    {
        ring_.push_back(std::move(ck));
        while (ring_.size() > capacity_)
            ring_.pop_front();
    }

    bool empty() const { return ring_.empty(); }
    size_t size() const { return ring_.size(); }
    size_t capacity() const { return capacity_; }

    /** Most recent snapshot; throws CheckpointError when empty. */
    const Checkpoint &latest() const;

    /** Oldest retained snapshot; throws CheckpointError when empty. */
    const Checkpoint &oldest() const;

    /** Drop the newest snapshot (e.g. after it failed to restore).
     *  @return true if a snapshot was dropped. */
    bool
    dropLatest()
    {
        if (ring_.empty())
            return false;
        ring_.pop_back();
        return true;
    }

    void clear() { ring_.clear(); }

  private:
    size_t capacity_;
    std::deque<Checkpoint> ring_;
};

/**
 * Persist a checkpoint to disk ("ROSECKPT" magic + header + FNV-1a of
 * the state blob + blob). Throws CheckpointError on I/O failure.
 */
void writeCheckpointFile(const std::string &path, const Checkpoint &ck);

/**
 * Load and validate a checkpoint file: magic, version, and the FNV-1a
 * state hash must all check out. Throws CheckpointError otherwise.
 */
Checkpoint readCheckpointFile(const std::string &path);

} // namespace rose::core

#endif // ROSE_CORE_CHECKPOINT_HH
