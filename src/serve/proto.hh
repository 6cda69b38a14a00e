/**
 * @file
 * Wire protocol of the mission-service daemon (`rosed`).
 *
 * RoSÉ's evaluations are thousands of independent co-simulated
 * missions; the serve layer turns the in-process library into a
 * long-lived service multiple clients can submit missions to. This
 * header defines the request/response message set.
 *
 * Framing is the bridge's validated frame decoder
 * (bridge/framing.hh): a 1-byte type + 4-byte little-endian length
 * header, checked before any payload allocation, and a poisoned
 * buffer once framing is lost. Only the payload bound differs.
 *
 * Every payload is a struct that names its MsgType (`kType`) and
 * lists its fields once (`fields`); encode() and decode() walk that
 * list with the util/serde.hh codec, so each field, bound and enum
 * range is spelled out in exactly one place.
 *
 * Request/response pairing: every request produces exactly one
 * *logical* response on the same connection, in request order — but
 * two response kinds span multiple frames or arrive unsolicited:
 *
 *  - A FetchResult of a terminal job answers with a *result stream*:
 *    zero or more ResultChunk frames (ordered, contiguous segments of
 *    the binary trajectory records) closed by exactly one ResultEnd
 *    frame that carries the scalar result, the terminal JobState, and
 *    the FNV-1a hash of the payload bytes so the client can verify
 *    reassembly bit-for-bit. No frame for a *different request on the
 *    same connection* is interleaved inside a stream. FetchResult
 *    carries a *resume byte offset*: a client whose connection died
 *    mid-stream reconnects and asks for the payload from where its
 *    assembler stopped. In a resumed stream, chunk seq restarts at 0
 *    and ResultEnd's chunkCount counts only the chunks of *this*
 *    stream, while payloadBytes is always the total payload size.
 *
 *  - Progress frames are server-push events for *running* jobs owned
 *    by the connection. They may arrive between any two logical
 *    responses and between the frames of another job's result stream,
 *    but never inside the result stream *of their own job* (a job
 *    only streams after it stopped running).
 *
 * Responses have the high bit of the type byte set.
 */

#ifndef ROSE_SERVE_PROTO_HH
#define ROSE_SERVE_PROTO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bridge/framing.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "util/serde.hh"

namespace rose::serve {

using bridge::FrameStatus;

/**
 * A peer broke the protocol's stream state: a result stream out of
 * order, short of its declared totals or failing its hash, a reply of
 * the wrong type, or a fetch of an unknown or cancelled job.
 * Malformed bytes are a plain SerdeError; ProtocolError derives from
 * it, so one catch covers a bad peer.
 */
class ProtocolError : public SerdeError
{
  public:
    explicit ProtocolError(const std::string &what) : SerdeError(what) {}
};

/**
 * Serve protocol version. Version 2 replaced the single-frame
 * ResultReply (wire type 0x84, now invalid) with chunked result
 * streams and Progress push events. Version 3 added the idempotency
 * key, resume offsets and the hash-verified AckResult. Version 4 put
 * the payload hash on ResultEnd. Version 5 has a single trajectory
 * encoding, the binary records: FetchResult and ResultEnd lost their
 * encoding byte, ResultEnd carries the canonical-CSV hash among the
 * result scalars, and AckResult carries the payload hash only.
 */
constexpr uint8_t kServeProtocolVersion = 5;

/**
 * Version byte leading the SubmitMission payload (and the journal's
 * copy of it). Version 2 added the idempotency key; only version 2
 * decodes.
 */
constexpr uint8_t kSpecCodecVersion = 2;

/** Bound on a SubmitMission idempotency key (empty = none). */
constexpr size_t kMaxIdempotencyKeyBytes = 256;

/** Bound on names, reasons and error texts in specs and replies. */
constexpr size_t kMaxStringBytes = 4096;

/** Wire identifiers. Requests 0x01..0x7f, responses 0x81..0xff. */
enum class MsgType : uint8_t
{
    // --- requests (client -> server) ---
    SubmitMission = 0x01, ///< enqueue a MissionSpec
    QueryStatus = 0x02,   ///< job lifecycle state
    FetchResult = 0x03,   ///< stream a finished job's result
    CancelMission = 0x04, ///< dequeue a not-yet-running job
    ServerStats = 0x05,   ///< admission / load-shedding counters
    Shutdown = 0x06,      ///< stop the daemon (drain or immediate)
    AckResult = 0x07,     ///< hash-verified release of a fetched result

    // --- responses (server -> client) ---
    SubmitOk = 0x81,     ///< job accepted: id + queue position
    SubmitRejected = 0x82, ///< admission control shed the request
    StatusReply = 0x83,
    // 0x84 was the v1 single-frame ResultReply; retired with the
    // protocol-2 stream frames below and invalid on the wire now.
    CancelReply = 0x85,
    StatsReply = 0x86,
    ShutdownReply = 0x87,
    ResultChunk = 0x88, ///< ordered segment of a result stream
    ResultEnd = 0x89,   ///< closes a result stream: scalars + hash
    Progress = 0x8a,    ///< server-push progress of a running job
    AckReply = 0x8b,    ///< outcome of an AckResult release
    ErrorReply = 0x8f, ///< malformed-but-framed request, unknown job
};

/** True when the raw wire byte names a known MsgType. */
bool isValidMsgType(uint8_t raw);

/** True for the request (client -> server) half of the message set. */
bool isRequest(MsgType t);

/** Human-readable message-type name for logs. */
const char *msgTypeName(MsgType t);

/**
 * Upper bound on a serve frame's payload. Trajectories of arbitrary
 * size travel as ResultChunk frames (each at most
 * kMaxResultChunkBytes), so no single frame ever needs to grow with
 * mission length; this bound only has to cover specs, stats, and the
 * scalar stream frames with a wide margin.
 */
constexpr size_t kMaxServePayloadBytes = 8 * 1024 * 1024;

/**
 * Hard bound on one ResultChunk's segment. Decoders reject larger
 * chunks before allocating; servers slice streams at
 * ServerConfig::resultChunkBytes (default below) which is clamped to
 * this.
 */
constexpr size_t kMaxResultChunkBytes = 1024 * 1024;

/** Default server-side stream slice size. */
constexpr size_t kDefaultResultChunkBytes = 256 * 1024;

/**
 * Reassembly guard: a ResultStreamAssembler refuses to accumulate
 * more than this many payload bytes (a corrupt or hostile stream can
 * not drive an unbounded client allocation). 1 GiB is ~60 hours of
 * mission at the default sample cadence — far past maxSimSeconds'
 * admission ceiling.
 */
constexpr size_t kMaxAssembledTrajectoryBytes = 1ull << 30;

/** One serve-protocol message: type + raw payload bytes. */
struct Message
{
    MsgType type = MsgType::ServerStats;
    std::vector<uint8_t> payload;

    static constexpr size_t kHeaderBytes = bridge::kFrameHeaderBytes;

    // Framing traits (bridge/framing.hh).
    static constexpr size_t kMaxPayload = kMaxServePayloadBytes;
    static constexpr const char *kKind = "serve message";
    static bool validType(uint8_t raw) { return isValidMsgType(raw); }

    size_t wireSize() const { return kHeaderBytes + payload.size(); }
};

/** Receive-side message accumulator (bridge/framing.hh). */
using MessageBuffer = bridge::FrameDecoder<Message>;

/** Encode a payload struct as its message. */
template <class T>
Message
encode(const T &v)
{
    StateWriter w;
    writeFields(w, v);
    return Message{T::kType, w.take()};
}

/**
 * Decode a message as payload struct @p T.
 * @throws ProtocolError when the message has another type;
 * SerdeError when the payload is truncated, carries trailing bytes,
 * or breaks a field's bound or range.
 */
template <class T>
T
decode(const Message &m)
{
    if (m.type != T::kType)
        throw ProtocolError(std::string("expected ") +
                            msgTypeName(T::kType) + ", got " +
                            msgTypeName(m.type));
    StateReader r(m.payload);
    T v;
    readFields(r, v);
    if (r.remaining() != 0)
        throw SerdeError(std::string(msgTypeName(m.type)) + " has " +
                         std::to_string(r.remaining()) +
                         " trailing bytes");
    return v;
}

/** Why admission control refused a submission. */
enum class RejectReason : uint8_t
{
    QueueFull = 1,    ///< bounded queue at capacity (load shed)
    ClientCap = 2,    ///< per-client in-flight cap reached
    ShuttingDown = 3, ///< daemon is draining
    BadRequest = 4,   ///< spec failed validation
};

const char *rejectReasonName(RejectReason r);

/** Job lifecycle as observable by clients. */
enum class JobState : uint8_t
{
    Queued = 1,
    Running = 2,
    Done = 3,      ///< mission ran; result available (any outcome)
    Failed = 4,    ///< execution threw; failure reason available
    Cancelled = 5, ///< dequeued before running
    Unknown = 6,   ///< no such job id
};

const char *jobStateName(JobState s);

/**
 * The trajectory wire encoding. Protocol 5 has one, the binary
 * records below; the enum survives only as ServeClient's API
 * parameter and carries nothing on the wire.
 */
enum class TrajectoryEncoding : uint8_t
{
    Binary = 2, ///< fixed-width records (kTrajectoryBinaryRecordBytes)
};

/**
 * One fixed-width binary trajectory record: the 10 float columns as
 * canonical f32 (7 before `collisions`, 3 command columns after) and
 * `collisions` as u32, little-endian. 44 bytes vs ~80 bytes/sample
 * for the same sample as a CSV row.
 *
 * "Canonical f32" makes the encoding lossless *with respect to the
 * canonical CSV*: each double is first pushed through its 6
 * significant-digit printed form (exactly what CsvWriter emits), and
 * that decimal re-read as f32. An f32 sits within 2^-24 ≈ 6e-8
 * relative of the decimal value, far inside the 5e-7 half-step of
 * the 6-digit decimal grid, so printing the f32 back at precision 6
 * reproduces the original CSV cell exactly: the client renders the
 * canonical CSV (core::trajectoryCsvString) from the decoded samples
 * and its FNV-1a equals the golden hash.
 */
constexpr size_t kTrajectoryBinaryRecordBytes = 44;

/** The canonical-f32 quantizer (exposed for tests). */
float canonicalTrajectoryF32(double v);

/**
 * Encode samples as fixed-width binary records.
 * @throws SerdeError when a sample's collision count exceeds u32.
 * That cannot happen for an admitted spec: maxSimSeconds is at most
 * 3600 s and a mission records at most one collision per physics
 * substep.
 */
std::vector<uint8_t>
encodeTrajectoryBinary(const std::vector<core::TrajectorySample> &t);

/**
 * Decode fixed-width binary records.
 * @throws SerdeError when @p size is not a whole number of records.
 */
std::vector<core::TrajectorySample>
decodeTrajectoryBinary(const uint8_t *data, size_t size);

// --------------------------------------------------------------------
// Payload structs. Each names its MsgType and lists its fields once.

/**
 * A mission result marshalled for the wire. `trajectoryHash` is the
 * FNV-1a of the canonical trajectory CSV (core::trajectoryCsvString,
 * the bytes the golden-trace tests hash); the server renders that CSV
 * once at mission end to compute it and keeps only the binary
 * records. The scalar fields below travel in ResultEnd and in the
 * journal's Terminal record, both through fields().
 */
struct ServedResult
{
    bool completed = false;
    uint8_t status = 0; ///< core::MissionStatus
    std::string failureReason;
    double missionTime = 0.0;
    uint64_t collisions = 0;
    double avgSpeed = 0.0;
    double maxSpeed = 0.0;
    double distanceTravelled = 0.0;
    uint64_t inferences = 0;
    double avgInferenceLatency = 0.0;
    double energyJoules = 0.0;
    double avgPowerWatts = 0.0;
    uint64_t simulatedCycles = 0;
    uint32_t trajectorySamples = 0;
    uint32_t degradedIntervals = 0;
    /** FNV-1a of the canonical trajectory CSV (util/hash.hh). */
    uint64_t trajectoryHash = 0;
    /** Server-side queueing telemetry for this job. */
    double queueWaitMs = 0.0;
    double serviceMs = 0.0;
    /** Decoded samples (client side; the server keeps the records). */
    std::vector<core::TrajectorySample> trajectory;

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        f(s.completed, s.status, bounded(s.failureReason, kMaxStringBytes),
          s.missionTime, s.collisions, s.avgSpeed, s.maxSpeed,
          s.distanceTravelled, s.inferences, s.avgInferenceLatency,
          s.energyJoules, s.avgPowerWatts, s.simulatedCycles,
          s.trajectorySamples, s.degradedIntervals, s.trajectoryHash,
          s.queueWaitMs, s.serviceMs);
    }
};

/**
 * Marshal a core result: the scalars, and the hash of the canonical
 * CSV (rendered here and dropped). The samples travel separately as
 * encodeTrajectoryBinary() records.
 */
ServedResult marshalResult(const core::MissionResult &r);

/** SubmitMission payload: the spec plus an optional idempotency key. */
struct SubmitRequest
{
    static constexpr MsgType kType = MsgType::SubmitMission;
    uint8_t specCodec = kSpecCodecVersion;
    /**
     * Client-chosen retry token. A resubmission carrying a key the
     * server has already journaled answers with the original job id
     * instead of enqueueing a duplicate mission. Empty = none.
     */
    std::string idempotencyKey;
    core::MissionSpec spec;

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        auto &m = s.spec;
        auto &x = s.spec.faults;
        f(ranged(s.specCodec, kSpecCodecVersion, kSpecCodecVersion),
          bounded(s.idempotencyKey, kMaxIdempotencyKeyBytes),
          bounded(m.world, kMaxStringBytes),
          bounded(m.vehicle, kMaxStringBytes),
          bounded(m.socName, kMaxStringBytes), m.modelDepth, m.velocity,
          m.initialYawDeg, m.syncGranularity,
          ranged(m.mode, runtime::RuntimeMode::Static,
                 runtime::RuntimeMode::Dynamic),
          m.seed, m.maxSimSeconds, m.degradedMode, x.enabled, x.dropProb,
          x.corruptProb, x.reorderProb, x.delayProb, x.delayOpsMin,
          x.delayOpsMax, x.protectSyncPackets, x.seed);
    }
};

/** QueryStatus payload. */
struct StatusRequest
{
    static constexpr MsgType kType = MsgType::QueryStatus;
    uint64_t jobId = 0;

    template <class S, class F>
    static void fields(S &s, F &&f) { f(s.jobId); }
};

/** FetchResult payload: job id + resume byte offset. */
struct FetchRequest
{
    static constexpr MsgType kType = MsgType::FetchResult;
    uint64_t jobId = 0;
    /**
     * Payload bytes the client already holds from an interrupted
     * stream of the same job; the server streams the rest. 0 = full
     * stream. Must be record-aligned.
     */
    uint64_t resumeOffset = 0;

    template <class S, class F>
    static void fields(S &s, F &&f) { f(s.jobId, s.resumeOffset); }
};

/** CancelMission payload. */
struct CancelRequest
{
    static constexpr MsgType kType = MsgType::CancelMission;
    uint64_t jobId = 0;

    template <class S, class F>
    static void fields(S &s, F &&f) { f(s.jobId); }
};

/** ServerStats payload (empty). */
struct StatsRequest
{
    static constexpr MsgType kType = MsgType::ServerStats;

    template <class S, class F>
    static void fields(S &, F &&) {}
};

/** Shutdown payload. */
struct ShutdownRequest
{
    static constexpr MsgType kType = MsgType::Shutdown;
    bool drain = true; ///< finish queued jobs before exiting

    template <class S, class F>
    static void fields(S &s, F &&f) { f(s.drain); }
};

/** AckResult payload: releases a fetched result after verification. */
struct AckRequest
{
    static constexpr MsgType kType = MsgType::AckResult;
    uint64_t jobId = 0;
    /** FNV-1a of the payload bytes the client reassembled. */
    uint64_t payloadHash = 0;

    template <class S, class F>
    static void fields(S &s, F &&f) { f(s.jobId, s.payloadHash); }
};

/** SubmitOk payload. */
struct SubmitOkReply
{
    static constexpr MsgType kType = MsgType::SubmitOk;
    uint64_t jobId = 0;
    /** Jobs ahead of this one in the queue at admission. */
    uint32_t queuePosition = 0;

    template <class S, class F>
    static void fields(S &s, F &&f) { f(s.jobId, s.queuePosition); }
};

/** SubmitRejected payload. */
struct RejectedReply
{
    static constexpr MsgType kType = MsgType::SubmitRejected;
    RejectReason reason = RejectReason::QueueFull;
    std::string detail;

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        f(ranged(s.reason, RejectReason::QueueFull,
                 RejectReason::BadRequest),
          bounded(s.detail, kMaxStringBytes));
    }
};

/** StatusReply payload. */
struct StatusInfo
{
    static constexpr MsgType kType = MsgType::StatusReply;
    uint64_t jobId = 0;
    JobState state = JobState::Unknown;
    uint32_t queuePosition = 0; ///< only meaningful when Queued
    double queueWaitMs = 0.0;   ///< admission -> start (so far if Queued)
    double serviceMs = 0.0;     ///< start -> finish (0 until finished)

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        f(s.jobId, ranged(s.state, JobState::Queued, JobState::Unknown),
          s.queuePosition, s.queueWaitMs, s.serviceMs);
    }
};

/** ResultChunk payload: one ordered segment of a result stream. */
struct ResultChunkData
{
    static constexpr MsgType kType = MsgType::ResultChunk;
    uint64_t jobId = 0;
    /** 0-based stream position; chunks arrive strictly sequential. */
    uint32_t seq = 0;
    std::vector<uint8_t> bytes;

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        f(s.jobId, s.seq, bounded(s.bytes, kMaxResultChunkBytes));
    }
};

/**
 * ResultEnd payload: closes a result stream. Carries everything
 * except the trajectory records themselves — terminal state, stream
 * totals for truncation detection, the payload hash, and the scalar
 * result (canonical-CSV hash included).
 */
struct ResultEndData
{
    static constexpr MsgType kType = MsgType::ResultEnd;
    uint64_t jobId = 0;
    /** Terminal lifecycle state (Done or Failed) of the job. */
    JobState state = JobState::Done;
    uint32_t chunkCount = 0;
    uint64_t payloadBytes = 0;
    /** FNV-1a of the whole stream payload (the binary records). */
    uint64_t payloadHash = 0;
    /** Scalar fields only; `trajectory` stays empty. */
    ServedResult result;

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        f(s.jobId, ranged(s.state, JobState::Done, JobState::Failed),
          s.chunkCount, s.payloadBytes, s.payloadHash);
        ServedResult::fields(s.result, f);
    }
};

/** Progress payload: a running job's position in simulated time. */
struct ProgressEvent
{
    static constexpr MsgType kType = MsgType::Progress;
    uint64_t jobId = 0;
    double simTimeSeconds = 0.0;
    double maxSimSeconds = 0.0;
    uint64_t samples = 0;

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        f(s.jobId, s.simTimeSeconds, s.maxSimSeconds, s.samples);
    }
};

/** What a CancelMission achieved. */
enum class CancelOutcome : uint8_t
{
    Dequeued = 1,    ///< removed from the queue before running
    TooLate = 2,     ///< already running (missions are not preempted)
    AlreadyDone = 3, ///< already finished
    UnknownJob = 4,
};

/** CancelReply payload. */
struct CancelInfo
{
    static constexpr MsgType kType = MsgType::CancelReply;
    uint64_t jobId = 0;
    CancelOutcome outcome = CancelOutcome::UnknownJob;

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        f(s.jobId, ranged(s.outcome, CancelOutcome::Dequeued,
                          CancelOutcome::UnknownJob));
    }
};

/** What an AckResult achieved. */
enum class AckOutcome : uint8_t
{
    Released = 1, ///< hash matched; the server dropped the record
    /**
     * No such retained job — also the reply when a reconnect retried
     * an ack that already landed, so clients treat it as success.
     */
    UnknownJob = 2,
    HashMismatch = 3, ///< client hash ≠ stored hash; record kept
};

const char *ackOutcomeName(AckOutcome o);

/** AckReply payload. */
struct AckInfo
{
    static constexpr MsgType kType = MsgType::AckReply;
    uint64_t jobId = 0;
    AckOutcome outcome = AckOutcome::UnknownJob;

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        f(s.jobId, ranged(s.outcome, AckOutcome::Released,
                          AckOutcome::HashMismatch));
    }
};

/** StatsReply payload: admission + load-shedding counters. */
struct ServerStatsData
{
    static constexpr MsgType kType = MsgType::StatsReply;
    uint64_t submitted = 0; ///< SubmitMission requests seen
    uint64_t accepted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t rejectedQueueFull = 0;
    uint64_t rejectedClientCap = 0;
    uint64_t rejectedShutdown = 0;
    uint64_t malformed = 0; ///< poisoned connections dropped
    uint32_t queued = 0;    ///< jobs waiting right now
    uint32_t running = 0;   ///< jobs executing right now
    uint32_t workers = 0;
    uint32_t queueCapacity = 0;
    uint64_t connectionsAccepted = 0;
    uint32_t connectionsOpen = 0;
    /** Queue-wait / service-time aggregates over finished jobs [ms]. */
    double totalQueueWaitMs = 0.0;
    double maxQueueWaitMs = 0.0;
    double totalServiceMs = 0.0;
    double maxServiceMs = 0.0;
    // Result-stream telemetry.
    uint64_t streamsStarted = 0;
    uint64_t streamsCompleted = 0; ///< ResultEnd enqueued
    uint64_t streamedChunks = 0;
    uint64_t streamedPayloadBytes = 0;
    uint64_t progressEvents = 0;
    /** Bytes currently held by retained terminal results. */
    uint64_t retainedResultBytes = 0;
    uint32_t activeStreams = 0; ///< streams mid-flight right now
    // Durability telemetry.
    uint64_t dedupedSubmits = 0; ///< idempotency-key hits answered
    uint64_t journalReplayedJobs = 0; ///< jobs recovered at boot
    uint64_t warmRestoredJobs = 0; ///< recovered via disk checkpoint
    uint64_t resultsAcked = 0;     ///< hash-verified releases
    uint64_t streamsResumed = 0;   ///< fetches with resumeOffset > 0

    template <class S, class F>
    static void fields(S &s, F &&f)
    {
        f(s.submitted, s.accepted, s.completed, s.failed, s.cancelled,
          s.rejectedQueueFull, s.rejectedClientCap, s.rejectedShutdown,
          s.malformed, s.queued, s.running, s.workers, s.queueCapacity,
          s.connectionsAccepted, s.connectionsOpen, s.totalQueueWaitMs,
          s.maxQueueWaitMs, s.totalServiceMs, s.maxServiceMs,
          s.streamsStarted, s.streamsCompleted, s.streamedChunks,
          s.streamedPayloadBytes, s.progressEvents,
          s.retainedResultBytes, s.activeStreams, s.dedupedSubmits,
          s.journalReplayedJobs, s.warmRestoredJobs, s.resultsAcked,
          s.streamsResumed);
    }
};

/** ShutdownReply payload (empty). */
struct ShutdownReply
{
    static constexpr MsgType kType = MsgType::ShutdownReply;

    template <class S, class F>
    static void fields(S &, F &&) {}
};

/** ErrorReply payload. */
struct ErrorInfo
{
    static constexpr MsgType kType = MsgType::ErrorReply;
    std::string what;

    template <class S, class F>
    static void fields(S &s, F &&f) { f(bounded(s.what, kMaxStringBytes)); }
};

// --------------------------------------------------------------------
// Result-stream reassembly.

/** A fully reassembled result (ResultStreamAssembler's output). */
struct ResultData
{
    uint64_t jobId = 0;
    /** The scalars plus the decoded trajectory samples. */
    ServedResult result;
    /** Terminal lifecycle state (Done or Failed) of the job. */
    JobState state = JobState::Done;
    /** FNV-1a of the payload bytes the client assembled (verified
     *  against ResultEnd.payloadHash); AckResult carries it back so
     *  the server releases only bytes the client actually holds. */
    uint64_t payloadHash = 0;
};

/**
 * Client-side state machine that reassembles one result stream.
 * Standalone (no socket knowledge) so the whole protocol surface is
 * fuzzable: feed it decoded frames in arrival order and it enforces
 * every stream invariant — matching job id, strictly sequential
 * chunk seq, bounded accumulation, no frame after ResultEnd, totals
 * and chunk count matching, and the FNV-1a payload hash over the
 * assembled bytes.
 */
class ResultStreamAssembler
{
  public:
    explicit ResultStreamAssembler(
        uint64_t job_id,
        size_t max_payload_bytes = kMaxAssembledTrajectoryBytes);

    /**
     * Consume one stream frame (ResultChunk or ResultEnd).
     * @return true once the stream is complete and verified.
     * @throws ProtocolError on any stream violation, including any
     * frame fed after completion and any non-stream message type
     * (Progress frames are connection-level events — dispatch them
     * before the assembler, never into it); SerdeError on a
     * malformed frame.
     */
    bool feed(const Message &m);

    bool complete() const { return complete_; }
    uint64_t jobId() const { return jobId_; }
    /** Payload bytes accumulated so far. */
    size_t payloadBytes() const { return payload_.size(); }
    /** The verified result; only valid once complete(). */
    ResultData takeResult();

    /**
     * Prepare to continue after the connection carrying the stream
     * died: keeps the accumulated payload prefix and resets the
     * chunk-sequence expectation to 0, matching the server's numbering
     * of a stream resumed at payloadBytes(). Only valid before
     * completion.
     */
    void rewindForResume();

  private:
    void finish(const ResultEndData &end);

    uint64_t jobId_ = 0;
    size_t maxPayloadBytes_ = 0;
    uint32_t nextSeq_ = 0;
    std::vector<uint8_t> payload_;
    bool complete_ = false;
    ResultData result_;
};

} // namespace rose::serve

#endif // ROSE_SERVE_PROTO_HH
