#include "proto.hh"

#include <cstdio>
#include <cstdlib>

#include "util/hash.hh"
#include "util/logging.hh"

namespace rose::serve {

bool
isValidMsgType(uint8_t raw)
{
    switch (MsgType(raw)) {
      case MsgType::SubmitMission:
      case MsgType::QueryStatus:
      case MsgType::FetchResult:
      case MsgType::CancelMission:
      case MsgType::ServerStats:
      case MsgType::Shutdown:
      case MsgType::AckResult:
      case MsgType::SubmitOk:
      case MsgType::SubmitRejected:
      case MsgType::StatusReply:
      case MsgType::CancelReply:
      case MsgType::StatsReply:
      case MsgType::ShutdownReply:
      case MsgType::ResultChunk:
      case MsgType::ResultEnd:
      case MsgType::Progress:
      case MsgType::AckReply:
      case MsgType::ErrorReply:
        return true;
    }
    return false;
}

bool
isRequest(MsgType t)
{
    return (uint8_t(t) & 0x80) == 0;
}

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::SubmitMission: return "SubmitMission";
      case MsgType::QueryStatus: return "QueryStatus";
      case MsgType::FetchResult: return "FetchResult";
      case MsgType::CancelMission: return "CancelMission";
      case MsgType::ServerStats: return "ServerStats";
      case MsgType::Shutdown: return "Shutdown";
      case MsgType::AckResult: return "AckResult";
      case MsgType::SubmitOk: return "SubmitOk";
      case MsgType::SubmitRejected: return "SubmitRejected";
      case MsgType::StatusReply: return "StatusReply";
      case MsgType::CancelReply: return "CancelReply";
      case MsgType::StatsReply: return "StatsReply";
      case MsgType::ShutdownReply: return "ShutdownReply";
      case MsgType::ResultChunk: return "ResultChunk";
      case MsgType::ResultEnd: return "ResultEnd";
      case MsgType::Progress: return "Progress";
      case MsgType::AckReply: return "AckReply";
      case MsgType::ErrorReply: return "ErrorReply";
    }
    return "unknown";
}

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::QueueFull: return "queue_full";
      case RejectReason::ClientCap: return "client_cap";
      case RejectReason::ShuttingDown: return "shutting_down";
      case RejectReason::BadRequest: return "bad_request";
    }
    return "unknown";
}

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
      case JobState::Unknown: return "unknown";
    }
    return "unknown";
}

const char *
ackOutcomeName(AckOutcome o)
{
    switch (o) {
      case AckOutcome::Released: return "released";
      case AckOutcome::UnknownJob: return "unknown_job";
      case AckOutcome::HashMismatch: return "hash_mismatch";
    }
    return "unknown";
}

// ------------------------------------------------ binary trajectory

float
canonicalTrajectoryF32(double v)
{
    // %.6g is exactly the default-formatted ostream insertion
    // CsvWriter uses for its cells; re-reading that decimal and
    // narrowing lands within 2^-24 relative of the printed value,
    // which is why printing the f32 at precision 6 reproduces the
    // original cell (tests pin this printf/ostream equivalence).
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return float(std::strtod(buf, nullptr));
}

std::vector<uint8_t>
encodeTrajectoryBinary(const std::vector<core::TrajectorySample> &t)
{
    StateWriter w;
    w.reserve(t.size() * kTrajectoryBinaryRecordBytes);
    for (const core::TrajectorySample &s : t) {
        if (s.collisions > UINT32_MAX)
            throw SerdeError(detail::concat(
                "collision count ", s.collisions,
                " exceeds the u32 binary-record field"));
        w.f32(canonicalTrajectoryF32(s.time));
        w.f32(canonicalTrajectoryF32(s.position.x));
        w.f32(canonicalTrajectoryF32(s.position.y));
        w.f32(canonicalTrajectoryF32(s.position.z));
        w.f32(canonicalTrajectoryF32(s.yaw));
        w.f32(canonicalTrajectoryF32(s.speed));
        w.f32(canonicalTrajectoryF32(s.lateralOffset));
        w.u32(uint32_t(s.collisions));
        w.f32(canonicalTrajectoryF32(s.cmdForward));
        w.f32(canonicalTrajectoryF32(s.cmdLateral));
        w.f32(canonicalTrajectoryF32(s.cmdYawRate));
    }
    return w.take();
}

std::vector<core::TrajectorySample>
decodeTrajectoryBinary(const uint8_t *data, size_t size)
{
    if (size % kTrajectoryBinaryRecordBytes != 0)
        throw SerdeError(detail::concat(
            "binary trajectory payload of ", size,
            " bytes is not a whole number of ",
            kTrajectoryBinaryRecordBytes, "-byte records"));
    std::vector<core::TrajectorySample> t(size /
                                          kTrajectoryBinaryRecordBytes);
    StateReader r(data, size);
    for (core::TrajectorySample &s : t) {
        s.time = r.f32();
        s.position.x = r.f32();
        s.position.y = r.f32();
        s.position.z = r.f32();
        s.yaw = r.f32();
        s.speed = r.f32();
        s.lateralOffset = r.f32();
        s.collisions = r.u32();
        s.cmdForward = r.f32();
        s.cmdLateral = r.f32();
        s.cmdYawRate = r.f32();
    }
    return t;
}

ServedResult
marshalResult(const core::MissionResult &r)
{
    ServedResult s;
    s.completed = r.completed;
    s.status = uint8_t(r.status);
    s.failureReason = r.failureReason.substr(0, kMaxStringBytes);
    s.missionTime = r.missionTime;
    s.collisions = r.collisions;
    s.avgSpeed = r.avgSpeed;
    s.maxSpeed = r.maxSpeed;
    s.distanceTravelled = r.distanceTravelled;
    s.inferences = r.inferences;
    s.avgInferenceLatency = r.avgInferenceLatency;
    s.energyJoules = r.energyJoules;
    s.avgPowerWatts = r.avgPowerWatts;
    s.simulatedCycles = r.simulatedCycles;
    s.trajectorySamples = uint32_t(r.trajectory.size());
    s.degradedIntervals = uint32_t(r.degradedIntervals.size());
    s.trajectoryHash = fnv1a(core::trajectoryCsvString(r));
    return s;
}

// --------------------------------------------------- stream assembly

ResultStreamAssembler::ResultStreamAssembler(uint64_t job_id,
                                             size_t max_payload_bytes)
    : jobId_(job_id), maxPayloadBytes_(max_payload_bytes)
{
}

bool
ResultStreamAssembler::feed(const Message &m)
{
    if (complete_)
        throw ProtocolError(detail::concat(
            msgTypeName(m.type), " frame after ResultEnd closed the "
            "stream for job ", jobId_));
    switch (m.type) {
      case MsgType::ResultChunk: {
        ResultChunkData c = decode<ResultChunkData>(m);
        if (c.jobId != jobId_)
            throw ProtocolError(detail::concat(
                "ResultChunk for job ", c.jobId,
                " inside the stream of job ", jobId_));
        if (c.seq != nextSeq_)
            throw ProtocolError(detail::concat(
                "result stream out of order: expected chunk ",
                nextSeq_, ", got ", c.seq));
        if (c.bytes.size() > maxPayloadBytes_ - payload_.size())
            throw ProtocolError(detail::concat(
                "result stream exceeds the ", maxPayloadBytes_,
                "-byte reassembly bound"));
        payload_.insert(payload_.end(), c.bytes.begin(),
                        c.bytes.end());
        nextSeq_++;
        return false;
      }
      case MsgType::ResultEnd:
        finish(decode<ResultEndData>(m));
        return true;
      default:
        throw ProtocolError(detail::concat(
            "unexpected ", msgTypeName(m.type),
            " frame inside a result stream"));
    }
}

void
ResultStreamAssembler::finish(const ResultEndData &end)
{
    if (end.jobId != jobId_)
        throw ProtocolError(detail::concat(
            "ResultEnd for job ", end.jobId,
            " inside the stream of job ", jobId_));
    if (end.chunkCount != nextSeq_)
        throw ProtocolError(detail::concat(
            "result stream truncated: ResultEnd declares ",
            end.chunkCount, " chunks, received ", nextSeq_));
    if (end.payloadBytes != payload_.size())
        throw ProtocolError(detail::concat(
            "result stream truncated: ResultEnd declares ",
            end.payloadBytes, " payload bytes, received ",
            payload_.size()));

    // Integrity is checked over the payload bytes as received, before
    // any decoding, so a corrupt stream never reaches the decoder.
    uint64_t h = fnv1a(payload_.data(), payload_.size());
    if (h != end.payloadHash)
        throw ProtocolError(detail::concat(
            "payload hash mismatch after reassembly of job ", jobId_,
            " (", payload_.size(), " payload bytes)"));

    ResultData d;
    d.jobId = end.jobId;
    d.state = end.state;
    d.result = end.result;
    d.payloadHash = h;
    // The records quantize every cell to its printed decimal, so
    // core::trajectoryCsvString over these samples reproduces the
    // server-side canonical CSV bit-for-bit (test_serve pins this).
    d.result.trajectory =
        decodeTrajectoryBinary(payload_.data(), payload_.size());
    payload_.clear();
    payload_.shrink_to_fit();
    result_ = std::move(d);
    complete_ = true;
}

ResultData
ResultStreamAssembler::takeResult()
{
    rose_assert(complete_,
                "takeResult() before the stream completed");
    return std::move(result_);
}

void
ResultStreamAssembler::rewindForResume()
{
    rose_assert(!complete_,
                "rewindForResume() after the stream completed");
    // The accumulated prefix is kept: a resumed stream restarts its
    // chunk numbering at 0 and ResultEnd's totals still check out —
    // chunkCount counts the resumed stream's chunks and payloadBytes
    // is the whole payload, prefix included.
    nextSeq_ = 0;
}

} // namespace rose::serve
