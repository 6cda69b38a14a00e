/**
 * @file
 * The RoSÉ packet protocol (Section 3.4.1).
 *
 * "Packets consist of a header, containing the packet type and number of
 * bytes, as well as a payload containing the serialized contents of the
 * message." Two families exist:
 *
 *  - Synchronization packets: communicate simulation state (cycle grants,
 *    completion, step-size configuration) with the RoSÉ bridge but are
 *    never visible to the modeled SoC.
 *  - Data packets: sensor requests/responses and actuation commands; the
 *    only packets visible to the simulated SoC, surfaced through the
 *    bridge's memory-mapped queues.
 *
 * All multi-byte fields are serialized little-endian.
 */

#ifndef ROSE_BRIDGE_PACKET_HH
#define ROSE_BRIDGE_PACKET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bridge/framing.hh"
#include "env/sensors.hh"
#include "util/geometry.hh"

namespace rose::bridge {

/** Wire identifiers for every packet kind. */
enum class PacketType : uint8_t
{
    // --- Synchronization packets (bridge-level only) ---
    SyncGrant = 0x01,   ///< host -> bridge: advance N target cycles
    SyncDone = 0x02,    ///< bridge -> host: granted cycles consumed
    CfgStepSize = 0x03, ///< host -> bridge: cycles per sync period

    // --- Data packets (visible to the SoC) ---
    ImuReq = 0x10,
    ImuResp = 0x11,
    ImageReq = 0x12,
    ImageResp = 0x13,
    DepthReq = 0x14,
    DepthResp = 0x15,
    VelocityCmd = 0x16,
};

/** True for the packet kinds the modeled SoC may observe. */
bool isDataPacket(PacketType t);

/** True when the raw wire byte names a known PacketType. */
bool isValidPacketType(uint8_t raw);

/** Human-readable packet-type name for logs. */
std::string packetTypeName(PacketType t);

/**
 * Upper bound on a frame's payload length. The largest legitimate
 * payload is a quantized camera frame (w*h bytes + 4 bytes of
 * dimensions); 256 KiB covers any camera the environment can configure
 * with a wide margin. Frames claiming more are malformed — the bound is
 * what keeps a corrupt length field from triggering an unbounded
 * allocation or an endless NeedMore wait.
 */
constexpr size_t kMaxPayloadBytes = 256 * 1024;

/** Serialized packet: fixed header plus raw payload bytes. */
struct Packet
{
    PacketType type = PacketType::SyncGrant;
    std::vector<uint8_t> payload;

    static constexpr size_t kHeaderBytes = kFrameHeaderBytes;

    // Framing traits (bridge/framing.hh).
    static constexpr size_t kMaxPayload = kMaxPayloadBytes;
    static constexpr const char *kKind = "packet";
    static bool validType(uint8_t raw) { return isValidPacketType(raw); }

    size_t wireSize() const { return kHeaderBytes + payload.size(); }
};

/** Receive-side packet accumulator (bridge/framing.hh). */
using FrameBuffer = FrameDecoder<Packet>;

// --------------------------------------------------------------------
// Typed payload codecs.

/** Payload of a VelocityCmd data packet (companion -> flight ctrl). */
struct VelocityCmdPayload
{
    double forward = 0.0;
    double lateral = 0.0;
    double yawRate = 0.0;
};

/**
 * Encode/decode helpers; encode produces a full Packet. Decoders
 * throw SerdeError on a payload that is truncated or inconsistent
 * (fault injection can corrupt a payload that survives framing; the
 * mission supervisor recovers from it like any transport fault).
 */
Packet encodeSyncGrant(uint64_t cycles);
uint64_t decodeSyncGrant(const Packet &p);

Packet encodeSyncDone(uint64_t cycles_run);
uint64_t decodeSyncDone(const Packet &p);

Packet encodeCfgStepSize(uint64_t cycles_per_sync);
uint64_t decodeCfgStepSize(const Packet &p);

Packet encodeImuReq();
Packet encodeImuResp(const env::ImuSample &s);
env::ImuSample decodeImuResp(const Packet &p);

Packet encodeImageReq();
/** Image payload is quantized to 8 bits per pixel for transport. */
Packet encodeImageResp(const env::Image &img);
env::Image decodeImageResp(const Packet &p);
/** Decode into a caller-reused image (no steady-state allocation). */
void decodeImageRespInto(const Packet &p, env::Image &img);

Packet encodeDepthReq();
Packet encodeDepthResp(double depth_m);
double decodeDepthResp(const Packet &p);

Packet encodeVelocityCmd(const VelocityCmdPayload &v);
VelocityCmdPayload decodeVelocityCmd(const Packet &p);

/** Serialize a packet (header + payload) onto a byte stream. */
inline void
serializePacket(const Packet &p, std::vector<uint8_t> &out)
{
    serializeFrame(p, out);
}

/**
 * Checkpoint-state (de)serialization of a whole packet. Unlike the
 * wire form this is trusted input — it only ever round-trips through
 * StateWriter — but loadPacket still bounds the payload length by the
 * bytes left before allocating.
 */
void savePacket(StateWriter &w, const Packet &p);
Packet loadPacket(StateReader &r);

} // namespace rose::bridge

#endif // ROSE_BRIDGE_PACKET_HH
