/**
 * @file
 * The RoSÉ BRIDGE (Sections 3.2 and 3.4, Figures 4 and 5).
 *
 * The bridge is the boundary between the simulated SoC and the host:
 *
 *  - Target side: memory-mapped registers on the SoC system bus expose
 *    two hardware packet queues (RX: host -> SoC sensor data; TX:
 *    SoC -> host actuation/requests).
 *  - Host side: a transport carries serialized packets to/from the
 *    synchronizer; hostService() is the bridge-driver poll loop that
 *    moves packets between the transport and the hardware queues.
 *  - Control unit: throttles RTL-simulation progress. The synchronizer
 *    configures cycles-per-sync (CfgStepSize) and grants execution
 *    tokens (SyncGrant); the SoC simulator consumes the budget and
 *    reports completion (SyncDone).
 *
 * The modeled SoC is oblivious to simulation (Section 3.4.2): it only
 * ever observes data packets through the MMIO queues.
 */

#ifndef ROSE_BRIDGE_ROSE_BRIDGE_HH
#define ROSE_BRIDGE_ROSE_BRIDGE_HH

#include <cstdint>

#include "bridge/fifo.hh"
#include "bridge/packet.hh"
#include "bridge/transport.hh"
#include "soc/device.hh"
#include "util/units.hh"

namespace rose::bridge {

/** Bridge register map (byte offsets; all registers are 32-bit). */
namespace reg {
constexpr uint64_t kRxCount = 0x00;   ///< RO: packets waiting in RX
constexpr uint64_t kRxType = 0x04;    ///< RO: head packet type
constexpr uint64_t kRxLen = 0x08;     ///< RO: head packet payload bytes
constexpr uint64_t kRxData = 0x0C;    ///< RO: next payload word (autoinc)
constexpr uint64_t kRxConsume = 0x10; ///< WO: retire head packet
constexpr uint64_t kTxFree = 0x14;    ///< RO: free bytes in TX
constexpr uint64_t kTxType = 0x18;    ///< WO: start packet, set type
constexpr uint64_t kTxLen = 0x1C;     ///< WO: payload length in bytes
constexpr uint64_t kTxData = 0x20;    ///< WO: next payload word (autoinc)
constexpr uint64_t kTxCommit = 0x24;  ///< WO: enqueue assembled packet
constexpr uint64_t kBudgetLo = 0x28;  ///< RO: remaining cycle budget
constexpr uint64_t kBudgetHi = 0x2C;  ///< RO: remaining budget (high)
constexpr uint64_t kWindowBytes = 0x30;
} // namespace reg

/** Sizing of the bridge's hardware queues. */
struct BridgeConfig
{
    size_t rxFifoBytes = 64 * 1024; ///< fits one camera frame + slack
    size_t txFifoBytes = 4 * 1024;
};

/** Statistics the bridge accumulates for evaluation. */
struct BridgeStats
{
    uint64_t mmioReads = 0;
    uint64_t mmioWrites = 0;
    uint64_t rxPackets = 0;     ///< host -> SoC data packets delivered
    uint64_t txPackets = 0;     ///< SoC -> host data packets sent
    uint64_t rxDropped = 0;     ///< host packets dropped: RX fifo full
    uint64_t txBackpressure = 0;///< SoC commits rejected: TX fifo full
    uint64_t syncGrants = 0;
    uint64_t syncDones = 0;
};

/** The bridge proper. */
class RoseBridge : public soc::MmioDevice
{
  public:
    RoseBridge(Transport &transport, const BridgeConfig &cfg = {});

    // ------------------------------------------------- MmioDevice API
    std::string deviceName() const override { return "rose-bridge"; }
    uint64_t windowSize() const override { return reg::kWindowBytes; }
    uint32_t read(uint64_t offset) override;
    /** RX_DATA bursts copy the head payload in one pass. */
    void readBurst(uint64_t offset, uint8_t *dst, size_t words) override;
    void write(uint64_t offset, uint32_t value) override;

    // ------------------------------------------------ control unit API
    /** Remaining granted cycles the SoC may still execute. */
    Cycles cycleBudget() const { return budget_; }

    /** True when the SoC must stall awaiting the next grant. */
    bool stalled() const { return budget_ == 0; }

    /** Consume budget as the SoC simulator advances. */
    void consumeCycles(Cycles n);

    /** Configured cycles-per-sync (set by CfgStepSize). */
    Cycles cyclesPerSync() const { return cyclesPerSync_; }

    /**
     * Report a finished synchronization step back to the host
     * (SyncDone); called by the SoC simulator when the granted budget
     * has been fully consumed.
     */
    void completeSync(Cycles cycles_run);

    // --------------------------------------------------- host-side API
    /**
     * Bridge-driver poll: drain the transport into the RX queue /
     * control unit, and flush the TX queue into the transport.
     *
     * @return number of packets moved in either direction.
     */
    uint64_t hostService();

    const BridgeStats &stats() const { return stats_; }

    /** Direct queue introspection for tests. */
    const PacketFifo &rxFifo() const { return rx_; }
    const PacketFifo &txFifo() const { return tx_; }

    /** Serialize queues, assembly registers, control unit, stats. */
    void saveState(StateWriter &w) const;
    void restoreState(StateReader &r);

  private:
    uint32_t readRxDataWord();

    Transport &transport_;
    PacketFifo rx_;
    PacketFifo tx_;

    // RX head-packet read cursor.
    size_t rxReadPos_ = 0;

    // TX packet assembly registers.
    Packet txStaging_;
    uint32_t txExpectedLen_ = 0;

    // Control unit.
    Cycles budget_ = 0;
    Cycles cyclesPerSync_ = 0;

    BridgeStats stats_;
};

} // namespace rose::bridge

#endif // ROSE_BRIDGE_ROSE_BRIDGE_HH
