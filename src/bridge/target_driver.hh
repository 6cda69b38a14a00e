/**
 * @file
 * Target-side bridge driver: the software library the companion-computer
 * application links against to talk to the RoSÉ I/O registers. Mirrors
 * the paper's target software that reads/writes the bridge's
 * memory-mapped queues ("accessible through queues pointed to by
 * memory-mapped registers on the system bus").
 *
 * Every operation is performed through individual 32-bit MMIO accesses;
 * the driver counts them so the SoC timing model can charge bus cycles
 * per access (uncached I/O loads/stores are expensive, which is exactly
 * the per-layer/per-image overhead the paper observes).
 */

#ifndef ROSE_BRIDGE_TARGET_DRIVER_HH
#define ROSE_BRIDGE_TARGET_DRIVER_HH

#include <optional>

#include "bridge/packet.hh"
#include "soc/device.hh"

namespace rose::bridge {

/** Software driver for the bridge's target-facing register file. */
class TargetDriver
{
  public:
    explicit TargetDriver(soc::MmioDevice &dev) : dev_(dev) {}

    /** Number of RX packets ready (one MMIO read). */
    uint32_t rxCount();

    /**
     * Pop the head RX packet, if any. Costs 3 + ceil(len/4) reads (the
     * payload words as one MmioDevice::readBurst) and one write.
     */
    std::optional<Packet> rxPop();

    /**
     * Send a packet through the TX queue.
     *
     * @return false when the TX fifo lacks space (backpressure); the
     *         caller should retry after the next sync boundary.
     */
    bool txSend(const Packet &p);

    /**
     * MMIO accesses performed since the last call to this function.
     * The SoC app model drains this counter to charge I/O cycles.
     */
    uint64_t takeAccessCount();

  private:
    uint32_t mmioRead(uint64_t off);
    void mmioWrite(uint64_t off, uint32_t v);

    soc::MmioDevice &dev_;
    uint64_t accesses_ = 0;
};

} // namespace rose::bridge

#endif // ROSE_BRIDGE_TARGET_DRIVER_HH
