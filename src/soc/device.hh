/**
 * @file
 * Memory-mapped device interface for the modeled SoC system bus.
 *
 * The RoSÉ bridge is "exposed to the target SoC as memory-mapped I/O
 * registers on the system bus" (Section 3.2, Figure 4); this interface
 * is what such devices implement. Accesses are 32-bit, word-aligned
 * offsets relative to the device base.
 */

#ifndef ROSE_SOC_DEVICE_HH
#define ROSE_SOC_DEVICE_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace rose::soc {

/** A device reachable through MMIO loads/stores on the system bus. */
class MmioDevice
{
  public:
    virtual ~MmioDevice() = default;

    /** Device name for the address map / debug output. */
    virtual std::string deviceName() const = 0;

    /** Size of the device's register window in bytes. */
    virtual uint64_t windowSize() const = 0;

    /**
     * 32-bit register read.
     *
     * @param offset byte offset within the window (word aligned).
     */
    virtual uint32_t read(uint64_t offset) = 0;

    /**
     * Word burst: @p words successive 32-bit reads of one register,
     * stored little-endian at @p dst (4 * @p words bytes). Same values
     * and side effects as that many read(offset) calls, which is what
     * the default does; a device may serve a FIFO data port faster.
     */
    virtual void
    readBurst(uint64_t offset, uint8_t *dst, size_t words)
    {
        for (size_t i = 0; i < words; ++i) {
            uint32_t w = read(offset);
            for (int b = 0; b < 4; ++b)
                dst[4 * i + size_t(b)] = uint8_t(w >> (8 * b));
        }
    }

    /** 32-bit register write. */
    virtual void write(uint64_t offset, uint32_t value) = 0;
};

} // namespace rose::soc

#endif // ROSE_SOC_DEVICE_HH
