/**
 * @file
 * Finite-capacity packet FIFO modeling the RoSÉ bridge's hardware
 * queues ("RoSÉ BRIDGE contains hardware queues to stage packets being
 * transmitted over the modeled IO interface", Figure 5). Capacity is
 * accounted in bytes of staged packet data, modeling the finite SRAM a
 * real bridge would provision; push fails (backpressure) when a packet
 * does not fit.
 */

#ifndef ROSE_BRIDGE_FIFO_HH
#define ROSE_BRIDGE_FIFO_HH

#include <cstddef>
#include <deque>

#include "bridge/packet.hh"

namespace rose::bridge {

/** Byte-budgeted packet FIFO. */
class PacketFifo
{
  public:
    /**
     * @param capacity_bytes total staging capacity; a packet occupies
     *        its wire size (header + payload).
     */
    explicit PacketFifo(size_t capacity_bytes)
        : capacity_(capacity_bytes) {}

    /** Try to stage a packet; returns false when full (backpressure). */
    bool push(const Packet &p) { return push(Packet(p)); }

    /** Stage a packet without copying it; on backpressure @p p is
     *  left as it was. */
    bool
    push(Packet &&p)
    {
        if (used_ + p.wireSize() > capacity_)
            return false;
        used_ += p.wireSize();
        q_.push_back(std::move(p));
        return true;
    }

    /** Pop the oldest packet; returns false when empty. */
    bool
    pop(Packet &out)
    {
        if (q_.empty())
            return false;
        out = std::move(q_.front());
        q_.pop_front();
        used_ -= out.wireSize();
        return true;
    }

    /** Peek the oldest packet without consuming it. */
    const Packet *
    front() const
    {
        return q_.empty() ? nullptr : &q_.front();
    }

    bool empty() const { return q_.empty(); }
    size_t packetCount() const { return q_.size(); }
    size_t usedBytes() const { return used_; }
    size_t capacityBytes() const { return capacity_; }
    size_t freeBytes() const { return capacity_ - used_; }

    /** Staged packets, oldest first (checkpoint serialization). */
    const std::deque<Packet> &packets() const { return q_; }

    /** Drop all staged packets (checkpoint restore repopulates). */
    void
    clear()
    {
        q_.clear();
        used_ = 0;
    }

  private:
    size_t capacity_;
    size_t used_ = 0;
    std::deque<Packet> q_;
};

} // namespace rose::bridge

#endif // ROSE_BRIDGE_FIFO_HH
