#include "target_driver.hh"

#include "bridge/rose_bridge.hh"

namespace rose::bridge {

uint32_t
TargetDriver::mmioRead(uint64_t off)
{
    ++accesses_;
    return dev_.read(off);
}

void
TargetDriver::mmioWrite(uint64_t off, uint32_t v)
{
    ++accesses_;
    dev_.write(off, v);
}

uint32_t
TargetDriver::rxCount()
{
    return mmioRead(reg::kRxCount);
}

std::optional<Packet>
TargetDriver::rxPop()
{
    if (mmioRead(reg::kRxCount) == 0)
        return std::nullopt;

    Packet p;
    p.type = static_cast<PacketType>(mmioRead(reg::kRxType) & 0xff);
    uint32_t len = mmioRead(reg::kRxLen);
    // One RX_DATA read per payload word, issued as one burst; the
    // tail bytes of the last word are dropped.
    size_t words = (size_t(len) + 3) / 4;
    p.payload.resize(4 * words);
    dev_.readBurst(reg::kRxData, p.payload.data(), words);
    accesses_ += words;
    p.payload.resize(len);
    mmioWrite(reg::kRxConsume, 1);
    return p;
}

bool
TargetDriver::txSend(const Packet &p)
{
    if (mmioRead(reg::kTxFree) < p.wireSize())
        return false;

    mmioWrite(reg::kTxType, static_cast<uint32_t>(p.type));
    mmioWrite(reg::kTxLen, static_cast<uint32_t>(p.payload.size()));
    for (size_t off = 0; off < p.payload.size(); off += 4) {
        uint32_t word = 0;
        for (size_t b = 0; b < 4 && off + b < p.payload.size(); ++b)
            word |= uint32_t(p.payload[off + b]) << (8 * b);
        mmioWrite(reg::kTxData, word);
    }
    mmioWrite(reg::kTxCommit, 1);
    return true;
}

uint64_t
TargetDriver::takeAccessCount()
{
    uint64_t n = accesses_;
    accesses_ = 0;
    return n;
}

} // namespace rose::bridge
