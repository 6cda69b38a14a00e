#include "rose_bridge.hh"

#include <algorithm>
#include <cstring>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::bridge {

RoseBridge::RoseBridge(Transport &transport, const BridgeConfig &cfg)
    : transport_(transport), rx_(cfg.rxFifoBytes), tx_(cfg.txFifoBytes)
{
}

uint32_t
RoseBridge::readRxDataWord()
{
    const Packet *head = rx_.front();
    if (!head) {
        rose_warn("RX_DATA read with empty RX queue");
        return 0;
    }
    uint32_t word = 0;
    for (int b = 0; b < 4; ++b) {
        size_t idx = rxReadPos_ + b;
        uint32_t byte =
            idx < head->payload.size() ? head->payload[idx] : 0;
        word |= byte << (8 * b);
    }
    rxReadPos_ += 4;
    return word;
}

uint32_t
RoseBridge::read(uint64_t offset)
{
    ++stats_.mmioReads;
    switch (offset) {
      case reg::kRxCount:
        return static_cast<uint32_t>(rx_.packetCount());
      case reg::kRxType: {
        const Packet *head = rx_.front();
        return head ? static_cast<uint32_t>(head->type) : 0;
      }
      case reg::kRxLen: {
        const Packet *head = rx_.front();
        return head ? static_cast<uint32_t>(head->payload.size()) : 0;
      }
      case reg::kRxData:
        return readRxDataWord();
      case reg::kTxFree:
        return static_cast<uint32_t>(tx_.freeBytes());
      case reg::kBudgetLo:
        return static_cast<uint32_t>(budget_ & 0xffffffffu);
      case reg::kBudgetHi:
        return static_cast<uint32_t>(budget_ >> 32);
      default:
        rose_warn("bridge: read of unmapped register 0x",
                  std::hex, offset);
        return 0;
    }
}

void
RoseBridge::readBurst(uint64_t offset, uint8_t *dst, size_t words)
{
    const Packet *head = rx_.front();
    if (offset != reg::kRxData || !head) {
        soc::MmioDevice::readBurst(offset, dst, words);
        return;
    }
    // Bytes past the payload end read as zero, as in readRxDataWord.
    stats_.mmioReads += words;
    size_t n = 4 * words;
    size_t avail = rxReadPos_ < head->payload.size()
                       ? head->payload.size() - rxReadPos_
                       : 0;
    size_t copied = std::min(n, avail);
    if (copied > 0)
        std::memcpy(dst, head->payload.data() + rxReadPos_, copied);
    if (n > copied)
        std::memset(dst + copied, 0, n - copied);
    rxReadPos_ += n;
}

void
RoseBridge::write(uint64_t offset, uint32_t value)
{
    ++stats_.mmioWrites;
    switch (offset) {
      case reg::kRxConsume: {
        Packet dead;
        if (!rx_.pop(dead))
            rose_warn("RX_CONSUME with empty RX queue");
        rxReadPos_ = 0;
        break;
      }
      case reg::kTxType:
        txStaging_ = Packet{};
        txStaging_.type = static_cast<PacketType>(value & 0xff);
        txExpectedLen_ = 0;
        break;
      case reg::kTxLen:
        // Bound the claimed length before reserving: a buggy target
        // writing garbage here must not drive a multi-GiB allocation.
        if (value > kMaxPayloadBytes) {
            rose_warn("bridge: TX_LEN ", value,
                      " exceeds kMaxPayloadBytes; clamping");
            value = kMaxPayloadBytes;
        }
        txExpectedLen_ = value;
        txStaging_.payload.reserve(value);
        break;
      case reg::kTxData:
        for (int b = 0; b < 4; ++b) {
            if (txStaging_.payload.size() < txExpectedLen_)
                txStaging_.payload.push_back((value >> (8 * b)) & 0xff);
        }
        break;
      case reg::kTxCommit:
        if (txStaging_.payload.size() != txExpectedLen_) {
            rose_warn("TX_COMMIT with short payload: ",
                      txStaging_.payload.size(), " of ", txExpectedLen_);
        }
        if (tx_.push(txStaging_)) {
            ++stats_.txPackets;
        } else {
            ++stats_.txBackpressure;
        }
        break;
      default:
        rose_warn("bridge: write of unmapped register 0x",
                  std::hex, offset);
        break;
    }
}

void
RoseBridge::consumeCycles(Cycles n)
{
    rose_assert(n <= budget_, "consuming more cycles than granted");
    budget_ -= n;
}

void
RoseBridge::completeSync(Cycles cycles_run)
{
    ++stats_.syncDones;
    transport_.send(encodeSyncDone(cycles_run));
}

uint64_t
RoseBridge::hostService()
{
    uint64_t moved = 0;

    // Inbound: synchronizer -> bridge.
    Packet p;
    while (transport_.recv(p)) {
        ++moved;
        switch (p.type) {
          case PacketType::SyncGrant:
            budget_ += decodeSyncGrant(p);
            ++stats_.syncGrants;
            break;
          case PacketType::CfgStepSize:
            cyclesPerSync_ = decodeCfgStepSize(p);
            break;
          default:
            if (!isDataPacket(p.type)) {
                rose_warn("bridge: unexpected control packet ",
                          packetTypeName(p.type));
                break;
            }
            if (rx_.push(std::move(p))) {
                ++stats_.rxPackets;
            } else {
                // A real bridge would NAK at the protocol level; we
                // count the drop so experiments can detect sizing bugs.
                ++stats_.rxDropped;
                rose_warn("bridge: RX fifo full, dropping ",
                          packetTypeName(p.type));
            }
            break;
        }
    }

    // Outbound: SoC TX queue -> synchronizer.
    Packet out;
    while (tx_.pop(out)) {
        transport_.send(std::move(out));
        ++moved;
    }
    return moved;
}

namespace {

void
saveFifo(StateWriter &w, const PacketFifo &f)
{
    w.u32(uint32_t(f.packetCount()));
    for (const Packet &p : f.packets())
        savePacket(w, p);
}

void
loadFifo(StateReader &r, PacketFifo &f)
{
    f.clear();
    uint32_t n = r.u32();
    for (uint32_t i = 0; i < n; ++i) {
        // A checkpointed FIFO's contents always fit: capacity is
        // config, and the snapshot was taken under the same config.
        if (!f.push(loadPacket(r)))
            throw SerdeError("checkpointed FIFO contents exceed "
                             "configured capacity");
    }
}

} // namespace

void
RoseBridge::saveState(StateWriter &w) const
{
    saveFifo(w, rx_);
    saveFifo(w, tx_);
    w.u64(rxReadPos_);
    savePacket(w, txStaging_);
    w.u32(txExpectedLen_);
    w.u64(budget_);
    w.u64(cyclesPerSync_);
    w.u64(stats_.mmioReads);
    w.u64(stats_.mmioWrites);
    w.u64(stats_.rxPackets);
    w.u64(stats_.txPackets);
    w.u64(stats_.rxDropped);
    w.u64(stats_.txBackpressure);
    w.u64(stats_.syncGrants);
    w.u64(stats_.syncDones);
}

void
RoseBridge::restoreState(StateReader &r)
{
    loadFifo(r, rx_);
    loadFifo(r, tx_);
    rxReadPos_ = r.u64();
    txStaging_ = loadPacket(r);
    txExpectedLen_ = r.u32();
    budget_ = r.u64();
    cyclesPerSync_ = r.u64();
    stats_.mmioReads = r.u64();
    stats_.mmioWrites = r.u64();
    stats_.rxPackets = r.u64();
    stats_.txPackets = r.u64();
    stats_.rxDropped = r.u64();
    stats_.txBackpressure = r.u64();
    stats_.syncGrants = r.u64();
    stats_.syncDones = r.u64();
}

} // namespace rose::bridge
