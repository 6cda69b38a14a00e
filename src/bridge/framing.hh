/**
 * @file
 * The one validated frame decoder, shared by bridge packets and serve
 * messages.
 *
 * A frame is a 1-byte type and a 4-byte little-endian payload length,
 * then the payload (Section 3.4.1: "a header, containing the packet
 * type and number of bytes, as well as a payload"). A frame struct
 * (bridge::Packet, serve::Message) supplies its `type` and `payload`
 * members plus three statics: `validType(uint8_t)`, the payload bound
 * `kMaxPayload`, and `kKind`, the noun used in diagnostics.
 *
 * The header is validated before any payload allocation: an unknown
 * type byte or a length above the bound is Malformed, never an
 * allocation or a wait for bytes that can never legitimately arrive.
 * A FrameDecoder poisons itself on Malformed — a length-prefixed
 * stream cannot be resynchronized once framing is lost.
 */

#ifndef ROSE_BRIDGE_FRAMING_HH
#define ROSE_BRIDGE_FRAMING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/serde.hh"

namespace rose::bridge {

/** Header bytes on the wire: 1 type byte + 4 length bytes. */
constexpr size_t kFrameHeaderBytes = 5;

/** Outcome of attempting to decode one frame from a byte stream. */
enum class FrameStatus : uint8_t
{
    Ok,        ///< a complete, valid frame was decoded
    NeedMore,  ///< the buffer holds only a prefix of a valid frame
    Malformed, ///< the header is invalid; the stream cannot be trusted
};

/** Append one frame (header + payload) to a byte stream. */
template <class Frame>
void
serializeFrame(const Frame &f, std::vector<uint8_t> &out)
{
    out.push_back(uint8_t(f.type));
    uint32_t len = uint32_t(f.payload.size());
    for (int i = 0; i < 4; ++i)
        out.push_back(uint8_t(len >> (8 * i)));
    out.insert(out.end(), f.payload.begin(), f.payload.end());
}

/**
 * Parse one frame from the front of a byte range.
 * @param consumed set to the bytes consumed (only nonzero on Ok).
 */
template <class Frame>
FrameStatus
tryDecodeFrame(const uint8_t *data, size_t size, size_t &consumed,
               Frame &out, std::string *error = nullptr)
{
    consumed = 0;
    if (size < kFrameHeaderBytes)
        return FrameStatus::NeedMore;
    StateReader hdr(data, kFrameHeaderBytes);
    uint8_t type = hdr.u8();
    uint32_t len = hdr.u32();
    if (!Frame::validType(type)) {
        if (error)
            *error = detail::concat("unknown ", Frame::kKind,
                                    " type byte 0x", std::hex,
                                    unsigned(type));
        return FrameStatus::Malformed;
    }
    if (len > Frame::kMaxPayload) {
        if (error)
            *error = detail::concat(Frame::kKind, " payload length ", len,
                                    " exceeds its ", Frame::kMaxPayload,
                                    "-byte bound");
        return FrameStatus::Malformed;
    }
    if (size - kFrameHeaderBytes < len)
        return FrameStatus::NeedMore;
    out.type = decltype(out.type)(type);
    out.payload.assign(data + kFrameHeaderBytes,
                       data + kFrameHeaderBytes + len);
    consumed = kFrameHeaderBytes + len;
    return FrameStatus::Ok;
}

/**
 * Receive-side frame accumulator: append raw stream bytes, drain
 * complete frames. Consumption uses a read cursor with amortized
 * compaction, so draining N frames costs O(bytes), not the O(n²) a
 * per-frame vector erase would.
 */
template <class Frame>
class FrameDecoder
{
  public:
    void append(const uint8_t *data, size_t n)
    {
        buf_.insert(buf_.end(), data, data + n);
    }

    /** Decode the next frame; on Malformed the decoder is poisoned
     *  and every later call returns Malformed. */
    FrameStatus next(Frame &out, std::string *error = nullptr)
    {
        if (poisoned_) {
            if (error)
                *error = poisonError_;
            return FrameStatus::Malformed;
        }
        size_t consumed = 0;
        std::string err;
        FrameStatus s = tryDecodeFrame(buf_.data() + pos_,
                                       buf_.size() - pos_, consumed, out,
                                       &err);
        switch (s) {
          case FrameStatus::Ok:
            pos_ += consumed;
            // Drop the consumed prefix only once it dominates the
            // buffer, keeping the drain linear overall.
            if (pos_ == buf_.size()) {
                buf_.clear();
                pos_ = 0;
            } else if (pos_ >= 4096 && pos_ * 2 >= buf_.size()) {
                buf_.erase(buf_.begin(),
                           buf_.begin() + std::ptrdiff_t(pos_));
                pos_ = 0;
            }
            break;
          case FrameStatus::NeedMore:
            break;
          case FrameStatus::Malformed:
            poisoned_ = true;
            poisonError_ = err;
            if (error)
                *error = err;
            break;
        }
        return s;
    }

    /** Bytes buffered but not yet decoded. */
    size_t pendingBytes() const { return buf_.size() - pos_; }

    void clear()
    {
        buf_.clear();
        pos_ = 0;
        poisoned_ = false;
        poisonError_.clear();
    }

  private:
    std::vector<uint8_t> buf_;
    size_t pos_ = 0;
    bool poisoned_ = false;
    std::string poisonError_;
};

} // namespace rose::bridge

#endif // ROSE_BRIDGE_FRAMING_HH
