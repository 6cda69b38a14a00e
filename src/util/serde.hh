/**
 * @file
 * The one little-endian byte codec: checkpoints, bridge packets, the
 * serve protocol and the job journal all read and write through it.
 *
 * StateWriter/StateReader implement a fixed-width little-endian wire
 * form with no alignment, no implicit framing, and no allocation
 * beyond the backing vector. Every stateful simulation component
 * exposes saveState(StateWriter&) / restoreState(StateReader&) built
 * on these primitives; core/checkpoint.{hh,cc} adds the tagged
 * section framing and integrity hash on top. The reader bounds every
 * length it reads (str(max), count()) against the bytes that remain
 * before anything is allocated, so corrupt input costs a SerdeError,
 * never an unbounded allocation.
 *
 * Structs that travel as a unit list their fields once in a static
 * `fields(S &s, F &&f)` member; writeFields()/readFields() walk that
 * list. Strings and byte vectors are listed through bounded(), enums
 * through ranged(), so each carries its bound or range exactly once.
 *
 * Doubles are serialized as their IEEE-754 bit pattern (bit_cast via
 * memcpy), so a round trip is bit-exact — which is what makes
 * resume-from-checkpoint missions hash-identical to uninterrupted
 * ones (see tests/test_checkpoint.cc golden resume).
 */

#ifndef ROSE_UTIL_SERDE_HH
#define ROSE_UTIL_SERDE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/logging.hh"

namespace rose {

/**
 * Thrown on malformed or truncated bytes anywhere: checkpoint state,
 * bridge packet payloads, serve messages and journal records.
 */
class SerdeError : public std::runtime_error
{
  public:
    explicit SerdeError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Append-only little-endian byte sink. */
class StateWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }

    void u16(uint16_t v)
    {
        buf_.push_back(uint8_t(v));
        buf_.push_back(uint8_t(v >> 8));
    }

    void u32(uint32_t v)
    {
        const uint8_t b[4] = {uint8_t(v), uint8_t(v >> 8),
                              uint8_t(v >> 16), uint8_t(v >> 24)};
        buf_.insert(buf_.end(), b, b + 4);
    }

    void u64(uint64_t v)
    {
        u32(uint32_t(v));
        u32(uint32_t(v >> 32));
    }

    void f64(double v)
    {
        uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void f32(float v)
    {
        uint32_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v), "float must be 32-bit");
        std::memcpy(&bits, &v, sizeof(bits));
        u32(bits);
    }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(const std::string &s)
    {
        u32(uint32_t(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    void bytes(const uint8_t *data, size_t n)
    {
        buf_.insert(buf_.end(), data, data + n);
    }

    /** Pre-size the backing vector for @p n bytes in total. */
    void reserve(size_t n) { buf_.reserve(n); }

    /**
     * Append @p n bytes for the caller to fill in place (with store64)
     * through the returned pointer, which the next append invalidates:
     * one resize for a sized run of fields.
     */
    uint8_t *extend(size_t n)
    {
        size_t at = buf_.size();
        buf_.resize(at + n);
        return buf_.data() + at;
    }

    /** Overwrite the u32 at byte @p at, e.g. a length written as a
     *  placeholder before its body. */
    void patchU32(size_t at, uint32_t v)
    {
        rose_assert(at + 4 <= buf_.size(), "patch past the end");
        for (int i = 0; i < 4; ++i)
            buf_[at + i] = uint8_t(v >> (8 * i));
    }

    /** Store @p v at @p p in the byte order u64() appends. */
    static void store64(uint8_t *p, uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            p[i] = uint8_t(v >> (8 * i));
    }

    const std::vector<uint8_t> &data() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked little-endian byte source; throws SerdeError. */
class StateReader
{
  public:
    StateReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit StateReader(const std::vector<uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {}

    uint8_t u8()
    {
        need(1);
        return data_[pos_++];
    }

    uint16_t u16()
    {
        need(2);
        uint16_t v = uint16_t(data_[pos_] | (data_[pos_ + 1] << 8));
        pos_ += 2;
        return v;
    }

    uint32_t u32()
    {
        need(4);
        uint32_t v = load32(data_ + pos_);
        pos_ += 4;
        return v;
    }

    uint64_t u64()
    {
        need(8);
        uint64_t v = load32(data_ + pos_) |
                     uint64_t(load32(data_ + pos_ + 4)) << 32;
        pos_ += 8;
        return v;
    }

    double f64()
    {
        uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    float f32()
    {
        uint32_t bits = u32();
        float v = 0.0f;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool boolean() { return u8() != 0; }

    /** A length-prefixed string of at most @p max bytes. */
    std::string str(size_t max = SIZE_MAX)
    {
        uint32_t n = u32();
        if (n > max)
            throw SerdeError("string of " + std::to_string(n) +
                             " bytes exceeds its " + std::to_string(max) +
                             "-byte bound");
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    void bytes(uint8_t *out, size_t n)
    {
        need(n);
        if (n > 0)
            std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    /**
     * A u32 element count, checked before the caller allocates: @p n
     * elements of at least @p min_elem_bytes each must fit in the
     * bytes that remain.
     */
    uint32_t count(size_t min_elem_bytes)
    {
        uint32_t n = u32();
        if (min_elem_bytes > 0 && n > remaining() / min_elem_bytes)
            throw SerdeError("count " + std::to_string(n) + " of " +
                             std::to_string(min_elem_bytes) +
                             "-byte elements overruns the " +
                             std::to_string(remaining()) +
                             " bytes left");
        return n;
    }

    /** Skip n bytes (used to step over unknown/disabled sections). */
    void skip(size_t n)
    {
        need(n);
        pos_ += n;
    }

    size_t remaining() const { return size_ - pos_; }
    size_t pos() const { return pos_; }

  private:
    /** Spelled out so the compiler folds it into one load. */
    static uint32_t load32(const uint8_t *p)
    {
        return uint32_t(p[0]) | uint32_t(p[1]) << 8 |
               uint32_t(p[2]) << 16 | uint32_t(p[3]) << 24;
    }

    void need(size_t n) const
    {
        if (size_ - pos_ < n)
            underrun(n);
    }

    // Out of line so the bounds check stays small enough to inline
    // into per-field decode loops.
    [[noreturn, gnu::cold, gnu::noinline]] void underrun(size_t n) const
    {
        throw SerdeError("byte underrun (need " + std::to_string(n) +
                         " bytes, have " + std::to_string(size_ - pos_) +
                         ")");
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

// --------------------------------------------------------------------
// Struct-described fields.

/** A string or byte-vector field with its length bound. */
template <class T>
struct Bounded
{
    T &value;
    size_t max;
};

template <class T>
Bounded<T>
bounded(T &v, size_t max)
{
    return {v, max};
}

/** An enum (or integer) field travelling as one byte in [lo, hi]. */
template <class E>
struct Ranged
{
    E &value;
    std::remove_const_t<E> lo, hi;
};

template <class E>
Ranged<E>
ranged(E &v, std::type_identity_t<std::remove_const_t<E>> lo,
       std::type_identity_t<std::remove_const_t<E>> hi)
{
    return {v, lo, hi};
}

namespace serde_detail {

template <class T> struct IsBounded : std::false_type {};
template <class T> struct IsBounded<Bounded<T>> : std::true_type {};
template <class T> struct IsRanged : std::false_type {};
template <class T> struct IsRanged<Ranged<T>> : std::true_type {};

/** Field visitor that appends each listed field to a StateWriter. */
struct FieldWriter
{
    StateWriter &w;

    template <class... Ts>
    void operator()(const Ts &...fs) const { (put(fs), ...); }

    template <class T>
    void put(const T &v) const
    {
        if constexpr (IsBounded<T>::value) {
            rose_assert(v.value.size() <= v.max,
                        "field exceeds its wire bound");
            w.u32(uint32_t(v.value.size()));
            w.bytes(reinterpret_cast<const uint8_t *>(v.value.data()),
                    v.value.size());
        } else if constexpr (IsRanged<T>::value) {
            w.u8(uint8_t(v.value));
        } else if constexpr (std::is_same_v<T, bool>) {
            w.boolean(v);
        } else if constexpr (std::is_same_v<T, uint8_t>) {
            w.u8(v);
        } else if constexpr (std::is_same_v<T, uint32_t> ||
                             std::is_same_v<T, int32_t>) {
            w.u32(uint32_t(v));
        } else if constexpr (std::is_same_v<T, uint64_t>) {
            w.u64(v);
        } else {
            static_assert(std::is_same_v<T, double>,
                          "unsupported field type");
            w.f64(v);
        }
    }
};

/** Field visitor that reads each listed field from a StateReader. */
struct FieldReader
{
    StateReader &r;

    template <class... Ts>
    void operator()(Ts &&...fs) const { (get(fs), ...); }

    template <class T>
    void get(T &v) const
    {
        if constexpr (std::is_same_v<T, Bounded<std::string>>) {
            v.value = r.str(v.max);
        } else if constexpr (IsBounded<T>::value) {
            uint32_t n = r.count(1);
            if (n > v.max)
                throw SerdeError("field of " + std::to_string(n) +
                                 " bytes exceeds its " +
                                 std::to_string(v.max) + "-byte bound");
            v.value.resize(n);
            r.bytes(v.value.data(), n);
        } else if constexpr (IsRanged<T>::value) {
            uint8_t raw = r.u8();
            if (raw < uint8_t(v.lo) || raw > uint8_t(v.hi))
                throw SerdeError("byte " + std::to_string(raw) +
                                 " outside its range [" +
                                 std::to_string(unsigned(v.lo)) + ", " +
                                 std::to_string(unsigned(v.hi)) + "]");
            v.value = decltype(v.lo)(raw);
        } else if constexpr (std::is_same_v<T, bool>) {
            v = r.boolean();
        } else if constexpr (std::is_same_v<T, uint8_t>) {
            v = r.u8();
        } else if constexpr (std::is_same_v<T, uint32_t> ||
                             std::is_same_v<T, int32_t>) {
            v = T(r.u32());
        } else if constexpr (std::is_same_v<T, uint64_t>) {
            v = r.u64();
        } else {
            static_assert(std::is_same_v<T, double>,
                          "unsupported field type");
            v = r.f64();
        }
    }
};

} // namespace serde_detail

/** Append every field @p T::fields lists, in order. */
template <class T>
void
writeFields(StateWriter &w, const T &v)
{
    T::fields(v, serde_detail::FieldWriter{w});
}

/** Read every field @p T::fields lists, in order. */
template <class T>
void
readFields(StateReader &r, T &v)
{
    T::fields(v, serde_detail::FieldReader{r});
}

} // namespace rose

#endif // ROSE_UTIL_SERDE_HH
