#include "rng.hh"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>

#include "serde.hh"

namespace rose {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t v, int k)
{
    return (v << k) | (v >> (64 - k));
}

/** One xoshiro256** step on @p s. */
inline uint64_t
xoshiro(uint64_t (&s)[4])
{
    uint64_t result = rotl(s[1] * 5, 7) * 9;
    uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

/** 53 high bits -> double in [0,1). */
inline double
unitDouble(uint64_t v)
{
    return (v >> 11) * (1.0 / 9007199254740992.0);
}

/** The Box-Muller pair {r cos(theta), r sin(theta)} of (u1, u2). */
inline void
boxMullerPair(double u1, double u2, double &cos_draw, double &sin_draw)
{
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * 3.14159265358979323846 * u2;
    sin_draw = r * std::sin(theta);
    cos_draw = r * std::cos(theta);
}

/** u1 of one Box-Muller pair: zero is redrawn. */
template <class Uniform>
inline double
boxMullerU1(Uniform &&uniform)
{
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    return u1;
}

/** One Box-Muller pair from @p uniform: u1 first, then u2. */
template <class Uniform>
inline void
boxMuller(Uniform &&uniform, double &cos_draw, double &sin_draw)
{
    double u1 = boxMullerU1(uniform);
    double u2 = uniform();
    boxMullerPair(u1, u2, cos_draw, sin_draw);
}

// Four-lane vectors. GCC splits them into independent halves for
// the target's vector unit (two SSE2 ops on baseline x86-64), which
// interleaves two pairs of dependency chains. They pass only by
// reference, so no function's ABI depends on the target's vectors.
constexpr size_t kLanes = 4;
typedef double f64xN __attribute__((vector_size(8 * kLanes)));
typedef uint64_t u64xN __attribute__((vector_size(8 * kLanes)));

constexpr double kU = 0x1p-53; ///< unit roundoff of double

/**
 * |fl(mean + stddev * r_a*c_a) - fl(mean + stddev * r_g*c_g)| <=
 * 70 u * |stddev| * r_a + 2 u * |o| between the approximation (a) and
 * the libm expression (g); the fill takes twice that (DESIGN.md 5h).
 */
constexpr double kFillSlack = 140.0 * kU;

/** p = top * z^n + c1 * z^(n-1) + ... + cn by Horner's rule. */
template <class... C>
inline void
horner(f64xN &p, const f64xN &z, double top, C... rest)
{
    p = f64xN{} + top;
    ((p = p * z + rest), ...);
}

/**
 * Approximate kLanes Box-Muller pairs (u1[l], u2[l]) and bound them:
 * o_cos/o_sin get mean + stddev * (r * cos/sin(2*pi*u2)) from
 * polynomials, d_cos/d_sin a bound on their distance to the libm
 * expression's value. Every constant and bound is derived in
 * DESIGN.md section 5h ("Certified camera noise").
 *
 * log(u1) = k*ln2 + 2*atanh(s) with u1 = 2^k * m, m in [sqrt(2)/2,
 * sqrt(2)), s = (m - 1) / (m + 1), |s| < 0.1716, and the atanh series
 * cut after s^17. cos/sin(2*pi*u2) reduce exactly: 4*u2 = q + f with q
 * the nearest integer, |f| <= 1/2, x = f*pi/2, and the quadrant
 * q mod 4 swaps and negates the Taylor series of cos x and sin x, cut
 * after x^14 and x^15.
 */
inline void
approxPairs(const double *u1, const double *u2, double mean,
            double stddev, double *o_cos, double *o_sin, double *d_cos,
            double *d_sin)
{
    f64xN v1, v2;
    std::memcpy(&v1, u1, sizeof(v1));
    std::memcpy(&v2, u2, sizeof(v2));

    // Exponent split by integer arithmetic on the bits: m = u1 * 2^-k
    // exactly, with k + 1024 in the top bits of `top`.
    constexpr uint64_t kHalfSqrt2Bits = 0x3fe6a09e667f3bcdULL;
    constexpr uint64_t kBias = uint64_t(1024) << 52;
    u64xN bits = (u64xN)v1;
    u64xN top = (bits - kHalfSqrt2Bits + kBias) >> 52;
    f64xN m = (f64xN)(bits - ((top - 1024) << 52));
    // k as a double: the small integer top sits in the low mantissa
    // bits of 2^52 + top.
    f64xN k = (f64xN)(top | 0x4330000000000000ULL) - (0x1p52 + 1024.0);
    f64xN s = (m - 1.0) / (m + 1.0);
    f64xN p;
    horner(p, s * s, 1.0 / 17, 1.0 / 15, 1.0 / 13, 1.0 / 11, 1.0 / 9,
           1.0 / 7, 1.0 / 5, 1.0 / 3, 1.0);
    f64xN two_log = -2.0 * (k * 0.6931471805599453 + 2.0 * (s * p));
    f64xN r = two_log;
    for (size_t l = 0; l < kLanes; ++l)
        r[l] = std::sqrt(r[l]);

    // Round-to-nearest by the 1.5 * 2^52 shift; q lands in the low
    // bits of `shifted`.
    f64xN t = 4.0 * v2;
    f64xN shifted = t + 0x1.8p52;
    f64xN x = (t - (shifted - 0x1.8p52)) * 1.5707963267948966;
    u64xN q = (u64xN)shifted;
    f64xN x2 = x * x;
    f64xN sin_x, cos_x;
    horner(sin_x, x2, -1.0 / 1307674368000, 1.0 / 6227020800,
           -1.0 / 39916800, 1.0 / 362880, -1.0 / 5040, 1.0 / 120,
           -1.0 / 6, 1.0);
    sin_x = x * sin_x;
    horner(cos_x, x2, -1.0 / 87178291200, 1.0 / 479001600,
           -1.0 / 3628800, 1.0 / 40320, -1.0 / 720, 1.0 / 24, -1.0 / 2,
           1.0);

    // Quadrant q mod 4: cos(theta) = cos x, -sin x, -cos x, sin x and
    // sin(theta) = sin x, cos x, -sin x, -cos x.
    u64xN odd = -(q & 1);
    u64xN a = ((u64xN)sin_x & odd) | ((u64xN)cos_x & ~odd);
    u64xN b = ((u64xN)cos_x & odd) | ((u64xN)sin_x & ~odd);
    f64xN oc = mean + stddev * (r * (f64xN)(a ^ (((q + 1) & 2) << 62)));
    f64xN os = mean + stddev * (r * (f64xN)(b ^ ((q & 2) << 62)));

    constexpr uint64_t kMagnitude = 0x7fffffffffffffffULL;
    f64xN scale = kFillSlack * (std::fabs(stddev) * r) + DBL_MIN;
    f64xN dc = scale + 4.0 * kU * (f64xN)((u64xN)oc & kMagnitude);
    f64xN ds = scale + 4.0 * kU * (f64xN)((u64xN)os & kMagnitude);
    std::memcpy(o_cos, &oc, sizeof(oc));
    std::memcpy(o_sin, &os, sizeof(os));
    std::memcpy(d_cos, &dc, sizeof(dc));
    std::memcpy(d_sin, &ds, sizeof(ds));
}

/** Pairs per certified block of Rng::gaussianFill. */
constexpr size_t kFillBlock = 16;
static_assert(kFillBlock % kLanes == 0);

/**
 * Write float(o) to @p out and return true when every double within
 * @p d of @p o rounds to that float (sign of zero included).
 */
inline bool
certify(double o, double d, float &out)
{
    float lo = float(o - d);
    float hi = float(o + d);
    out = lo;
    return lo == hi && std::signbit(lo) == std::signbit(hi);
}

} // namespace

void
Rng::reseed(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
    haveSpare_ = false;
}

uint64_t
Rng::next()
{
    return xoshiro(s_);
}

double
Rng::uniform()
{
    return unitDouble(next());
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    // Rejection-free modulo is fine for simulation noise streams.
    return next() % n;
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double draw = 0.0;
    boxMuller([this] { return uniform(); }, draw, spare_);
    haveSpare_ = true;
    return draw;
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

void
Rng::gaussianFill(double mean, double stddev, float *out, size_t n)
{
    size_t i = 0;
    if (n > 0 && haveSpare_) {
        haveSpare_ = false;
        out[i++] = float(mean + stddev * spare_);
    }
    if (i == n)
        return;
    uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    auto uniform = [&s] { return unitDouble(xoshiro(s)); };
    // Pairs still to draw. All but the last are approximated and
    // certified in blocks; the last is exact, since its sin draw is
    // the spare_ the scalar calls leave.
    size_t pairs = (n - i + 1) / 2;
    double u1[kFillBlock], u2[kFillBlock];
    double o_cos[kFillBlock], o_sin[kFillBlock];
    double d_cos[kFillBlock], d_sin[kFillBlock];
    while (pairs > 1) {
        size_t block = std::min(pairs - 1, kFillBlock);
        for (size_t k = 0; k < block; ++k) {
            u1[k] = boxMullerU1(uniform);
            u2[k] = uniform();
        }
        for (size_t k = block; k % kLanes != 0; ++k)
            u1[k] = u2[k] = 0.5;
        for (size_t k = 0; k < block; k += kLanes)
            approxPairs(u1 + k, u2 + k, mean, stddev, o_cos + k,
                        o_sin + k, d_cos + k, d_sin + k);
        for (size_t k = 0; k < block; ++k, i += 2) {
            if (certify(o_cos[k], d_cos[k], out[i]) &&
                certify(o_sin[k], d_sin[k], out[i + 1]))
                continue;
            double cos_draw = 0.0, sin_draw = 0.0;
            boxMullerPair(u1[k], u2[k], cos_draw, sin_draw);
            out[i] = float(mean + stddev * cos_draw);
            out[i + 1] = float(mean + stddev * sin_draw);
        }
        pairs -= block;
    }
    double cos_draw = 0.0;
    boxMuller(uniform, cos_draw, spare_);
    out[i++] = float(mean + stddev * cos_draw);
    haveSpare_ = i == n;
    if (!haveSpare_)
        out[i] = float(mean + stddev * spare_);
    for (int k = 0; k < 4; ++k)
        s_[k] = s[k];
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa02e1c5d87f3b911ULL);
}

void
Rng::saveState(StateWriter &w) const
{
    for (uint64_t s : s_)
        w.u64(s);
    w.boolean(haveSpare_);
    w.f64(spare_);
}

void
Rng::restoreState(StateReader &r)
{
    for (uint64_t &s : s_)
        s = r.u64();
    haveSpare_ = r.boolean();
    spare_ = r.f64();
}

} // namespace rose
