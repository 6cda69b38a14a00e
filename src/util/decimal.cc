#include "decimal.hh"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rose {

namespace {

/** 10^0 … 10^22: the powers of ten a double holds exactly. */
constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                             1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                             1e12, 1e13, 1e14, 1e15, 1e16, 1e17,
                             1e18, 1e19, 1e20, 1e21, 1e22};
constexpr int kMaxPow10 = 22;

/** The scaled value is within 2^-53·1e6 < 1.2e-10 of the exact one; a
 *  fraction closer than this to ½ is left to libc. */
constexpr double kTieMargin = 1e-9;

size_t
viaLibc(double v, char *out, double *printed)
{
    int n = std::snprintf(out, kG6Bytes, "%.6g", v);
    if (printed)
        *printed = std::strtod(out, nullptr);
    return size_t(n);
}

/** a·10^k in one correctly rounded operation (|k| ≤ 22). */
double
scaled(double a, int k)
{
    return k >= 0 ? a * kPow10[k] : a / kPow10[-k];
}

} // namespace

size_t
formatG6(double v, char *out, double *printed)
{
    char *p = out;
    if (v == 0.0) {
        if (std::signbit(v))
            *p++ = '-';
        *p++ = '0';
        if (printed)
            *printed = v;
        return size_t(p - out);
    }
    if (!std::isfinite(v))
        return viaLibc(v, out, printed);

    // |v| is in [2^e2, 2^(e2+1)), so its decimal exponent is
    // floor(e2·log10 2) or one more; (e2·78913) >> 18 is that floor.
    const double a = std::fabs(v);
    uint64_t bits;
    std::memcpy(&bits, &a, sizeof bits);
    const int e2 = int(bits >> 52) - 1023;
    int k = 5 - ((e2 * 78913) >> 18);
    if (k < -kMaxPow10 || k > kMaxPow10)
        return viaLibc(v, out, printed);
    double y = scaled(a, k);
    if (y >= 1e6) {
        if (--k < -kMaxPow10)
            return viaLibc(v, out, printed);
        y = scaled(a, k);
    }
    // y rounded across a decade boundary.
    if (!(y >= 1e5 && y < 1e6))
        return viaLibc(v, out, printed);

    int64_t n = int64_t(y);
    const double frac = y - double(n); // exact (Sterbenz: n <= y < 2n)
    if (std::fabs(frac - 0.5) < kTieMargin)
        return viaLibc(v, out, printed);
    if (frac > 0.5)
        ++n;
    int x = 5 - k; // decimal exponent of the leading digit
    if (n == 1000000) {
        n = 100000;
        ++x;
    }
    // The text denotes n·10^-j; with n and 10^|j| exact, one division
    // or multiplication rounds it correctly, as strtod does.
    const int j = 5 - x;
    if (j < -kMaxPow10)
        return viaLibc(v, out, printed);
    if (printed) {
        double d = j >= 0 ? double(n) / kPow10[j] : double(n) * kPow10[-j];
        *printed = v < 0 ? -d : d;
    }

    char digits[6];
    for (int i = 5; i >= 0; --i, n /= 10)
        digits[i] = char('0' + n % 10);
    int last = 5; // last digit kept once trailing zeros are stripped
    while (digits[last] == '0')
        --last;

    if (v < 0)
        *p++ = '-';
    if (x < -4 || x >= 6) {
        // Exponent form; |x| ≤ 28 here, so two exponent digits.
        *p++ = digits[0];
        if (last > 0) {
            *p++ = '.';
            std::memcpy(p, digits + 1, size_t(last));
            p += last;
        }
        *p++ = 'e';
        *p++ = x < 0 ? '-' : '+';
        *p++ = char('0' + std::abs(x) / 10);
        *p++ = char('0' + std::abs(x) % 10);
    } else if (x >= 0) {
        std::memcpy(p, digits, size_t(x + 1));
        p += x + 1;
        if (last > x) {
            *p++ = '.';
            std::memcpy(p, digits + x + 1, size_t(last - x));
            p += last - x;
        }
    } else {
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > x; --i)
            *p++ = '0';
        std::memcpy(p, digits, size_t(last + 1));
        p += last + 1;
    }
    return size_t(p - out);
}

} // namespace rose
