/**
 * @file
 * The one number formatter behind every trajectory CSV cell: printf's
 * "%.6g" (the same bytes as ostream's default float insertion), plus
 * the double that text denotes. The golden FNV-1a hashes, the served
 * trajectoryHash and the binary trajectory records are all over these
 * bytes and values, so the formatter is certified against libc rather
 * than approximate: DESIGN.md §5i gives the argument.
 */

#ifndef ROSE_UTIL_DECIMAL_HH
#define ROSE_UTIL_DECIMAL_HH

#include <cstddef>

namespace rose {

/** Buffer size formatG6 needs: "-1.23456e-308" plus a terminator. */
constexpr size_t kG6Bytes = 16;

/**
 * Write @p v into @p out (kG6Bytes of room) exactly as
 * snprintf(out, kG6Bytes, "%.6g", v) would and return the length; the
 * text is not always terminated. When @p printed is non-null it
 * receives the value of that decimal text, bit-identical to strtod of
 * it.
 */
size_t formatG6(double v, char *out, double *printed = nullptr);

} // namespace rose

#endif // ROSE_UTIL_DECIMAL_HH
