/**
 * @file
 * Minimal CSV emission, matching the paper's artifact output format:
 * "CSV logs from the synchronizer, tracking UAV dynamics, sensing
 * requests, and control targets."
 */

#ifndef ROSE_UTIL_CSV_HH
#define ROSE_UTIL_CSV_HH

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/decimal.hh"

namespace rose {

/**
 * Row-oriented CSV writer. Construct with a header; each row must supply
 * exactly as many cells as the header has columns.
 */
class CsvWriter
{
  public:
    /** Write to an externally-owned stream (e.g. std::cout). */
    CsvWriter(std::ostream &os, const std::vector<std::string> &header);

    /** Open and own a file stream; throws via fatal on failure. */
    CsvWriter(const std::string &path,
              const std::vector<std::string> &header);

    /** Append one row of already-formatted cells. */
    void writeRow(const std::vector<std::string> &cells);

    /** Append one row, formatting each value as operator<< would. */
    template <typename... Args>
    void
    row(Args &&...args)
    {
        std::vector<std::string> cells;
        cells.reserve(sizeof...(args));
        (cells.push_back(format(std::forward<Args>(args))), ...);
        writeRow(cells);
    }

    size_t columns() const { return columns_; }
    size_t rowsWritten() const { return rows_; }

  private:
    template <typename T>
    static std::string
    format(T &&v)
    {
        using U = std::decay_t<T>;
        if constexpr (std::is_same_v<U, double> ||
                      std::is_same_v<U, float>) {
            char buf[kG6Bytes];
            return std::string(buf, formatG6(v, buf));
        } else if constexpr (std::is_integral_v<U> && sizeof(U) > 1) {
            char buf[24];
            return std::string(buf,
                               std::to_chars(buf, buf + sizeof buf, v).ptr);
        } else {
            // Strings, and the one-byte bools and chars operator<<
            // prints as text.
            std::ostringstream os;
            os << v;
            return os.str();
        }
    }

    std::ofstream owned_;
    std::ostream *os_;
    size_t columns_;
    size_t rows_ = 0;
};

} // namespace rose

#endif // ROSE_UTIL_CSV_HH
