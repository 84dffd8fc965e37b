/**
 * @file
 * Plain-text table rendering for the benchmark harnesses.
 *
 * Every experiment binary prints the rows/series the paper reports;
 * TextTable keeps the formatting consistent (column alignment, an
 * optional title, and CSV export for post-processing).  The put*
 * primitive below is the code's one way to format a number as text
 * outside a stream: the sweep's CSV/JSON rows, fixed() and ratio().
 */

#ifndef CFVA_COMMON_TABLE_H
#define CFVA_COMMON_TABLE_H

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"

namespace cfva {

/** A simple right-aligned text table with a header row. */
class TextTable
{
  public:
    /** Creates a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Appends a row of preformatted cells; must match column count. */
    void addRow(std::vector<std::string> cells);

    /** Appends a row, converting each value with operator<<. */
    template <typename... Ts>
    void
    row(const Ts &...vals)
    {
        std::vector<std::string> cells;
        cells.reserve(sizeof...(vals));
        (cells.push_back(format(vals)), ...);
        addRow(std::move(cells));
    }

    /** Renders the table; @p title prints above when nonempty. */
    void print(std::ostream &os, const std::string &title = "") const;

    /** Renders as CSV (no title). */
    void printCsv(std::ostream &os) const;

    std::size_t rows() const { return rows_.size(); }
    std::size_t columns() const { return headers_.size(); }

    /** Read-back used by harness self-tests. */
    const std::string &cell(std::size_t r, std::size_t c) const;

  private:
    template <typename T>
    static std::string
    format(const T &v)
    {
        std::ostringstream os;
        os << v;
        return os.str();
    }

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * @name The one formatting primitive
 * Each writes into the caller's buffer [@p first, @p last) and
 * returns the end of what it wrote; numbers go through std::to_chars
 * (locale-free, no stream state, no allocation).  Text that does not
 * fit panics.  The row sinks build whole rows with these, and
 * fixed() and ratio() are thin wrappers over them.
 * @{
 */

/** Writes @p v in decimal (at most 20 chars). */
inline char *
putUint(char *first, char *last, std::uint64_t v)
{
    const auto [end, ec] = std::to_chars(first, last, v);
    cfva_assert(ec == std::errc{}, "putUint(", v,
                ") overflows its buffer");
    return end;
}

/** Writes @p v with @p digits fractional digits: printf's "%.*f",
 *  the same bytes as std::fixed stream insertion. */
char *putFixed(char *first, char *last, double v, int digits);

/** Copies @p s. */
inline char *
putText(char *first, char *last, std::string_view s)
{
    cfva_assert(s.size() <= static_cast<std::size_t>(last - first),
                "putText(", s.size(), " chars) overflows its buffer");
    return std::copy(s.begin(), s.end(), first);
}

/** @} */

/** Formats @p v with @p digits fractional digits. */
std::string fixed(double v, int digits);

/** Formats a ratio like "31/32". */
std::string ratio(std::uint64_t num, std::uint64_t den);

} // namespace cfva

#endif // CFVA_COMMON_TABLE_H
