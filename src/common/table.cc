#include "common/table.h"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <iterator>
#include <ostream>

#include "common/logging.h"

namespace cfva {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    cfva_assert(!headers_.empty(), "table needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    cfva_assert(cells.size() == headers_.size(),
                "row has ", cells.size(), " cells, table has ",
                headers_.size(), " columns");
    rows_.push_back(std::move(cells));
}

const std::string &
TextTable::cell(std::size_t r, std::size_t c) const
{
    cfva_assert(r < rows_.size() && c < headers_.size(),
                "cell (", r, ",", c, ") out of range");
    return rows_[r][c];
}

void
TextTable::print(std::ostream &os, const std::string &title) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    if (!title.empty())
        os << title << "\n";

    auto rule = [&] {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            os << '+' << std::string(widths[c] + 2, '-');
        }
        os << "+\n";
    };
    auto line = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << "| " << std::setw(static_cast<int>(widths[c]))
               << cells[c] << ' ';
        }
        os << "|\n";
    };

    rule();
    line(headers_);
    rule();
    for (const auto &row : rows_)
        line(row);
    rule();
}

void
TextTable::printCsv(std::ostream &os) const
{
    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c)
            os << (c ? "," : "") << cells[c];
        os << "\n";
    };
    emit(headers_);
    for (const auto &row : rows_)
        emit(row);
}

char *
putFixed(char *first, char *last, double v, int digits)
{
    const auto [end, ec] = std::to_chars(
        first, last, v, std::chars_format::fixed, digits);
    cfva_assert(ec == std::errc{}, "putFixed(", digits,
                " digits) overflows its buffer");
    return end;
}

std::string
fixed(double v, int digits)
{
    // Room for DBL_MAX's 309 integer digits, a sign, the point and
    // a generous precision.
    char buf[400];
    return std::string(buf, putFixed(buf, std::end(buf), v, digits));
}

std::string
ratio(std::uint64_t num, std::uint64_t den)
{
    char buf[41]; // two 20-digit numbers and the slash
    char *p = putUint(buf, std::end(buf), num);
    p = putText(p, std::end(buf), "/");
    return std::string(buf, putUint(p, std::end(buf), den));
}

} // namespace cfva
