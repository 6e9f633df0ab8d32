#include "support/table.hh"

#include <algorithm>
#include <ostream>

#include "support/logging.hh"
#include "support/strutil.hh"

namespace cvliw
{

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (!rows_.empty() && cells.size() != rows_.front().size()) {
        cv_panic("table row with ", cells.size(), " cells; expected ",
                 rows_.front().size());
    }
    rows_.push_back(std::move(cells));
}

void
TextTable::print(std::ostream &os, bool with_header_rule) const
{
    if (rows_.empty())
        return;

    std::vector<std::size_t> widths(rows_.front().size(), 0);
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                os << "  ";
            // Left-align the first column (labels), right-align data.
            os << (c == 0 ? padRight(row[c], widths[c])
                          : padLeft(row[c], widths[c]));
        }
        os << '\n';
    };

    emit(rows_.front());
    if (with_header_rule && rows_.size() > 1) {
        std::size_t total = 0;
        for (std::size_t c = 0; c < widths.size(); ++c)
            total += widths[c] + (c ? 2 : 0);
        os << std::string(total, '-') << '\n';
    }
    for (std::size_t r = 1; r < rows_.size(); ++r)
        emit(rows_[r]);
}

} // namespace cvliw
