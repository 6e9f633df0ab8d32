/**
 * @file
 * Fixed-width text table and CSV rendering used by the benchmark
 * harness to print paper-style result tables.
 */

#ifndef CVLIW_SUPPORT_TABLE_HH
#define CVLIW_SUPPORT_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace cvliw
{

/**
 * A simple column-aligned text table. The first added row is treated
 * as the header when printed with a separator rule.
 */
class TextTable
{
  public:
    /** Add a fully rendered row. */
    void addRow(std::vector<std::string> cells);

    /** Number of rows added so far (including the header). */
    std::size_t numRows() const { return rows_.size(); }

    /**
     * Render the table.
     * @param os destination stream
     * @param with_header_rule when true, draw a dashed rule after the
     *        first row
     */
    void print(std::ostream &os, bool with_header_rule = true) const;

  private:
    std::vector<std::vector<std::string>> rows_;
};

} // namespace cvliw

#endif // CVLIW_SUPPORT_TABLE_HH
