/**
 * @file
 * Fixed-width table printer for figure output: every table and figure
 * prints the paper's rows/series through this.
 */

#ifndef NETCRAFTER_HARNESS_TABLE_HH
#define NETCRAFTER_HARNESS_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace netcrafter::harness {

/** A simple column-aligned text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);
    void print(std::ostream &os) const;

    /** Format a double with @p precision decimals. */
    static std::string fmt(double v, int precision = 2);

    /** Format a ratio as a percentage string with @p precision. */
    static std::string pct(double v, int precision = 1);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace netcrafter::harness

#endif // NETCRAFTER_HARNESS_TABLE_HH
