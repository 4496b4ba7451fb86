/**
 * @file
 * Table printing and machine-readable output for machvm_bench.
 *
 * A workload prints its results as table rows.  A cell made with
 * ns(), count() or ratio() is printed and is also one gated record
 *
 *     {"benchmark": ..., "arch": ..., "metric": ..., "value": ...,
 *      "unit": ...}
 *
 * so each value is passed once, and the table and the `--json <path>`
 * output cannot disagree.  tools/check_bench.py compares that file
 * against bench/baselines/: "count" metrics must match exactly (the
 * simulation is deterministic), "ns" (simulated time) and "ratio"
 * metrics within a small relative slack.
 */

#ifndef MACH_BENCH_BENCH_REPORT_HH
#define MACH_BENCH_BENCH_REPORT_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/trace.hh"

namespace mach::bench
{

/** printf one double, e.g. format("%.2fms", t / 1e6). */
std::string format(const char *fmt, double v);

/** @name Simulated-time formats, like the paper's tables @{ */
inline std::string ms(SimTime t) { return format("%.2fms", t / 1e6); }
inline std::string us(SimTime t) { return format("%.1fus", t / 1e3); }
inline std::string sec(SimTime t) { return format("%.1fs", t / 1e9); }
std::string minSec(SimTime t);  //!< "19:58"
/** @} */

/** One table cell: printed text, and a gated record if @p metric. */
struct Cell
{
    Cell(std::string text_, std::string metric_ = "", double value_ = 0,
         const char *unit_ = "")
        : text(std::move(text_)), metric(std::move(metric_)),
          value(value_), unit(unit_)
    {}
    Cell(const char *text_) : Cell(std::string(text_)) {}

    std::string text;
    std::string metric;
    double value;
    const char *unit;
};

/** Simulated time, recorded in ns and printed with @p fmt. */
inline Cell
ns(std::string metric, SimTime t, std::string (*fmt)(SimTime) = ms)
{
    return {fmt(t), std::move(metric), double(t), "ns"};
}

/** An exact count. */
inline Cell
count(std::string metric, std::uint64_t n)
{
    return {std::to_string(n), std::move(metric), double(n), "count"};
}

/** A fraction, printed as a percentage. */
inline Cell
ratio(std::string metric, double r)
{
    return {format("%.0f%%", r * 100), std::move(metric), r, "ratio"};
}

/** A table column: header and printf width (negative: left). */
struct Column
{
    const char *name;
    int width;
};

class Report
{
  public:
    /**
     * Parses `--json <path>`, `--trace-out <path>` (or
     * `--trace-out=<path>`) and `--tasks <n>`; any other argument
     * not starting with `--` is a benchmark name.
     */
    Report(int argc, char **argv);

    /** False if the command line had an unknown option. */
    bool ok() const { return valid; }
    const std::vector<std::string> &names() const { return selected; }
    /** `--tasks <n>`: the churn storm's size (default 10000). */
    unsigned tasks() const { return taskCount; }
    bool jsonRequested() const { return !path.empty(); }

    /** Start a benchmark: print its title and tag its records. */
    void begin(const std::string &benchmark, const char *title);

    /**
     * With `--trace-out`, attach the trace sink to @p clock, reset:
     * the exported file covers the last attached run.  Tracing
     * charges no simulated time, so gated metrics are unaffected.
     */
    void attachTrace(SimClock &clock, unsigned ncpus);

    /** Print a table's title (if any) and column headers. */
    void table(const char *title, std::vector<Column> columns);
    /** Print one row of the current table; record its gated cells. */
    void row(const std::string &arch, const std::vector<Cell> &cells);
    /** Print each cell as a `metric  value` line and record it. */
    void list(const std::string &arch, const std::vector<Cell> &cells);
    /** Print a closing remark. */
    void note(const char *text) { std::printf("\n%s\n", text); }

    /** Write the requested files; returns the exit code. */
    int finish() const;

  private:
    struct Record
    {
        std::string benchmark, arch, metric;
        double value;
        std::string unit;
    };

    void record(const std::string &arch, const Cell &cell);

    bool valid = true;
    std::vector<std::string> selected;
    unsigned taskCount = 10000;
    std::string path, tracePath;
    std::unique_ptr<TraceSink> sink;
    unsigned traceCpus = 1;
    std::string benchmark;
    std::vector<Column> columns;
    std::vector<Record> records;
};

/** @name The registered workloads, one per bench/bench_<name>.cc @{ */
void table7_1(Report &report);
void table7_2(Report &report);
void shadow(Report &report);
void map(Report &report);
void ipt(Report &report);
void shootdown(Report &report);
void pagesize(Report &report);
void pmapcopy(Report &report);
void faultAblation(Report &report);
void churn(Report &report);
/** @} */

} // namespace mach::bench

#endif // MACH_BENCH_BENCH_REPORT_HH
