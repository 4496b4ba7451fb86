#include "bench_report.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "sim/trace_export.hh"

namespace mach::bench
{

std::string
format(const char *fmt, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

std::string
minSec(SimTime t)
{
    std::uint64_t total = std::uint64_t(t / 1e9 + 0.5);
    return std::to_string(total / 60) + format(":%02.0f", total % 60);
}

Report::Report(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        bool has_value = i + 1 < argc;
        if (has_value && std::strcmp(arg, "--json") == 0) {
            path = argv[++i];
        } else if (has_value && std::strcmp(arg, "--trace-out") == 0) {
            tracePath = argv[++i];
        } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
            tracePath = arg + 12;
        } else if (has_value && std::strcmp(arg, "--tasks") == 0) {
            taskCount = unsigned(std::atoi(argv[++i]));
        } else if (std::strncmp(arg, "--", 2) == 0) {
            std::fprintf(stderr, "unknown option %s\n", arg);
            valid = false;
        } else {
            selected.push_back(arg);
        }
    }
}

void
Report::begin(const std::string &benchmark_, const char *title)
{
    benchmark = benchmark_;
    std::printf("\n== %s: %s\n", benchmark.c_str(), title);
}

void
Report::attachTrace(SimClock &clock, unsigned ncpus)
{
    if (tracePath.empty())
        return;
    if (!sink) {
        // Large enough that typical workloads fit without drops.
        sink = std::make_unique<TraceSink>(1 << 20);
    }
    sink->reset();
    traceCpus = ncpus;
    clock.setTraceSink(sink.get());
}

void
Report::table(const char *title, std::vector<Column> columns_)
{
    columns = std::move(columns_);
    if (title)
        std::printf("\n%s\n", title);
    for (std::size_t i = 0; i < columns.size(); ++i) {
        std::printf("%s%*s", i ? " " : "", columns[i].width,
                    columns[i].name);
    }
    std::printf("\n");
}

void
Report::row(const std::string &arch, const std::vector<Cell> &cells)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        int width = i < columns.size() ? columns[i].width : 0;
        std::printf("%s%*s", i ? " " : "", width, cells[i].text.c_str());
        record(arch, cells[i]);
    }
    std::printf("\n");
}

void
Report::list(const std::string &arch, const std::vector<Cell> &cells)
{
    for (const Cell &c : cells) {
        std::printf("  %-28s %14s\n", c.metric.c_str(), c.text.c_str());
        record(arch, c);
    }
}

void
Report::record(const std::string &arch, const Cell &cell)
{
    if (!cell.metric.empty()) {
        records.push_back(
            {benchmark, arch, cell.metric, cell.value, cell.unit});
    }
}

int
Report::finish() const
{
    if (!tracePath.empty()) {
        if (!sink) {
            std::fprintf(stderr, "--trace-out given but no workload "
                                 "attached a trace sink\n");
            return 1;
        }
        if (!writeChromeTrace(*sink, traceCpus, tracePath)) {
            std::fprintf(stderr, "cannot write %s\n", tracePath.c_str());
            return 1;
        }
    }
    if (path.empty())
        return 0;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    // Names are plain identifiers, so they need no JSON escaping.
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Record &r = records[i];
        bool integral = r.value == std::floor(r.value) &&
                        std::fabs(r.value) < 1e15;
        std::fprintf(f,
                     "  {\"benchmark\": \"%s\", \"arch\": \"%s\", "
                     "\"metric\": \"%s\", \"value\": %s, "
                     "\"unit\": \"%s\"}%s\n",
                     r.benchmark.c_str(), r.arch.c_str(),
                     r.metric.c_str(),
                     format(integral ? "%.0f" : "%.17g", r.value).c_str(),
                     r.unit.c_str(), i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return 0;
}

} // namespace mach::bench
