/**
 * @file
 * machvm_bench, the one benchmark program: every reproduced paper
 * table and ablation is one registered workload (DESIGN.md section 4).
 *
 *   machvm_bench [name...] [--json <path>] [--trace-out <path>]
 *                [--tasks <n>]
 *
 * With no names, every benchmark runs.  Each prints its table with
 * the paper's values alongside; `--json` writes every gated value
 * for tools/check_bench.py.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "base/logging.hh"
#include "bench_report.hh"

namespace
{

using namespace mach::bench;

struct Workload
{
    const char *name;
    const char *title;
    void (*run)(Report &);
};

const Workload kWorkloads[] = {
    {"bench_table7_1", "Table 7-1, Performance of Mach VM Operations",
     table7_1},
    {"bench_table7_2",
     "Table 7-2, Overall Compilation Performance: Mach vs. 4.3bsd",
     table7_2},
    {"bench_shadow",
     "Ablation A, shadow chain garbage collection (section 3.5)", shadow},
    {"bench_map", "Ablation B, address map lookup hint (section 3.2)",
     map},
    {"bench_ipt", "Ablation C, inverted-page-table aliasing (section 5.1)",
     ipt},
    {"bench_shootdown",
     "Ablations D and G, TLB shootdown strategies and batching "
     "(section 5.2), Encore MultiMax",
     shootdown},
    {"bench_pagesize",
     "Ablation E, boot-time Mach page size on the VAX (512B pages)",
     pagesize},
    {"bench_pmapcopy",
     "Ablation F, optional pmap_copy at fork (Table 3-4), MicroVAX II",
     pmapcopy},
    {"bench_fault_ablation",
     "Ablation H, I/O fault injection (VAX 8200, 1K pages)", faultAblation},
    {"bench_churn", "Ablation I, task-churn storm under a 512 KB RAM cap",
     churn},
};

} // namespace

int
main(int argc, char **argv)
{
    mach::setQuiet(true);
    Report report(argc, argv);
    auto named = [&](const std::string &name) {
        return std::find(report.names().begin(), report.names().end(),
                         name) != report.names().end();
    };
    std::size_t known = 0;
    for (const Workload &w : kWorkloads)
        known += named(w.name);
    if (!report.ok() || known != report.names().size()) {
        std::fprintf(stderr, "usage: machvm_bench [name...] [--json <path>] "
                             "[--trace-out <path>] [--tasks <n>]\nnames:");
        for (const Workload &w : kWorkloads)
            std::fprintf(stderr, " %s", w.name);
        std::fprintf(stderr, "\n");
        return 2;
    }
    for (const Workload &w : kWorkloads) {
        if (report.names().empty() || named(w.name)) {
            report.begin(w.name, w.title);
            w.run(report);
        }
    }
    return report.finish();
}
