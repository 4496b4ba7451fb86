/**
 * @file
 * Ablation E (paper sections 2.1/3.1): the boot-time Mach page size.
 *
 * "The definition of page size is a boot time system parameter and
 * can be any power of two multiple of the hardware page size."  A
 * larger Mach page amortizes fault overhead over more bytes (fewer
 * faults) at the cost of more zero-fill and copy work per fault.
 * This benchmark sweeps VAX page sizes 512B..8K over a sequential
 * write workload and a sparse workload, showing the trade-off.
 */

#include <string>
#include <vector>

#include "bench_report.hh"
#include "kern/kernel.hh"

namespace mach
{

void
bench::pagesize(Report &report)
{
    report.table("dense: 256KB sequential write; sparse: 64 widely "
                 "spaced touches",
                 {{"page size", -10}, {"dense faults", 13},
                  {"dense time", 12}, {"sparse faults", 14},
                  {"sparse time", 12}});
    for (unsigned multiple : {1u, 2u, 4u, 8u, 16u}) {
        MachineSpec spec = MachineSpec::microVax2();
        spec.physMemBytes = 8ull << 20;
        KernelConfig cfg;
        cfg.machPageMultiple = multiple;
        Kernel kernel(spec, cfg);
        VmSize page = kernel.pageSize();
        Task *task = kernel.taskCreate();
        auto touch = [&](VmOffset va, VmSize len) {
            (void)kernel.taskTouch(*task, va, len, AccessType::Write);
        };

        std::string tag = std::to_string(512 * multiple) + "b";
        std::vector<Cell> row = {std::to_string(512 * multiple) + "B"};
        // The faults and simulated time of one phase.
        auto phase = [&](const std::string &name, auto &&body) {
            std::uint64_t f0 = kernel.vm->stats.faults;
            SimTime t0 = kernel.now();
            body();
            row.push_back(count(name + "_faults_" + tag,
                                kernel.vm->stats.faults - f0));
            row.push_back(ns(name + "_time_" + tag, kernel.now() - t0));
        };

        // Dense: sequentially dirty 256KB.
        VmOffset dense = 0;
        (void)task->map().allocate(&dense, 256 << 10, true);
        phase("dense", [&] { touch(dense, 256 << 10); });

        // Sparse: touch one byte in each of 64 widely spaced spots.
        VmOffset sparse = 0;
        (void)task->map().allocate(&sparse, 64 * 16 * page, true);
        phase("sparse", [&] {
            for (unsigned i = 0; i < 64; ++i)
                touch(sparse + i * 16 * page, 1);
        });
        report.row("uvax2", row);
    }
    report.note("Larger pages amortize trap overhead for dense "
                "access but waste\nzero-fill work (and memory) for "
                "sparse access — why Mach leaves the\nchoice to boot "
                "time rather than the architecture.");
}

} // namespace mach
