/**
 * @file
 * Ablation H: the Table 7-1 file and fork workloads run under
 * increasing I/O error rates (0%, 0.1%, 1%).  The point of the
 * experiment is graceful degradation — the machine-independent layer
 * retries transient backing-store failures with exponential backoff
 * in simulated time, so the workloads complete correctly at every
 * rate, paying for recovery only when errors actually occur.
 *
 * Injection is seeded, so every count and simulated time is
 * deterministic and gated.  With `--trace-out` the highest-rate
 * run's event stream is exported as Chrome trace JSON.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench_report.hh"
#include "kern/kernel.hh"
#include "vm/vm_object.hh"

namespace mach
{
namespace
{

using namespace bench;

/** Run both workloads at I/O error rate @p rate; print one row. */
void
runWorkload(Report &report, double rate)
{
    KernelConfig cfg;
    cfg.machPageMultiple = 2;  // 1K pages, as a VAX Mach might boot
    Kernel kernel(MachineSpec::vax8200(), cfg);
    report.attachTrace(kernel.machine.clock(), 1);

    // The file workload: a 1M file, read twice (cold, then through
    // the object cache).
    VmSize file_size = 1 << 20;
    kernel.createPatternFile("dataset", file_size, 17);

    FaultPlan plan;
    plan.seed = 42;
    plan.readErrorRate = rate;
    plan.writeErrorRate = rate;
    plan.transientAttempts = 1;
    kernel.setFaultPlan(plan);

    // Reference copy, regenerated from the pattern (no injection on
    // the in-memory image).
    std::vector<std::uint8_t> expect(file_size);
    std::uint32_t x = 17;
    for (VmSize i = 0; i < file_size; ++i) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        expect[i] = std::uint8_t(x);
    }

    bool ok = true;
    std::vector<std::uint8_t> buf(file_size);
    auto readFile = [&]() {
        VmSize got = 0;
        SimTime t0 = kernel.now();
        ok &= kernel.fileRead("dataset", 0, buf.data(), file_size,
                              &got) == KernReturn::Success;
        ok &= got == file_size && buf == expect;
        return kernel.now() - t0;
    };
    SimTime first_read = readFile();
    SimTime second_read = readFile();

    // The fork workload: a 256K dirty region copied through four
    // generations of copy-on-write children, driving pageouts to
    // swap as pressure builds.
    SimTime t0 = kernel.now();
    Task *task = kernel.taskCreate();
    VmOffset addr = 0;
    VmSize region = 256 << 10;
    ok &= task->map().allocate(&addr, region, true) == KernReturn::Success;
    std::vector<std::uint8_t> body(region, 0x5a);
    ok &= kernel.taskWrite(*task, addr, body.data(), region) ==
        KernReturn::Success;
    for (int gen = 0; gen < 4 && ok; ++gen) {
        Task *child = kernel.taskFork(*task);
        std::vector<std::uint8_t> patch(region / 4,
                                        std::uint8_t(0x60 + gen));
        VmOffset at = addr + gen * (region / 4);
        ok &= kernel.taskWrite(*child, at, patch.data(), patch.size()) ==
            KernReturn::Success;
        std::copy(patch.begin(), patch.end(), body.begin() + (at - addr));
        kernel.taskTerminate(task);
        task = child;
    }
    std::vector<std::uint8_t> check(region);
    ok &= kernel.taskRead(*task, addr, check.data(), region) ==
        KernReturn::Success;
    ok &= check == body;
    SimTime fork_chain = kernel.now() - t0;

    const VmStatistics &st = kernel.vm->stats;
    std::string pct = format("%g", rate * 100);
    std::string tag = pct + "pct";
    report.row("vax8200",
               {pct + "%", count("verified_" + tag, ok),
                ns("first_read_" + tag, first_read),
                ns("second_read_" + tag, second_read),
                ns("fork_chain_" + tag, fork_chain),
                count("injected_" + tag,
                      kernel.faultInjector.injectedErrors()),
                count("retries_" + tag,
                      st.pageinRetries + st.pageoutRetries),
                count("recoveries_" + tag, st.transientRecoveries),
                count("hard_failures_" + tag, st.pageinFailures)});
}

} // namespace

void
bench::faultAblation(Report &report)
{
    report.table("1M file read twice, then a 256K four-generation fork "
                 "chain:",
                 {{"rate", -8}, {"verified", 9}, {"read1", 12},
                  {"read2", 12}, {"fork", 12}, {"injected", 9},
                  {"retries", 8}, {"recover", 8}, {"hard", 6}});
    for (double rate : {0.0, 0.001, 0.01})
        runWorkload(report, rate);
    report.note("rate is the share of I/O sites that fail transiently "
                "once; 'hard' counts pageins\nabandoned after the "
                "retry budget (always 0 here).");
}

} // namespace mach
