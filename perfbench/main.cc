/**
 * @file
 * perfbench: a single-process, single-host-thread, closed-loop
 * benchmark of the simulator's host speed.  Each op is issued only
 * after the previous one returns.
 *
 *   perfbench --workload churn|resident|smp_cow --seed N
 *                    --seconds S --trace 0|1 [--ledger FILE]
 *
 * A run repeats whole repetitions (boot, warm-up, fixed timed phase)
 * until S seconds have passed.  Host times are calibrated against a
 * reference loop timed after every repetition (reference.hh) and
 * reported as medians over 3-second blocks of repetitions.  With
 * --trace 0 it prints the end-to-end metrics; with --trace 1 it
 * alternates untraced and traced repetitions and prints the per-layer
 * ledger.  Every repetition is checked: each access against the flat
 * word model, the whole-state checks of the workload, and the
 * simulated-counter vector against the first repetition's.  The last
 * line of stdout is one JSON object; the exit status is nonzero if any
 * check failed.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "harness.hh"
#include "reference.hh"
#include "stats.hh"

namespace perfbench
{

std::unique_ptr<Workload> makeChurn(std::uint64_t seed, Ledger &ledger);
std::unique_ptr<Workload> makeResident(std::uint64_t seed, Ledger &ledger);
std::unique_ptr<Workload> makeSmpCow(std::uint64_t seed, Ledger &ledger);

namespace
{

using Factory = std::unique_ptr<Workload> (*)(std::uint64_t, Ledger &);

const std::pair<const char *, Factory> kWorkloads[] = {
    // Every machine-independent layer under memory pressure, one CPU.
    {"churn", makeChurn},
    // Fault-free TLB/hwLookup path on all five pmaps: the control.
    {"resident", makeResident},
    // Multiprocessor pmap paths: COW, PV chains, shootdowns.
    {"smp_cow", makeSmpCow},
};

Factory
factory(const std::string &name)
{
    for (const auto &[n, f] : kWorkloads) {
        if (name == n)
            return f;
    }
    return nullptr;
}

/** A remainder of the traced run no layer span explains, above which
 *  the reconciliation report flags a finding. */
constexpr double kUnexplainedFinding = 0.15;

/**
 * Host speed on a shared machine shifts between phases every few
 * seconds; a 3-second block averages over them (see stats.hh).
 */
constexpr double kBlockS = 3.0;

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * This process's RSS high-water mark.  VmHWM belongs to the address
 * space, so unlike getrusage's ru_maxrss it does not carry over the
 * RSS of the process that forked this one.
 */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    char line[256];
    double kb = 0;
    while (f && std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    }
    if (f)
        std::fclose(f);
    if (kb == 0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        kb = double(ru.ru_maxrss);
    }
    return kb / 1024.0;
}

/** What one repetition measured. */
struct Rep
{
    bool traced = false;
    double startS = 0; //!< when it began, in seconds into the run
    double setupS = 0, runS = 0, cpuS = 0;
    double refS = 0; //!< reference loop time around it (reference.hh)
    std::size_t latBegin = 0, latEnd = 0; //!< its latency samples
    double peakRssMb = 0; //!< process high-water mark when it ended
    std::uint64_t ops = 0, failed = 0;
    std::vector<SimCounters> sim; //!< per kernel, in boot order
    std::vector<std::uint8_t> arch;
    std::array<std::uint64_t, kNumArchs> accesses{};
    unsigned maxChain = 0;
    LayerTotals layers;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

Rep
runRep(const std::string &workload, std::uint64_t seed, bool traced,
       Ledger &ledger, std::int64_t run_start,
       std::vector<double> &latencies_us)
{
    Rep r;
    r.traced = traced;
    r.startS = double(hostNs() - run_start) * 1e-9;
    ledger.traced = traced;
    if (traced)
        ledger.clear();

    std::int64_t t0 = hostNs();
    std::unique_ptr<Workload> wl = factory(workload)(seed, ledger);
    r.setupS = double(hostNs() - t0) * 1e-9;
    wl->accesses = {};

    std::vector<SimCounters> before;
    for (const Booted &b : wl->kernels)
        before.push_back(SimCounters::capture(*b.kernel));

    const unsigned steps = wl->steps(), per = wl->opsPerStep();
    r.latBegin = latencies_us.size();
    ledger.recording = traced;
    double c0 = threadCpuSeconds();
    std::int64_t w0 = hostNs();
    for (unsigned i = 0; i < steps; ++i) {
        std::int64_t s0 = hostNs();
        ledger.beginOp(i);
        r.failed += wl->step(i);
        ledger.endOp();
        if (!traced)
            latencies_us.push_back(double(hostNs() - s0) * 1e-3 / per);
    }
    std::int64_t w1 = hostNs();
    double c1 = threadCpuSeconds();
    ledger.recording = false;
    r.latEnd = latencies_us.size();

    r.runS = double(w1 - w0) * 1e-9;
    r.cpuS = c1 - c0;
    r.ops = std::uint64_t(steps) * per;
    r.failed += wl->finalCheck();
    r.maxChain = wl->maxShadowChain;
    r.accesses = wl->accesses;
    for (std::size_t k = 0; k < wl->kernels.size(); ++k) {
        r.sim.push_back(
            SimCounters::capture(*wl->kernels[k].kernel).since(before[k]));
        r.arch.push_back(wl->kernels[k].arch);
    }
    if (traced)
        r.layers = ledger.totals();
    r.peakRssMb = peakRssMb();
    return r;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Median over @p reps of @p f. */
template <class F>
double
medianOf(const std::vector<const Rep *> &reps, F f)
{
    std::vector<double> v;
    for (const Rep *r : reps)
        v.push_back(f(*r));
    return v.empty() ? 0 : median(v);
}

/** Host-time scale factor of a repetition (reference.hh). */
double
calibration(const Rep &r)
{
    return Reference::kNominalS / r.refS;
}

/**
 * The host-time metrics, calibrated or raw.  Times are medians over
 * kBlockS blocks of repetitions of each block's mean (medianOfBlocks).
 */
std::vector<Metric>
hostMetrics(const std::vector<const Rep *> &plain,
            const std::vector<double> &lat, bool calibrated,
            const char *prefix)
{
    std::vector<double> at, one, setup, run, cpu, ops;
    std::vector<std::vector<double>> blocks;
    for (const Rep *r : plain) {
        double k = calibrated ? calibration(*r) : 1.0;
        at.push_back(r->startS);
        one.push_back(1);
        setup.push_back(r->setupS * k);
        run.push_back(r->runS * k);
        cpu.push_back(r->cpuS * k);
        ops.push_back(double(r->ops));
        std::size_t b = blockOf(r->startS, kBlockS);
        if (b >= blocks.size())
            blocks.resize(b + 1);
        for (std::size_t i = r->latBegin; i < r->latEnd; ++i)
            blocks[b].push_back(lat[i] * k);
    }
    // Latency percentiles: per block, then the median over the blocks
    // with enough samples for the percentile (see tailPercentile).
    auto blockPercentile = [&](std::uint32_t p_bp) {
        std::vector<double> v;
        for (const std::vector<double> &b : blocks) {
            if (tailPercentile(b.size()) >= p_bp)
                v.push_back(percentile(b, p_bp));
        }
        return v.empty() ? 0.0 : median(v);
    };
    std::string p = prefix;
    return {
        {p + "setup_s", medianOfBlocks(at, setup, one, kBlockS), "s"},
        {p + "run_s", medianOfBlocks(at, run, one, kBlockS), "s"},
        {p + "cpu_s", medianOfBlocks(at, cpu, one, kBlockS), "s"},
        {p + "ops_per_s", medianOfBlocks(at, ops, run, kBlockS), "1/s"},
        {p + "op_p50_us", blockPercentile(5000), "us"},
        {p + "op_p99_us", blockPercentile(9900), "us"},
    };
}

/**
 * Calibrated host metrics, then peak_rss_mb, taken at the end of the
 * first repetition (later ones only add latency samples, whose count
 * depends on host speed), and simulated seconds.
 */
std::vector<Metric>
endToEnd(const std::vector<const Rep *> &plain,
         const std::vector<double> &lat, const SimCounters &sim)
{
    std::vector<Metric> m = hostMetrics(plain, lat, true, "");
    m.push_back({"peak_rss_mb", plain.front()->peakRssMb, "MB"});
    m.push_back({"sim_s", double(sim.v[SimCounters::SimNs]) * 1e-9, "s"});
    return m;
}

/** Seconds of a traced repetition covered by some layer span. */
double
explainedS(const Rep &r)
{
    double self = 0;
    for (std::size_t l = 0; l < kNumLayers; ++l) {
        if (Layer(l) != Layer::Op)
            self += double(r.layers.selfSum(Layer(l)));
    }
    return self * 1e-9;
}

std::vector<Metric>
perLayer(const std::vector<const Rep *> &plain,
         const std::vector<const Rep *> &traced, const Rep &first)
{
    std::vector<Metric> m;
    SimCounters sim;
    for (const SimCounters &s : first.sim)
        sim += s;
    auto c = [&](SimCounters::Index i) { return double(sim.v[i]); };

    auto perCall = [&](Layer l) {
        return medianOf(traced, [l](const Rep &r) {
            return ratio(double(r.layers.selfSum(l)),
                         double(r.layers.callSum(l)));
        });
    };
    auto calls = [&](Layer l) {
        return double(traced.front()->layers.callSum(l));
    };
    for (Layer l : {Layer::KernFork, Layer::KernTerminate,
                    Layer::KernMapFile, Layer::VmMapAllocate,
                    Layer::VmMapDeallocate, Layer::VmMapProtect,
                    Layer::FaultZeroFill, Layer::FaultCow,
                    Layer::FaultPagein, Layer::FaultOther}) {
        m.push_back({std::string(layerName(l)) + ".ns", perCall(l), "ns"});
        m.push_back({std::string(layerName(l)) + ".calls", calls(l),
                     "count"});
    }
    m.push_back({"vm_map.lookup_hit_ratio",
                 ratio(c(SimCounters::LookupHits), c(SimCounters::Lookups)),
                 "ratio"});

    // hw: user-access self time (faults excluded) and TLB hit ratio,
    // over all architectures and per architecture.
    auto hwSelf = [&](int arch) {
        return medianOf(traced, [arch](const Rep &r) {
            const auto &ns = r.layers.selfNs[std::size_t(Layer::HwAccess)];
            double self = 0, n = 0;
            for (std::size_t a = 0; a < kNumArchs; ++a) {
                if (arch < 0 || int(a) == arch) {
                    self += double(ns[a]);
                    n += double(r.accesses[a]);
                }
            }
            return ratio(self, n);
        });
    };
    auto hwCounts = [&](int arch) {
        double n = 0, hits = 0, misses = 0;
        for (std::size_t a = 0; a < kNumArchs; ++a) {
            if (arch < 0 || int(a) == arch)
                n += double(first.accesses[a]);
        }
        for (std::size_t k = 0; k < first.sim.size(); ++k) {
            if (arch < 0 || int(first.arch[k]) == arch) {
                hits += double(first.sim[k].v[SimCounters::TlbHits]);
                misses += double(first.sim[k].v[SimCounters::TlbMisses]);
            }
        }
        return std::make_pair(n, ratio(hits, hits + misses));
    };
    for (int a = -1; a < int(kNumArchs); ++a) {
        std::string suffix = a < 0 ? "" : std::string(".") + kArchNames[a];
        auto [n, hit] = hwCounts(a);
        m.push_back({"hw.access.self_ns" + suffix, hwSelf(a), "ns"});
        m.push_back({"hw.accesses" + suffix, n, "count"});
        m.push_back({"hw.tlb_hit_ratio" + suffix, hit, "ratio"});
    }

    using S = SimCounters;
    for (S::Index i : {S::PageoutPasses, S::PageoutScanned,
                       S::PageoutReclaimed, S::PageoutLaundered,
                       S::Reactivations, S::Pageouts, S::Collapses,
                       S::Bypasses})
        m.push_back({S::name(i), c(i), "count"});
    m.push_back({"vm_pageout.reclaim_ratio",
                 ratio(c(S::PageoutReclaimed), c(S::PageoutScanned)),
                 "ratio"});
    m.push_back({"vm_object.max_shadow_chain", double(first.maxChain),
                 "count"});

    for (S::Index i : {S::ShootdownRounds, S::ShootdownIpis, S::Coalesced,
                       S::LazySkips, S::DeferredFlushes})
        m.push_back({S::name(i), c(i), "count"});
    m.push_back({"pmap.ipis_per_round",
                 ratio(c(S::ShootdownIpis), c(S::ShootdownRounds)), "ratio"});

    for (S::Index i : {S::FsReadOps, S::FsWriteOps, S::SwapReadOps,
                       S::SwapWriteOps, S::Pageins, S::IoErrors})
        m.push_back({S::name(i), c(i), "count"});
    for (S::Index i : {S::FsBytes, S::SwapBytes})
        m.push_back({S::name(i), c(i), "bytes"});
    for (unsigned i = S::KindNs; i < S::ZonePageHw; ++i)
        m.push_back({S::name(i), double(sim.v[i]), "sim_ns"});
    for (S::Index i : {S::ZonePageHw, S::ZoneEntryHw, S::ZoneRadixHw})
        m.push_back({S::name(i), c(i), "count"});

    m.push_back({"ledger.unexplained_ratio",
                 medianOf(traced, [](const Rep &r) {
                     return 1 - explainedS(r) / r.runS;
                 }),
                 "ratio"});
    auto calibratedRun = [](const Rep &r) { return r.runS * calibration(r); };
    m.push_back({"trace.overhead_ratio",
                 ratio(medianOf(traced, calibratedRun),
                       medianOf(plain, calibratedRun)),
                 "ratio"});
    return m;
}

/** Σ layer self time against the traced run_s, one row per layer. */
void
reconcile(const std::string &workload, const Rep &r)
{
    std::printf("reconciliation (%s, traced repetition, run_s %.4f s):\n",
                workload.c_str(), r.runS);
    std::printf("  %-20s %10s %12s %8s\n", "span", "calls", "self_ms",
                "share");
    for (std::size_t l = 0; l < kNumLayers; ++l) {
        double self = double(r.layers.selfSum(Layer(l))) * 1e-9;
        std::printf("  %-20s %10llu %12.3f %7.1f%%\n", layerName(Layer(l)),
                    (unsigned long long)r.layers.callSum(Layer(l)),
                    self * 1e3, 100 * self / r.runS);
    }
    double rest = 1 - explainedS(r) / r.runS;
    std::printf("  %-20s %10s %12.3f %7.1f%%\n", "unexplained", "",
                rest * r.runS * 1e3, 100 * rest);
    if (rest > kUnexplainedFinding) {
        std::printf("  FINDING: %.1f%% of the traced run is outside every "
                    "layer span (threshold %.0f%%)\n",
                    100 * rest, 100 * kUnexplainedFinding);
    }
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "churn|resident|smp_cow --seed N --seconds S --trace 0|1 "
                 "[--ledger FILE]\n",
                 msg);
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    mach::setQuiet(true);

    std::string workload, ledger_path;
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        char *end = nullptr;
        const char *val = argv[i + 1];
        if (key == "--workload") {
            workload = val;
        } else if (key == "--seed") {
            seed = std::strtoull(val, &end, 10);
        } else if (key == "--seconds") {
            seconds = std::strtod(val, &end);
        } else if (key == "--trace") {
            trace = int(std::strtol(val, &end, 10));
        } else if (key == "--ledger") {
            ledger_path = val;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
        if (end && *end)
            return usage(("bad value for " + key).c_str());
    }
    if (!factory(workload) || !(seconds > 0) ||
        (trace != 0 && trace != 1))
        return usage("need --workload, --seconds > 0 and --trace 0|1");

    const bool traced_mode = trace == 1;
    const unsigned min_reps = traced_mode ? 4 : 3;
    Ledger ledger;
    Reference reference;
    std::vector<Rep> reps;
    std::vector<double> latencies;
    std::int64_t start = hostNs();
    double ref_before = reference.seconds();
    while (reps.size() < min_reps ||
           double(hostNs() - start) * 1e-9 < seconds) {
        bool traced = traced_mode && reps.size() % 2 == 1;
        reps.push_back(
            runRep(workload, seed, traced, ledger, start, latencies));
        double ref_after = reference.seconds();
        reps.back().refS = (ref_before + ref_after) / 2;
        ref_before = ref_after;
    }

    // Oracle and determinism: every repetition, traced or not, must
    // have failed nothing and moved the same simulated counters.
    bool deterministic = true;
    std::uint64_t attempted = 0, failed = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        attempted += r.ops + 1; // + the whole-state check
        failed += r.failed;
        std::string diverged;
        for (std::size_t k = 0; k < r.sim.size() && diverged.empty(); ++k) {
            for (unsigned c = 0; c < SimCounters::Count; ++c) {
                if (r.sim[k].v[c] != reps[0].sim[k].v[c]) {
                    diverged = SimCounters::name(c);
                    break;
                }
            }
        }
        if (diverged.empty() && (r.maxChain != reps[0].maxChain ||
                                 r.accesses != reps[0].accesses))
            diverged = "access counts or shadow chain";
        if (!diverged.empty()) {
            deterministic = false;
            ++failed;
            std::printf("DETERMINISM: repetition %zu (%s) diverged from "
                        "repetition 0 in %s\n",
                        i, r.traced ? "traced" : "untraced", diverged.c_str());
        }
    }
    bool correct = failed == 0;

    std::vector<const Rep *> plain, traced;
    for (const Rep &r : reps)
        (r.traced ? traced : plain).push_back(&r);

    SimCounters sim;
    for (const SimCounters &s : reps[0].sim)
        sim += s;

    std::printf("perfbench %s seed %llu: %zu repetitions (%zu traced), "
                "%llu ops attempted, %llu failed, fail_ratio %.6g\n",
                workload.c_str(), (unsigned long long)seed, reps.size(),
                traced.size(), (unsigned long long)attempted,
                (unsigned long long)failed,
                ratio(double(failed), double(attempted)));
    // Latency samples per kBlockS block of untraced repetitions: p99
    // needs a block with >= kMinSamplesBeyond samples beyond it.
    std::vector<std::size_t> per_block;
    for (const Rep *r : plain) {
        std::size_t b = blockOf(r->startS, kBlockS);
        if (b >= per_block.size())
            per_block.resize(b + 1);
        per_block[b] += r->latEnd - r->latBegin;
    }
    std::size_t largest =
        per_block.empty() ? 0
                          : *std::max_element(per_block.begin(), per_block.end());
    std::uint32_t tail = tailPercentile(largest);
    std::printf("latency samples %zu (untraced) in %zu blocks of %g s, up to "
                "%zu per block; highest percentile with >= %zu samples "
                "beyond: p%g\n",
                latencies.size(), per_block.size(), kBlockS, largest,
                kMinSamplesBeyond, tail / 100.0);
    if (!traced_mode && tail < 9900) {
        std::printf("too few latency samples for op_p99_us\n");
        correct = false;
    }
    std::printf("determinism: %s across %zu repetitions\n",
                deterministic ? "identical simulated counters" : "FAILED",
                reps.size());
    std::vector<double> refs;
    for (const Rep &r : reps)
        refs.push_back(r.refS);
    std::printf("reference loop: median %.6f s, min %.6f s, max %.6f s "
                "(host times below are calibrated to %.6f s)\n",
                median(refs), *std::min_element(refs.begin(), refs.end()),
                *std::max_element(refs.begin(), refs.end()),
                Reference::kNominalS);
    if (!traced_mode) {
        for (const Metric &m : hostMetrics(plain, latencies, false, "raw."))
            std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit);
    }

    std::vector<Metric> metrics =
        traced_mode ? perLayer(plain, traced, reps[0])
                    : endToEnd(plain, latencies, sim);
    if (traced_mode)
        reconcile(workload, *traced.back());
    for (const Metric &m : metrics)
        std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    if (traced_mode && !ledger_path.empty() && !ledger.write(ledger_path)) {
        std::printf("could not write the ledger to %s\n",
                    ledger_path.c_str());
        correct = false;
    }
    printJson(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
