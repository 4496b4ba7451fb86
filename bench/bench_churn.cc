/**
 * @file
 * Task-churn storm macro-benchmark (the ROADMAP's "one address space
 * per connected user" scenario).
 *
 * Storms thousands of short-lived tasks through a machine whose RAM
 * is capped well below the aggregate working set, so the pageout
 * daemon is active for the whole run:
 *
 *  - every task COW-shares a common file-backed text segment and a
 *    forked data region (heavy sharing, long fork lineages, shadow
 *    chains kept bounded only by the collapse machinery);
 *  - a slice of the population "execs": tears down its whole address
 *    space and rebuilds it (map-entry churn);
 *  - the oldest task exits as each new one is born (object and page
 *    teardown under pressure).
 *
 * Every reported metric is an exact simulated count or time, gated
 * by tools/check_bench.py.  `resident_recount_diff` cross-checks
 * resident-set accounting between the map-walk path (vmTaskInfo,
 * intrusive page lists) and the indexed lookup path
 * (ResidentPageTable::lookup); any disagreement between the two
 * structures shows up as a nonzero gated value.
 *
 * `--tasks N` shrinks the storm (CI sanitizer smoke runs); the gated
 * baseline corresponds to the default 10000-task storm, so `--json`
 * output is only comparable at the default size.
 */

#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench_report.hh"
#include "kern/kernel.hh"
#include "vm/vm_object.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

using namespace bench;

/** Deterministic 64-bit LCG (host randomness is never used). */
struct Lcg
{
    std::uint64_t s;
    std::uint32_t
    next()
    {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return std::uint32_t(s >> 33);
    }
    std::uint32_t nextBelow(std::uint32_t n) { return next() % n; }
};

constexpr unsigned kTextPages = 256;   //!< shared text segment
constexpr unsigned kDataPages = 32;    //!< COW-inherited data region
constexpr unsigned kScratchPages = 16; //!< private zero-fill scratch
constexpr unsigned kLivePopulation = 64;
constexpr unsigned kExecEvery = 5;     //!< every Nth task "execs"

struct Churn
{
    Kernel &kernel;
    VmSize page;
    Lcg rng{0x9e3779b97f4a7c15ull};
    std::deque<Task *> live;

    /** Per-live-task layout (parallel to `live`). */
    struct Layout
    {
        VmOffset text = 0;
        VmOffset data = 0;
        VmOffset scratch = 0;
    };
    std::deque<Layout> layouts;

    explicit Churn(Kernel &k) : kernel(k), page(k.pageSize()) {}

    void
    touchPage(Task *t, VmOffset va, AccessType type)
    {
        KernReturn kr = kernel.taskTouch(*t, va, page, type);
        if (kr != KernReturn::Success)
            panic("churn: touch failed (%d)", int(kr));
    }

    /** Fault a task's working set: text reads, data COW writes,
     *  fresh scratch writes. */
    void
    runTask(Task *t, const Layout &l)
    {
        for (unsigned i = 0; i < 12; ++i) {
            touchPage(t, l.text + rng.nextBelow(kTextPages) * page,
                      AccessType::Read);
        }
        for (unsigned i = 0; i < 8; ++i) {
            touchPage(t, l.data + rng.nextBelow(kDataPages) * page,
                      AccessType::Write);
        }
        for (unsigned i = 0; i < 8; ++i) {
            touchPage(t,
                      l.scratch + rng.nextBelow(kScratchPages) * page,
                      AccessType::Write);
        }
    }

    Layout
    buildSpace(Task *t)
    {
        Layout l;
        VmSize text_size = 0;
        if (kernel.mapFile(*t, "text", &l.text, &text_size) !=
            KernReturn::Success) {
            panic("churn: mapFile failed");
        }
        l.data = 0;
        if (t->map().allocate(&l.data, kDataPages * page, true) !=
            KernReturn::Success) {
            panic("churn: data allocate failed");
        }
        l.scratch = 0;
        if (t->map().allocate(&l.scratch, kScratchPages * page,
                              true) != KernReturn::Success) {
            panic("churn: scratch allocate failed");
        }
        return l;
    }

    /** exec(): tear the whole space down and rebuild it fresh. */
    void
    exec(Task *t, Layout &l)
    {
        VmMap &m = t->map();
        (void)m.deallocate(m.minAddress(),
                           m.maxAddress() - m.minAddress());
        l = buildSpace(t);
    }

    void
    spawn(unsigned seq)
    {
        Task *child;
        Layout l;
        if (live.empty()) {
            child = kernel.taskCreate();
            l = buildSpace(child);
            // Prime the data region so forks really share pages.
            for (unsigned i = 0; i < kDataPages; ++i)
                touchPage(child, l.data + i * page,
                          AccessType::Write);
        } else {
            unsigned pick = rng.nextBelow(unsigned(live.size()));
            child = kernel.taskFork(*live[pick]);
            l = layouts[pick];
            // Scratch is private: children re-allocate their own.
            (void)child->map().deallocate(l.scratch,
                                          kScratchPages * page);
            l.scratch = 0;
            if (child->map().allocate(&l.scratch,
                                      kScratchPages * page, true) !=
                KernReturn::Success) {
                panic("churn: child scratch allocate failed");
            }
            if (seq % kExecEvery == 0)
                exec(child, l);
        }
        runTask(child, l);
        live.push_back(child);
        layouts.push_back(l);
        while (live.size() > kLivePopulation) {
            kernel.taskTerminate(live.front());
            live.pop_front();
            layouts.pop_front();
        }
    }

    /** Longest shadow chain reachable from any live mapping. */
    unsigned
    maxChain() const
    {
        unsigned longest = 0;
        for (Task *t : live) {
            for (const VmMapEntry &e : t->map().entryList()) {
                if (e.object) {
                    longest =
                        std::max(longest, e.object->chainLength());
                }
            }
        }
        return longest;
    }

    /** Every object reachable from the live tasks' maps (through
     *  sharing maps and down shadow chains), deduplicated. */
    std::vector<VmObject *>
    reachableObjects() const
    {
        std::vector<VmObject *> objs;
        auto add = [&](VmObject *o) {
            for (; o; o = o->shadowObject()) {
                if (std::find(objs.begin(), objs.end(), o) !=
                    objs.end()) {
                    return;
                }
                objs.push_back(o);
            }
        };
        std::vector<const VmMap *> maps;
        for (Task *t : live)
            maps.push_back(&t->map());
        for (std::size_t i = 0; i < maps.size(); ++i) {
            for (const VmMapEntry &e : maps[i]->entryList()) {
                if (e.submap) {
                    if (std::find(maps.begin(), maps.end(),
                                  e.submap) == maps.end())
                        maps.push_back(e.submap);
                } else if (e.object) {
                    add(e.object);
                }
            }
        }
        return objs;
    }

    /**
     * Resident-set accuracy: for every reachable object, count its
     * resident pages twice — once by walking the object's intrusive
     * page list, once by asking the resident table's indexed lookup
     * for each of those (object, offset) slots — and cross-check
     * both against the object's residentCount.  The three counts
     * disagree only if the lookup index and the page lists have
     * drifted apart.
     */
    void
    residentRecount(std::uint64_t *walked, std::uint64_t *indexed)
    {
        *walked = 0;
        *indexed = 0;
        for (VmObject *obj : reachableObjects()) {
            std::uint64_t listed = 0;
            for (const VmPage *p : obj->pages) {
                ++listed;
                if (kernel.vm->resident.lookup(obj, p->offset) == p)
                    ++*indexed;
            }
            // residentCount must agree with the list it summarizes;
            // fold any drift into the walked sum so it gates.
            *walked += listed;
            if (listed != obj->residentCount)
                *walked += 1;
        }
    }
};

} // namespace

void
bench::churn(Report &report)
{
    unsigned total_tasks = report.tasks();
    MachineSpec spec = MachineSpec::microVax2();
    // RAM capped far below the aggregate working set (population x
    // (data + scratch) + text) so the pageout daemon never rests.
    spec.physMemBytes = 512ull << 10;
    KernelConfig cfg;
    cfg.swapBytes = 32ull << 20;
    Kernel kernel(spec, cfg);

    // The shared text segment every task maps.
    std::vector<std::uint8_t> text(kTextPages * kernel.pageSize());
    for (std::size_t i = 0; i < text.size(); ++i)
        text[i] = std::uint8_t(i * 2654435761u >> 16);
    kernel.createFile("text", text.data(), text.size());

    std::printf("%u tasks, population %u, %llu KB RAM\n", total_tasks,
                kLivePopulation,
                (unsigned long long)(spec.physMemBytes >> 10));
    if (report.jsonRequested() && total_tasks != 10000) {
        std::fprintf(stderr,
                     "bench_churn: --json with --tasks %u is not "
                     "comparable to the 10000-task baseline\n",
                     total_tasks);
    }

    Churn churn(kernel);
    VmStatistics before = kernel.vm->statistics();
    SimTime t0 = kernel.now();
    for (unsigned seq = 0; seq < total_tasks; ++seq)
        churn.spawn(seq);
    SimTime sim_elapsed = kernel.now() - t0;

    VmStatistics after = kernel.vm->statistics();
    if (after.pageouts == before.pageouts)
        panic("churn: pageout daemon never laundered a page "
              "(RAM cap too generous — the storm must run under "
              "memory pressure)");
    std::uint64_t walked = 0, indexed = 0;
    churn.residentRecount(&walked, &indexed);
    unsigned chain = churn.maxChain();
    auto snap = kernel.vm->metricsSnapshot();
    auto counter = [&](const char *m) {
        return count(m, snap.counterValue(m));
    };
    auto delta = [&](const char *m, std::uint64_t VmStatistics::*field) {
        return count(m, after.*field - before.*field);
    };
    // Allocator telemetry: the slab zones surface their chunk and
    // high-water counts through the metrics registry.
    report.list("uvax2",
                {count("tasks_churned", total_tasks),
                 delta("faults", &VmStatistics::faults),
                 delta("cow_faults", &VmStatistics::cowFaults),
                 delta("zero_fills", &VmStatistics::zeroFillCount),
                 delta("pageins", &VmStatistics::pageins),
                 delta("pageouts", &VmStatistics::pageouts),
                 delta("reactivations", &VmStatistics::reactivations),
                 delta("object_collapses",
                       &VmStatistics::objectCollapses),
                 count("pageout_passes",
                       snap.counterValue("pageout.passes")),
                 count("max_shadow_chain", chain),
                 count("resident_walked", walked),
                 count("resident_recount_diff", walked > indexed
                                                    ? walked - indexed
                                                    : indexed - walked),
                 ns("sim_total", sim_elapsed),
                 counter("zone.vm_page.chunks"),
                 counter("zone.vm_page.high_water"),
                 counter("zone.map_entry.chunks"),
                 counter("zone.map_entry.high_water"),
                 counter("zone.radix_node.chunks"),
                 counter("zone.radix_node.high_water")});
}

} // namespace mach
