/**
 * @file
 * `churn`: the task fork/exec/exit storm of bench/bench_churn.cc,
 * seeded and checked.  Chosen because it drives nearly every
 * machine-independent layer at once (vm_fault COW/pagein/zero-fill,
 * the pageout daemon, shadow collapse, map-entry churn, the default
 * and vnode pagers and the simulated disks) on one CPU, with almost
 * no TLB-hit work and no shootdowns.
 *
 * A MicroVAX II is capped at 512 KB of RAM, far below the population's
 * aggregate working set, so the pageout daemon never rests.  One op is
 * one task lifetime: fork a random live task, replace its private
 * scratch region, exec every fifth child (tear the space down, remap
 * text, reallocate data and scratch), run its accesses, and retire the
 * oldest task once the population exceeds 64.
 */

#include <deque>

#include "harness.hh"

namespace perfbench
{
namespace
{

constexpr unsigned kTextPages = 256;
constexpr unsigned kDataPages = 32;
constexpr unsigned kScratchPages = 16;
constexpr unsigned kLivePopulation = 64;
constexpr unsigned kExecEvery = 5;
constexpr unsigned kWarmupOps = 256;
constexpr unsigned kTimedOps = 6000;

class Churn : public Workload
{
  public:
    Churn(std::uint64_t seed, Ledger &l) : Workload(l), rng(seed)
    {
        mach::MachineSpec spec = mach::MachineSpec::microVax2();
        spec.physMemBytes = 512ull << 10;
        mach::KernelConfig cfg;
        cfg.diskBytes = 1ull << 20;
        cfg.swapBytes = 4ull << 20;
        kernel = &boot(spec, cfg, kArch);
        page = kernel->pageSize();

        text.words.resize(kTextPages * page / 8);
        for (std::uint64_t &w : text.words)
            w = rng.next();
        kernel->createFile("text", text.words.data(), kTextPages * page);

        for (unsigned i = 0; i < kWarmupOps; ++i)
            setupFailures += spawn();
    }

    unsigned steps() const override { return kTimedOps; }

    unsigned step(unsigned) override { return spawn(); }

    unsigned
    finalCheck() override
    {
        std::vector<Task *> tasks;
        for (const Proc &p : live)
            tasks.push_back(p.task);
        maxShadowChain = maxChain(tasks);
        std::uint64_t diff = residentRecountDiff(*kernel, tasks);
        if (diff)
            std::fprintf(stderr, "churn: resident recount diff %llu\n",
                         (unsigned long long)diff);
        return setupFailures || diff ? 1 : 0;
    }

  private:
    static constexpr std::uint8_t kArch = archIndex("microvax2");

    /** A live task and its flat model (text is shared, read-only). */
    struct Proc
    {
        Task *task;
        VmOffset textBase;
        Region data, scratch;
    };

    unsigned
    allocate(Task &t, Region &r, unsigned pages)
    {
        r.base = 0;
        r.words.assign(pages * page / 8, 0);
        KernReturn kr = ledger.timed(Layer::VmMapAllocate, [&] {
            return t.map().allocate(&r.base, pages * page, true);
        });
        return kr == KernReturn::Success ? 0 : 1;
    }

    unsigned
    deallocate(Task &t, VmOffset start, VmSize size)
    {
        KernReturn kr = ledger.timed(Layer::VmMapDeallocate, [&] {
            return t.map().deallocate(start, size);
        });
        return kr == KernReturn::Success ? 0 : 1;
    }

    unsigned
    buildSpace(Proc &p)
    {
        VmSize size = 0;
        KernReturn kr = ledger.timed(Layer::KernMapFile, [&] {
            return kernel->mapFile(*p.task, "text", &p.textBase, &size);
        });
        // Every fresh space maps text first, so it lands at the same
        // address each time; the shared text model relies on that.
        bool placed = textMapped ? p.textBase == text.base : true;
        text.base = p.textBase;
        textMapped = true;
        return (kr == KernReturn::Success && placed ? 0 : 1) +
               allocate(*p.task, p.data, kDataPages) +
               allocate(*p.task, p.scratch, kScratchPages);
    }

    Access
    word(const Region &r, bool write)
    {
        VmOffset va = r.base + VmOffset(rng.below(r.words.size())) * 8;
        return {va, write, write ? rng.next() : 0, KernReturn::Success};
    }

    /** The task's accesses: text reads, data COW writes, scratch
     *  zero-fill writes, then readbacks of data and scratch. */
    unsigned
    run(Proc &p)
    {
        batch.clear();
        for (unsigned i = 0; i < 12; ++i)
            batch.push_back(word(text, false));
        for (unsigned i = 0; i < 8; ++i)
            batch.push_back(word(p.data, true));
        for (unsigned i = 0; i < 8; ++i)
            batch.push_back(word(p.scratch, true));
        for (unsigned i = 0; i < 4; ++i) {
            batch.push_back(word(p.data, false));
            batch.push_back(word(p.scratch, false));
        }
        return runBatch(*kernel, kArch, *p.task, batch,
                        {&text, &p.data, &p.scratch});
    }

    unsigned
    spawn()
    {
        unsigned failed = 0;
        Proc p;
        if (live.empty()) {
            p.task = kernel->taskCreate();
            failed += buildSpace(p);
            // Prime the data region so forks really share pages.
            batch.clear();
            for (unsigned i = 0; i < kDataPages; ++i) {
                batch.push_back({p.data.base + i * page, true, rng.next(),
                                 KernReturn::Success});
            }
            failed += runBatch(*kernel, kArch, *p.task, batch,
                               {&p.data});
        } else {
            const Proc &parent = live[rng.below(unsigned(live.size()))];
            p.task = ledger.timed(Layer::KernFork, [&] {
                return kernel->taskFork(*parent.task);
            });
            p.textBase = parent.textBase;
            p.data = parent.data;
            p.scratch.base = parent.scratch.base;
            // Scratch is private: children re-allocate their own.
            failed += deallocate(*p.task, p.scratch.base,
                                 kScratchPages * page);
            failed += allocate(*p.task, p.scratch, kScratchPages);
            if (seq % kExecEvery == 0) {
                mach::VmMap &m = p.task->map();
                failed += deallocate(*p.task, m.minAddress(),
                                     m.maxAddress() - m.minAddress());
                failed += buildSpace(p);
            }
        }
        ++seq;
        failed += run(p);
        live.push_back(std::move(p));
        while (live.size() > kLivePopulation) {
            ledger.timed(Layer::KernTerminate, [&] {
                kernel->taskTerminate(live.front().task);
            });
            live.pop_front();
        }
        return failed ? 1 : 0;
    }

    Rng rng;
    Kernel *kernel = nullptr;
    VmSize page = 0;
    unsigned seq = 0;
    Region text;
    bool textMapped = false;
    std::deque<Proc> live;
    std::vector<Access> batch;
    unsigned setupFailures = 0;
};

} // namespace

std::unique_ptr<Workload>
makeChurn(std::uint64_t seed, Ledger &ledger)
{
    return std::make_unique<Churn>(seed, ledger);
}

} // namespace perfbench
