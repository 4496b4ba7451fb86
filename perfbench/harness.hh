/**
 * @file
 * The benchmark harness shared by the three workloads: the span
 * ledger (traced repetitions only), the simulated-counter vector used
 * for the determinism check, batches of user-memory accesses checked
 * against a flat per-task word model, and the workload interface.
 *
 * Every span is recorded here, around a call the benchmark makes into
 * a layer's public API; nothing under src/ is instrumented.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "kern/kernel.hh"

namespace perfbench
{

using mach::Kernel;
using mach::KernReturn;
using mach::Task;
using mach::VmOffset;
using mach::VmSize;

inline std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Deterministic generator; the workload seed is its only input. */
struct Rng
{
    std::uint64_t s;

    explicit Rng(std::uint64_t seed) : s(seed) {}

    /** splitmix64: every seed, 0 included, gives a full-period stream. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n) by multiply-shift: no division per draw. */
    std::uint32_t
    below(std::uint32_t n)
    {
        return std::uint32_t(((next() >> 32) * n) >> 32);
    }
};

/** The five pmap backends, as MachineSpec::byName spells them. */
constexpr std::array<const char *, 5> kArchNames = {
    "microvax2", "rtpc", "sun3", "multimax", "rp3"};
constexpr std::size_t kNumArchs = kArchNames.size();

constexpr std::uint8_t
archIndex(std::string_view name)
{
    for (std::size_t i = 0; i < kNumArchs; ++i) {
        if (kArchNames[i] == name)
            return std::uint8_t(i);
    }
    throw std::invalid_argument("unknown architecture");
}

/** Span kinds: one per layer boundary the benchmark calls across. */
enum class Layer : std::uint8_t
{
    Op,              //!< one workload op (the request)
    KernFork,        //!< Kernel::taskFork
    KernTerminate,   //!< Kernel::taskTerminate
    KernMapFile,     //!< Kernel::mapFile
    VmMapAllocate,   //!< VmMap::allocate
    VmMapDeallocate, //!< VmMap::deallocate
    VmMapProtect,    //!< VmMap::protect
    HwAccess,        //!< a batch of Kernel::taskRead/taskWrite
    FaultZeroFill,   //!< VmSys::fault, classified afterwards
    FaultCow,
    FaultPagein,
    FaultOther,
    Count,
};
constexpr std::size_t kNumLayers = std::size_t(Layer::Count);

const char *layerName(Layer layer);

/** One recorded span; parent is an index into the same repetition. */
struct Span
{
    std::uint32_t op;
    std::int32_t parent;
    Layer layer;
    std::uint8_t arch;
    std::int64_t start;
    std::int64_t end;
};

/** Per-(layer, arch) self-time totals of one traced repetition. */
struct LayerTotals
{
    std::array<std::array<std::int64_t, kNumArchs>, kNumLayers> selfNs{};
    std::array<std::array<std::uint64_t, kNumArchs>, kNumLayers> calls{};

    std::int64_t selfSum(Layer l) const;
    std::uint64_t callSum(Layer l) const;
};

/**
 * In-memory span recorder.  Spans are taken only while `recording`;
 * otherwise every hook is a single branch, and untraced repetitions
 * keep the kernel's own fault handler.
 */
class Ledger
{
  public:
    bool traced = false;    //!< this repetition is a traced one
    bool recording = false; //!< inside its timed phase
    std::vector<Span> spans;

    template <class F>
    decltype(auto)
    timed(Layer layer, F &&f, std::uint8_t arch = 0)
    {
        Guard g{recording ? this : nullptr,
                recording ? open(layer, arch) : -1};
        return f();
    }

    void beginOp(std::uint32_t id);
    void endOp();

    /**
     * Replace @p kernel's fault handler with one that does exactly
     * what the kernel's does (resolve against the CPU's current task
     * through VmSys::fault) and, while recording, times the call and
     * classifies it by the VmStatistics counters it moved.
     */
    void instrument(Kernel &kernel, std::uint8_t arch);

    /** Self time per (layer, arch) of the recorded spans. */
    LayerTotals totals() const;

    /** Write the recorded spans as CSV; false if the file failed. */
    bool write(const std::string &path) const;

    void clear();

  private:
    struct Guard
    {
        Ledger *ledger;
        int index;
        ~Guard()
        {
            if (ledger)
                ledger->close(index);
        }
    };

    int open(Layer layer, std::uint8_t arch);
    void close(int index);
    std::vector<std::int64_t> selfNs() const;

    std::uint32_t curOp = 0;
    std::vector<std::int32_t> stack;
};

/**
 * Simulated counters one kernel moved during the timed phase, plus
 * its end-of-phase zone high-water marks.  Host timing never enters
 * simulated time, so repetitions of one seed, traced or not, must
 * produce identical vectors.
 */
struct SimCounters
{
    enum Index : unsigned
    {
        SimNs,
        Faults,
        ZeroFills,
        CowFaults,
        Pageins,
        Pageouts,
        Reactivations,
        Collapses,
        Bypasses,
        Lookups,
        LookupHits,
        IoErrors,
        Ipis,
        ShootdownIpis,
        ShootdownRounds,
        Coalesced,
        LazySkips,
        DeferredFlushes,
        PageoutPasses,
        PageoutScanned,
        PageoutReclaimed,
        PageoutLaundered,
        FsReadOps,
        FsWriteOps,
        FsBytes,
        SwapReadOps,
        SwapWriteOps,
        SwapBytes,
        TlbHits,
        TlbMisses,
        KindNs, //!< first of SimClock::numKinds per-CostKind totals
        ZonePageHw = KindNs + mach::SimClock::numKinds,
        ZoneEntryHw,
        ZoneRadixHw,
        Count,
    };

    std::array<std::uint64_t, Count> v{};

    static SimCounters capture(Kernel &kernel);
    /** Counter deltas since @p before; high-water marks stay absolute. */
    SimCounters since(const SimCounters &before) const;
    SimCounters &operator+=(const SimCounters &o);

    static std::string name(unsigned i);
};

/** A word-granular flat model of one task region. */
struct Region
{
    VmOffset base = 0;
    std::vector<std::uint64_t> words;

    /** The modelled word at @p va, or nullptr outside the region. */
    std::uint64_t *
    slot(VmOffset va)
    {
        return va >= base && va - base < words.size() * 8
                   ? &words[(va - base) / 8]
                   : nullptr;
    }
};

/** One aligned 8-byte user access; a read stores what it saw. */
struct Access
{
    VmOffset va;
    bool write;
    std::uint64_t value;
    KernReturn kr;
};

/** A booted kernel and the architecture it models. */
struct Booted
{
    std::unique_ptr<Kernel> kernel;
    std::uint8_t arch;
};

/** One workload instance: built (booted and warmed) per repetition. */
class Workload
{
  public:
    explicit Workload(Ledger &ledger) : ledger(ledger) {}
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Timed steps per repetition and workload ops per step. */
    virtual unsigned steps() const = 0;
    virtual unsigned opsPerStep() const { return 1; }

    /** Run timed step @p i; returns how many of its ops failed. */
    virtual unsigned step(unsigned i) = 0;

    /**
     * Whole-state checks after the timed phase, and any failure while
     * setting up; counts as one op.  Returns 1 if anything failed.
     */
    virtual unsigned finalCheck() { return 0; }

    /** Longest shadow chain reachable at the end (0 if untracked). */
    unsigned maxShadowChain = 0;

    std::vector<Booted> kernels;
    /** User accesses issued per architecture (timed phase only). */
    std::array<std::uint64_t, kNumArchs> accesses{};

  protected:
    Kernel &boot(const mach::MachineSpec &spec,
                 const mach::KernelConfig &cfg, std::uint8_t arch);

    /** Issue @p batch as @p task on its CPU, as one hw.access span. */
    void issue(Kernel &kernel, std::uint8_t arch, Task &task,
               std::vector<Access> &batch);

    /**
     * Issue @p batch, then replay it in order against the model, where
     * @p slot(va) is the modelled word (nullptr if unmodelled): reads
     * must return it, writes update it.  Returns failed accesses.
     */
    template <class Slot>
    unsigned
    runBatch(Kernel &kernel, std::uint8_t arch, Task &task,
             std::vector<Access> &batch, Slot slot)
    {
        issue(kernel, arch, task, batch);
        unsigned failed = 0;
        for (const Access &a : batch) {
            std::uint64_t *w =
                a.kr == KernReturn::Success ? slot(a.va) : nullptr;
            if (!w || (!a.write && *w != a.value))
                ++failed;
            else if (a.write)
                *w = a.value;
        }
        return failed;
    }

    /** runBatch over a task modelled as a few flat regions. */
    unsigned
    runBatch(Kernel &kernel, std::uint8_t arch, Task &task,
             std::vector<Access> &batch, std::initializer_list<Region *> model)
    {
        return runBatch(kernel, arch, task, batch,
                        [&model](VmOffset va) -> std::uint64_t * {
                            for (Region *r : model) {
                                if (std::uint64_t *w = r->slot(va))
                                    return w;
                            }
                            return nullptr;
                        });
    }

    Ledger &ledger;
};

/** Resident pages counted two ways; nonzero means they disagree. */
std::uint64_t residentRecountDiff(Kernel &kernel,
                                  const std::vector<Task *> &tasks);

/** Longest shadow chain reachable from @p tasks' maps. */
unsigned maxChain(const std::vector<Task *> &tasks);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
