/**
 * @file
 * Simulated disk: a flat byte-addressed store with latency modeling.
 *
 * Backs both the default (swap) pager and the simulated inode file
 * system.  Data is real — bytes written are the bytes later read — so
 * end-to-end integrity through pageout/pagein is testable.
 */

#ifndef MACH_SIM_SIM_DISK_HH
#define MACH_SIM_SIM_DISK_HH

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "base/status.hh"
#include "base/types.hh"
#include "sim/cost_model.hh"
#include "sim/sim_clock.hh"

namespace mach
{

class FaultInjector;

/** A simulated disk device. */
class SimDisk
{
  public:
    /**
     * @param clock machine clock to charge transfer time to
     * @param costs cost table supplying latency and bandwidth
     * @param capacity_bytes disk size
     */
    SimDisk(SimClock &clock, const CostModel &costs,
            std::uint64_t capacity_bytes);

    std::uint64_t capacity() const { return size; }

    /**
     * Read @p len bytes at @p offset into @p buf, charging time.
     * With a fault injector attached the transfer may fail: device
     * time is still charged, @p buf is untouched, and the error is
     * returned.
     */
    PagerResult read(std::uint64_t offset, void *buf, std::uint64_t len);

    /** Write @p len bytes at @p offset from @p buf, charging time. */
    PagerResult write(std::uint64_t offset, const void *buf,
                      std::uint64_t len);

    /**
     * Asynchronous (write-behind) write: the seek/rotate latency
     * overlaps with computation, so only the transfer is charged.
     */
    PagerResult writeAsync(std::uint64_t offset, const void *buf,
                           std::uint64_t len);

    /**
     * Attach a fault injector (nullptr detaches).  Disabled or
     * absent injectors cost one branch per operation.
     */
    void setFaultInjector(FaultInjector *injector) { inject = injector; }

    /** Number of read operations performed. */
    std::uint64_t readOps() const { return reads; }
    /** Number of write operations performed. */
    std::uint64_t writeOps() const { return writes; }
    /** Total bytes transferred in either direction. */
    std::uint64_t bytesTransferred() const { return bytes; }
    /** Operations failed by the fault injector. */
    std::uint64_t ioErrors() const { return errors; }

  private:
    void checkRange(std::uint64_t offset, std::uint64_t len) const;

    /** Consult the injector; on error charge device time + count. */
    PagerResult injectionFor(bool is_write, std::uint64_t offset,
                             std::uint64_t len);

    struct FreeStore
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    SimClock &clock;
    const CostModel &costs;
    std::uint64_t size;
    /**
     * calloc'd, so the zeroed store costs nothing until a block is
     * first written: a large allocation comes straight from the OS as
     * zero pages, and untouched blocks are never faulted in.
     */
    std::unique_ptr<std::uint8_t[], FreeStore> store;
    FaultInjector *inject = nullptr;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes = 0;
    std::uint64_t errors = 0;
};

} // namespace mach

#endif // MACH_SIM_SIM_DISK_HH
