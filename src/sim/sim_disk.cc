#include "sim/sim_disk.hh"

#include <cstring>

#include "base/logging.hh"
#include "sim/fault_inject.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"

namespace mach
{

SimDisk::SimDisk(SimClock &clock, const CostModel &costs,
                 std::uint64_t capacity_bytes)
    : clock(clock), costs(costs), size(capacity_bytes),
      store(static_cast<std::uint8_t *>(std::calloc(size ? size : 1, 1)))
{
    if (!store)
        fatal("SimDisk: cannot allocate %llu bytes",
              (unsigned long long)size);
}

void
SimDisk::checkRange(std::uint64_t offset, std::uint64_t len) const
{
    if (offset + len > size || offset + len < offset) {
        panic("SimDisk access [%llu, %llu) beyond capacity %llu",
              (unsigned long long)offset,
              (unsigned long long)(offset + len),
              (unsigned long long)size);
    }
}

PagerResult
SimDisk::injectionFor(bool is_write, std::uint64_t offset,
                      std::uint64_t len)
{
    if (!inject)
        return PagerResult::Ok;
    PagerResult pr = inject->decide(
        is_write ? FaultOp::DiskWrite : FaultOp::DiskRead, offset,
        &clock);
    if (pr != PagerResult::Ok) {
        // The device was busy for the whole attempt before it
        // reported the error.
        SimTime cost = costs.diskCost(len);
        clock.charge(CostKind::Disk, cost);
        ++errors;
        metricLatency(clock, metric::diskNs, cost);
        traceEmit(clock, TraceEventType::IoError,
                  static_cast<std::uint8_t>(pr), offset,
                  static_cast<std::uint64_t>(
                      is_write ? FaultOp::DiskWrite : FaultOp::DiskRead));
    }
    return pr;
}

PagerResult
SimDisk::read(std::uint64_t offset, void *buf, std::uint64_t len)
{
    checkRange(offset, len);
    PagerResult pr = injectionFor(false, offset, len);
    if (pr != PagerResult::Ok)
        return pr;
    std::memcpy(buf, store.get() + offset, len);
    SimTime cost = costs.diskCost(len);
    clock.charge(CostKind::Disk, cost);
    ++reads;
    bytes += len;
    metricLatency(clock, metric::diskNs, cost);
    traceEmit(clock, TraceEventType::DiskRead, 0, offset, len);
    return PagerResult::Ok;
}

PagerResult
SimDisk::write(std::uint64_t offset, const void *buf, std::uint64_t len)
{
    checkRange(offset, len);
    PagerResult pr = injectionFor(true, offset, len);
    if (pr != PagerResult::Ok)
        return pr;
    std::memcpy(store.get() + offset, buf, len);
    SimTime cost = costs.diskCost(len);
    clock.charge(CostKind::Disk, cost);
    ++writes;
    bytes += len;
    metricLatency(clock, metric::diskNs, cost);
    traceEmit(clock, TraceEventType::DiskWrite, 0, offset, len);
    return PagerResult::Ok;
}

PagerResult
SimDisk::writeAsync(std::uint64_t offset, const void *buf,
                    std::uint64_t len)
{
    checkRange(offset, len);
    PagerResult pr = injectionFor(true, offset, len);
    if (pr != PagerResult::Ok)
        return pr;
    std::memcpy(store.get() + offset, buf, len);
    SimTime cost = static_cast<SimTime>(costs.diskPerByte * len);
    clock.charge(CostKind::Disk, cost);
    ++writes;
    bytes += len;
    metricLatency(clock, metric::diskNs, cost);
    traceEmit(clock, TraceEventType::DiskWrite, 1, offset, len);
    return PagerResult::Ok;
}

} // namespace mach
