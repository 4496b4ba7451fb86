#include "sim/trace.hh"

#include "base/logging.hh"

namespace mach
{

const char *
traceEventName(TraceEventType type)
{
    switch (type) {
      case TraceEventType::FaultBegin: return "fault_begin";
      case TraceEventType::FaultEnd: return "fault_end";
      case TraceEventType::Pageout: return "pageout";
      case TraceEventType::Shootdown: return "shootdown";
      case TraceEventType::Ipi: return "ipi";
      case TraceEventType::PmapEnter: return "pmap_enter";
      case TraceEventType::PmapRemove: return "pmap_remove";
      case TraceEventType::PmapProtect: return "pmap_protect";
      case TraceEventType::PmapRemoveAll: return "pmap_remove_all";
      case TraceEventType::PmapCow: return "pmap_cow";
      case TraceEventType::DiskRead: return "disk_read";
      case TraceEventType::DiskWrite: return "disk_write";
      case TraceEventType::IoError: return "io_error";
      case TraceEventType::IoRetry: return "io_retry";
      case TraceEventType::IoRecovered: return "io_recovered";
      case TraceEventType::PagerIn: return "pager_in";
      case TraceEventType::PagerOut: return "pager_out";
      case TraceEventType::BufHit: return "buf_hit";
      case TraceEventType::BufMiss: return "buf_miss";
      case TraceEventType::BufWriteback: return "buf_writeback";
      case TraceEventType::PageoutBegin: return "pageout_begin";
      case TraceEventType::PageoutEnd: return "pageout_end";
      case TraceEventType::NumTypes: break;
    }
    return "?";
}

const char *
traceFaultKindName(TraceFaultKind kind)
{
    switch (kind) {
      case TraceFaultKind::Resident: return "resident";
      case TraceFaultKind::ZeroFill: return "zero_fill";
      case TraceFaultKind::Pagein: return "pagein";
      case TraceFaultKind::Cow: return "cow";
      case TraceFaultKind::Failed: return "failed";
      case TraceFaultKind::Error: return "error";
    }
    return "?";
}

TraceSink::TraceSink(std::size_t capacity) : ring(capacity)
{
    MACH_ASSERT(capacity > 0);
}

void
TraceSink::reset()
{
    next = 0;
    total_ = 0;
}

} // namespace mach
