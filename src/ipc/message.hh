/**
 * @file
 * Messages: typed collections of data sent between threads (paper
 * section 2).
 *
 * Messages may be of any size and may contain port capabilities and
 * out-of-line memory.  The key to efficiency in Mach is that virtual
 * memory management is integrated with communication: large amounts
 * of data — whole files, even whole address spaces — are sent in a
 * single message with the efficiency of simple memory remapping.
 * Out-of-line regions here are vm_map copyIn snapshots (copy-on-write
 * entry lists), remapped into the receiver by takeMemory(); no data
 * is copied.
 */

#ifndef MACH_IPC_MESSAGE_HH
#define MACH_IPC_MESSAGE_HH

#include <cstdint>
#include <list>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"
#include "vm/vm_map.hh"

namespace mach
{

class Port;

/** Well-known message ids for the external pager protocol. */
enum class MsgId : std::uint32_t
{
    /** @name Kernel to external pager (Table 3-1) @{ */
    PagerInit = 1,
    PagerCreate,
    PagerDataRequest,
    PagerDataUnlock,
    PagerDataWrite,
    PagerTerminate,
    /** @} */

    /** @name External pager to kernel (Table 3-2) @{ */
    PagerDataProvided = 100,
    PagerDataUnavailable,
    PagerDataLock,
    PagerCleanRequest,
    PagerFlushRequest,
    PagerReadonly,
    PagerCache,
    /** @} */

    /** First id available to applications. */
    UserBase = 1000,
};

/** A typed message. */
class Message
{
  public:
    Message() = default;
    explicit Message(std::uint32_t id) : id(id) {}
    Message(MsgId id) : id(static_cast<std::uint32_t>(id)) {}

    Message(const Message &) = delete;
    Message &operator=(const Message &) = delete;
    Message(Message &&) = default;
    Message &operator=(Message &&) = default;

    ~Message();

    std::uint32_t id = 0;
    Port *replyPort = nullptr;

    /** Typed scalar operands (offsets, sizes, lock values...). */
    std::vector<std::uint64_t> words;

    /** Small by-value data, physically copied. */
    std::vector<std::uint8_t> inlineData;

    bool is(MsgId m) const
    {
        return id == static_cast<std::uint32_t>(m);
    }

    std::uint64_t
    word(std::size_t i) const
    {
        return i < words.size() ? words[i] : 0;
    }

    /** @name Out-of-line memory @{ */
    /**
     * Attach [addr, addr+size) of @p src copy-on-write.  No data is
     * copied; the source is marked needs-copy.  A message carries
     * one region: a second attach returns InvalidArgument and leaves
     * the first intact.
     */
    KernReturn attachMemory(VmMap &src, VmOffset addr, VmSize size);

    /**
     * Map the attached memory into @p dst at a kernel-chosen address
     * (simple memory remapping on the receive side).
     */
    KernReturn takeMemory(VmMap &dst, VmOffset *addr);

    bool hasMemory() const { return oolSize != 0; }
    VmSize memorySize() const { return oolSize; }
    /** @} */

  private:
    std::list<VmMapEntry> oolEntries;
    VmSize oolSize = 0;
};

} // namespace mach

#endif // MACH_IPC_MESSAGE_HH
