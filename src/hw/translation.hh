/**
 * @file
 * The interface the simulated MMU uses to refill its TLB.
 *
 * Each pmap implementation is a TranslationSource: on a TLB miss the
 * MMU "walks" whatever in-memory structure the architecture defines
 * (linear page table, inverted hash table, segment map, or a software
 * dictionary for TLB-only machines).  A lookup that fails becomes a
 * page fault delivered to the machine-independent fault handler.
 */

#ifndef MACH_HW_TRANSLATION_HH
#define MACH_HW_TRANSLATION_HH

#include <optional>
#include <type_traits>

#include "base/types.hh"

namespace mach
{

/** One hardware translation, as produced by a table walk. */
struct HwTranslation
{
    PhysAddr pageBase = 0;      //!< physical base of the hw page
    VmProt prot = VmProt::None; //!< permissions encoded in the entry
    bool wired = false;         //!< never dropped by the pmap
};

/** The kind of memory access the simulated program performs. */
enum class AccessType : unsigned
{
    Read = 0,
    Write,
    Execute,
    /**
     * Read-modify-write.  Requires read and write permission; on the
     * NS32082 a fault taken here is (incorrectly) reported as a read
     * fault (paper section 5.1).
     */
    Rmw,
};

/** The permission an access requires. */
constexpr VmProt
accessProt(AccessType t)
{
    switch (t) {
      case AccessType::Read: return VmProt::Read;
      case AccessType::Write: return VmProt::Write;
      case AccessType::Execute: return VmProt::Execute;
      case AccessType::Rmw: return VmProt::Read | VmProt::Write;
    }
    return VmProt::None;
}

/** True if the access modifies memory. */
constexpr bool
accessWrites(AccessType t)
{
    return t == AccessType::Write || t == AccessType::Rmw;
}

class TranslationSource;

/**
 * Concrete dispatch table for the MMU refill path.
 *
 * The translate/fault hot loop calls hwLookup/hwMarkReferenced/
 * hwMarkModified once per TLB miss; going through the vtable defeats
 * inlining of the table walk.  Each final pmap type registers a
 * per-type table (kHwOpsFor<T>) whose thunks cast to the concrete
 * type, so the compiler devirtualizes and inlines the walk.  Sources
 * that never register one fall back to kVirtualHwOps, which performs
 * the plain virtual call.
 */
struct HwOps
{
    std::optional<HwTranslation> (*lookup)(TranslationSource *, VmOffset,
                                           AccessType);
    void (*markRef)(TranslationSource *, PhysAddr);
    void (*markMod)(TranslationSource *, VmOffset);
};

/**
 * Something the MMU can ask for translations: in practice, a Pmap.
 */
class TranslationSource
{
  public:
    TranslationSource();
    virtual ~TranslationSource() = default;

    /**
     * Walk the hardware-defined map for the page containing @p va.
     *
     * @param va faulting virtual address
     * @param access the access being performed (some architectures
     *        refuse to hand out a translation that the access could
     *        not use, e.g. the RT's inverted table on an alias miss)
     * @return the translation, or nullopt if none is present — the
     *         MMU then raises a page fault
     */
    virtual std::optional<HwTranslation>
    hwLookup(VmOffset va, AccessType access) = 0;

    /**
     * The hardware recorded a reference to the frame at @p page_base,
     * which the miss-path walk just returned.
     */
    virtual void hwMarkReferenced(PhysAddr page_base) = 0;

    /** The hardware recorded a modify of the page holding @p va. */
    virtual void hwMarkModified(VmOffset va) = 0;

    /**
     * Tag used to match TLB entries to address spaces.  Architectures
     * with real context tags (SUN 3) return a stable per-context
     * value; others return `this` and take a full flush on switch.
     */
    virtual const void *tlbTag() const { return this; }

    /** Dispatch table the MMU uses on the miss path. */
    const HwOps *hwOps() const { return ops; }

  protected:
    /** Bind the concrete dispatch table (call from leaf ctors). */
    void setHwOps(const HwOps *table) { ops = table; }

  private:
    const HwOps *ops;
};

/** Fallback table: plain virtual dispatch. */
inline constexpr HwOps kVirtualHwOps = {
    [](TranslationSource *s, VmOffset va, AccessType access) {
        return s->hwLookup(va, access);
    },
    [](TranslationSource *s, PhysAddr pa) { s->hwMarkReferenced(pa); },
    [](TranslationSource *s, VmOffset va) { s->hwMarkModified(va); },
};

inline TranslationSource::TranslationSource() : ops(&kVirtualHwOps) {}

/**
 * Per-type dispatch table.  @p T must be a final class so the casts
 * below let the compiler resolve the calls statically.
 */
template <typename T>
inline constexpr HwOps kHwOpsFor = {
    [](TranslationSource *s, VmOffset va, AccessType access) {
        static_assert(std::is_final_v<T>);
        return static_cast<T *>(s)->hwLookup(va, access);
    },
    [](TranslationSource *s, PhysAddr pa) {
        static_cast<T *>(s)->hwMarkReferenced(pa);
    },
    [](TranslationSource *s, VmOffset va) {
        static_cast<T *>(s)->hwMarkModified(va);
    },
};

} // namespace mach

#endif // MACH_HW_TRANSLATION_HH
