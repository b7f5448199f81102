#include "src/vm/page_table.hh"

#include "src/sim/logging.hh"

namespace netcrafter::vm {

void
PageTable::place(Addr vaddr, GpuId owner)
{
    NC_ASSERT(owner < numGpus_, "placement on unknown GPU ", owner);
    const Addr vpn = vaddr / kPageBytes;
    auto [chunk, fresh] = pageOwner_.tryEmplace(vpn / kChunkPages);
    if (fresh)
        chunk->fill(kGpuInvalid);
    GpuId &slot = (*chunk)[vpn % kChunkPages];
    if (slot == kGpuInvalid)
        ++placedPages_;
    slot = owner;
    // Leaf PTE page co-location: the page table page mapping this 2 MB
    // region goes where the region's first placed data page went.
    const Addr region = vaddr >> 21;
    auto [pte_owner, first] = ptePageOwner_.tryEmplace(region);
    if (first)
        *pte_owner = owner;
}

GpuId
PageTable::pageOwner(Addr vpn) const
{
    const OwnerChunk *chunk = pageOwner_.find(vpn / kChunkPages);
    return chunk != nullptr ? (*chunk)[vpn % kChunkPages] : kGpuInvalid;
}

GpuId
PageTable::dataOwner(Addr addr) const
{
    const Addr vpn = addr / kPageBytes;
    const GpuId owner = pageOwner(vpn);
    if (owner != kGpuInvalid)
        return owner;
    // Unplaced pages (e.g. scratch) interleave round-robin so nothing is
    // accidentally hot on GPU 0.
    return static_cast<GpuId>(vpn % numGpus_);
}

bool
PageTable::isPlaced(Addr addr) const
{
    return pageOwner(addr / kPageBytes) != kGpuInvalid;
}

WalkStep
PageTable::step(int level, Addr vaddr) const
{
    NC_ASSERT(level >= 1 && level <= kPageTableLevels,
              "bad page table level ", level);
    const Addr pfx = prefix(level, vaddr);

    WalkStep s;
    // Synthetic, unique, 8B-spaced PTE addresses per (level, prefix);
    // eight neighbouring PTEs share a 64B line, giving page walks the
    // same L2 spatial locality they enjoy on real hardware.
    s.pteAddr = kPteRegionBase +
                (static_cast<Addr>(level) << 44) + pfx * kPteBytes;

    if (level == kPageTableLevels) {
        // Leaf PTE page: 512 PTEs cover one 2 MB region.
        const Addr region = vaddr >> 21;
        const GpuId *owner = ptePageOwner_.find(region);
        s.owner = owner != nullptr ? *owner
                                   : static_cast<GpuId>(region % numGpus_);
    } else {
        // Upper-level table pages round-robin across GPUs; they are
        // almost always PWC hits, so their placement is a minor effect.
        s.owner = static_cast<GpuId>(pfx % numGpus_);
    }
    return s;
}

} // namespace netcrafter::vm
