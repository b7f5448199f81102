#include "src/mem/tag_array.hh"

#include "src/sim/logging.hh"

namespace netcrafter::mem {

TagArray::TagArray(std::uint64_t size_bytes, std::uint32_t assoc,
                   std::uint32_t line_bytes, std::uint32_t sector_bytes)
    : assoc_(assoc), lineBytes_(line_bytes), sectorBytes_(sector_bytes),
      sectorsPerLine_(line_bytes / sector_bytes)
{
    NC_ASSERT(sector_bytes > 0 && line_bytes % sector_bytes == 0,
              "sector size must divide line size");
    const std::uint64_t lines = size_bytes / line_bytes;
    NC_ASSERT(lines >= assoc_, "cache smaller than one set");
    numSets_ = static_cast<std::uint32_t>(lines / assoc_);
    NC_ASSERT(numSets_ > 0, "cache must have at least one set");
    chunkOf_.resize((numSets_ + kChunkSets - 1) / kChunkSets);
}

std::uint32_t
TagArray::setOf(Addr line) const
{
    return static_cast<std::uint32_t>((line / lineBytes_) % numSets_);
}

std::size_t
TagArray::setBase(std::uint32_t set) const
{
    const std::uint32_t chunk = chunkOf_[set / kChunkSets];
    if (chunk == 0)
        return kNoSlot;
    return (static_cast<std::size_t>(chunk - 1) * kChunkSets +
            set % kChunkSets) *
           assoc_;
}

std::size_t
TagArray::materializeSet(std::uint32_t set)
{
    std::uint32_t &chunk = chunkOf_[set / kChunkSets];
    if (chunk == 0) {
        const std::size_t lines = tags_.size() + kChunkSets * assoc_;
        tags_.resize(lines);
        valid_.resize(lines);
        lastUse_.resize(lines);
        dirty_.resize(lines);
        chunk = static_cast<std::uint32_t>(lines / (kChunkSets * assoc_));
    }
    return setBase(set);
}

std::size_t
TagArray::findSlot(Addr line) const
{
    const std::size_t base = setBase(setOf(line));
    if (base == kNoSlot)
        return kNoSlot;
    const Addr key = line + 1;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (tags_[base + w] == key)
            return base + w;
    }
    return kNoSlot;
}

bool
TagArray::present(Addr line) const
{
    return findSlot(line) != kNoSlot;
}

SectorMask
TagArray::validSectors(Addr line) const
{
    const std::size_t slot = findSlot(line);
    return slot != kNoSlot ? valid_[slot] : 0;
}

bool
TagArray::covers(Addr line, SectorMask needed) const
{
    return (validSectors(line) & needed) == needed;
}

Eviction
TagArray::fill(Addr line, SectorMask mask)
{
    NC_ASSERT(mask != 0, "fill with empty sector mask");
    ++fills_;
    ++useClock_;
    const std::size_t base = materializeSet(setOf(line));
    const Addr key = line + 1;

    // One pass finds the line itself, the first invalid way, and the
    // least recently used way. Stamps of valid ways are unique, so the
    // strict comparison picks the same way as an in-order scan would.
    std::size_t hit = kNoSlot;
    std::size_t invalid = kNoSlot;
    std::size_t lru = base;
    for (std::size_t slot = base; slot < base + assoc_; ++slot) {
        const Addr tag = tags_[slot];
        if (tag == key) {
            hit = slot;
            break;
        }
        if (tag == 0) {
            if (invalid == kNoSlot)
                invalid = slot;
        } else if (lastUse_[slot] < lastUse_[lru]) {
            lru = slot;
        }
    }
    if (hit != kNoSlot) {
        valid_[hit] |= mask;
        lastUse_[hit] = useClock_;
        return Eviction{};
    }

    Eviction ev;
    const std::size_t victim = invalid != kNoSlot ? invalid : lru;
    if (tags_[victim] != 0) {
        ev.valid = true;
        ev.line = tags_[victim] - 1;
        ev.dirty = dirty_[victim] != 0;
        ++evictions_;
    }
    tags_[victim] = key;
    valid_[victim] = mask;
    dirty_[victim] = 0;
    lastUse_[victim] = useClock_;
    return ev;
}

void
TagArray::touch(Addr line)
{
    const std::size_t slot = findSlot(line);
    if (slot != kNoSlot)
        lastUse_[slot] = ++useClock_;
}

void
TagArray::markDirty(Addr line)
{
    const std::size_t slot = findSlot(line);
    if (slot != kNoSlot)
        dirty_[slot] = 1;
}

bool
TagArray::invalidate(Addr line)
{
    const std::size_t slot = findSlot(line);
    if (slot == kNoSlot)
        return false;
    tags_[slot] = 0;
    valid_[slot] = 0;
    dirty_[slot] = 0;
    return true;
}

SectorMask
TagArray::sectorsForRange(std::uint32_t offset, std::uint32_t bytes) const
{
    NC_ASSERT(bytes > 0 && offset + bytes <= lineBytes_,
              "byte range outside line: offset=", offset, " bytes=",
              bytes);
    const std::uint32_t first = offset / sectorBytes_;
    const std::uint32_t last = (offset + bytes - 1) / sectorBytes_;
    SectorMask mask = 0;
    for (std::uint32_t s = first; s <= last; ++s)
        mask |= 1ull << s;
    return mask;
}

} // namespace netcrafter::mem
