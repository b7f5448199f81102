#include "src/mem/tag_array.hh"

#include <algorithm>
#include <bit>

#include "src/sim/logging.hh"

namespace netcrafter::mem {

TagArray::TagArray(std::uint64_t size_bytes, std::uint32_t assoc,
                   std::uint32_t line_bytes, std::uint32_t sector_bytes)
    : assoc_(assoc), lineBytes_(line_bytes), sectorBytes_(sector_bytes),
      sectorsPerLine_(line_bytes / sector_bytes),
      setBytes_((12 * std::size_t{assoc} + 6 + 7) / 8 * 8)
{
    NC_ASSERT(assoc_ >= 1 && assoc_ <= 32,
              "associativity must be 1..32, got ", assoc_);
    NC_ASSERT(std::has_single_bit(line_bytes),
              "line size must be a power of two");
    NC_ASSERT(sector_bytes > 0 && line_bytes % sector_bytes == 0,
              "sector size must divide line size");
    NC_ASSERT(sectorsPerLine_ <= 16, "at most 16 sectors per line");
    NC_ASSERT(size_bytes >= std::uint64_t{line_bytes} * assoc_,
              "cache smaller than one set");
    NC_ASSERT(size_bytes % (std::uint64_t{line_bytes} * assoc_) == 0,
              "cache size ", size_bytes, " is not a multiple of ", assoc_,
              " ways x ", line_bytes, " B");
    const std::uint64_t sets = size_bytes / line_bytes / assoc_;
    NC_ASSERT(sets <= ~std::uint32_t{0}, "too many sets");
    numSets_ = static_cast<std::uint32_t>(sets);
    lineShift_ = static_cast<std::uint32_t>(std::countr_zero(line_bytes));
    pow2Sets_ = std::has_single_bit(numSets_);
    setMask_ = numSets_ - 1;

    const std::size_t chunks = (numSets_ + kChunkSets - 1) / kChunkSets;
    chunkPtr_.resize(chunks);
    const std::size_t fit = kPageBytes / (kChunkSets * setBytes_);
    pageChunks_ = std::min(fit > 0 ? std::bit_floor(fit) : 1, chunks);
}

std::byte *
TagArray::materializeSet(std::uint32_t set)
{
    std::byte *&chunk = chunkPtr_[set / kChunkSets];
    if (chunk == nullptr) {
        const std::size_t chunk_bytes = kChunkSets * setBytes_;
        const std::size_t slot = chunks_ % pageChunks_;
        if (slot == 0) {
            pages_.push_back(
                std::make_unique<std::byte[]>(pageChunks_ * chunk_bytes));
        }
        chunk = pages_.back().get() + slot * chunk_bytes;
        ++chunks_;
    }
    return chunk + (set % kChunkSets) * setBytes_;
}

TagArray::Way
TagArray::lookup(Addr line) const
{
    Way way;
    std::byte *set = setPtr(setOf(line));
    if (set == nullptr)
        return way;
    const Addr key = line + 1;
    const Addr *tags = tagsOf(set);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if (tags[w] == key) {
            way.set_ = set;
            way.way_ = w;
            break;
        }
    }
    return way;
}

SectorMask
TagArray::validSectors(Addr line) const
{
    const Way way = lookup(line);
    return way ? validSectors(way) : 0;
}

bool
TagArray::covers(Addr line, SectorMask needed) const
{
    return (validSectors(line) & needed) == needed;
}

void
TagArray::renumber(std::byte *set)
{
    const Addr *tags = tagsOf(set);
    std::uint16_t *stamps = stampsOf(set);
    std::uint16_t ranks[32];
    std::uint16_t valid = 0;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        ranks[w] = 0;
        if (tags[w] == 0)
            continue;
        ++valid;
        ranks[w] = 1;
        for (std::uint32_t v = 0; v < assoc_; ++v)
            ranks[w] += tags[v] != 0 && stamps[v] < stamps[w];
    }
    std::copy(ranks, ranks + assoc_, stamps);
    clockOf(set) = valid;
}

Eviction
TagArray::fill(Addr line, SectorMask mask)
{
    NC_ASSERT(mask != 0 && (mask & ~fullMask(sectorsPerLine_)) == 0,
              "fill with a bad sector mask ", mask);
    ++fills_;
    std::byte *set = materializeSet(setOf(line));
    Addr *tags = tagsOf(set);
    std::uint16_t *stamps = stampsOf(set);
    std::uint16_t *valid = validOf(set);
    const Addr key = line + 1;

    // One pass finds the line itself, the first invalid way, and the
    // least recently used way. Stamps of valid ways are unique, so the
    // strict comparison picks the same way as an in-order scan would.
    std::uint32_t invalid = assoc_;
    std::uint32_t lru = 0;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        const Addr tag = tags[w];
        if (tag == key) {
            valid[w] |= static_cast<std::uint16_t>(mask);
            stamps[w] = nextStamp(set);
            return Eviction{};
        }
        if (tag == 0) {
            if (invalid == assoc_)
                invalid = w;
        } else if (stamps[w] < stamps[lru]) {
            lru = w;
        }
    }

    Eviction ev;
    const std::uint32_t victim = invalid != assoc_ ? invalid : lru;
    std::uint32_t &dirty = dirtyOf(set);
    if (tags[victim] != 0) {
        ev.valid = true;
        ev.line = tags[victim] - 1;
        ev.dirty = (dirty >> victim) & 1u;
        ++evictions_;
    }
    tags[victim] = key;
    valid[victim] = static_cast<std::uint16_t>(mask);
    dirty &= ~(1u << victim);
    stamps[victim] = nextStamp(set);
    return ev;
}

void
TagArray::touch(Addr line)
{
    if (const Way way = lookup(line))
        touch(way);
}

void
TagArray::markDirty(Addr line)
{
    if (const Way way = lookup(line))
        markDirty(way);
}

bool
TagArray::invalidate(Addr line)
{
    const Way way = lookup(line);
    if (!way)
        return false;
    tagsOf(way.set_)[way.way_] = 0;
    stampsOf(way.set_)[way.way_] = 0;
    validOf(way.set_)[way.way_] = 0;
    dirtyOf(way.set_) &= ~(1u << way.way_);
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
