#include "src/gpu/coalescer.hh"

#include <algorithm>
#include <array>

namespace netcrafter::gpu {

std::vector<CoalescedAccess>
coalesce(const workloads::Instruction &instr)
{
    std::vector<CoalescedAccess> out;
    coalesce(instr, out);
    return out;
}

void
coalesce(const workloads::Instruction &instr,
         std::vector<CoalescedAccess> &out)
{
    // Line -> index into out, open-addressed on the stack: a wavefront
    // touches at most kWavefrontSize lines, so twice that many slots
    // keep probe runs short.
    constexpr std::size_t kSlots = 2 * kWavefrontSize;
    std::array<Addr, kSlots> lines;
    std::array<std::uint8_t, kSlots> index;
    lines.fill(kAddrInvalid);

    out.clear();
    for (Addr addr : instr.addrs) {
        if (addr == kAddrInvalid)
            continue;
        const Addr line = lineAddr(addr);
        const std::uint32_t first =
            static_cast<std::uint32_t>(addr - line);
        std::uint32_t last = first + instr.elemBytes - 1;
        // An element straddling the line boundary clamps to this line;
        // a second access for the spill-over would be negligible and the
        // generators avoid straddles anyway.
        last = std::min(last, kCacheLineBytes - 1);

        std::size_t slot = static_cast<std::size_t>(
                               (line / kCacheLineBytes) *
                               0x9E3779B97F4A7C15ull >> 32) %
                           kSlots;
        while (lines[slot] != kAddrInvalid && lines[slot] != line)
            slot = (slot + 1) % kSlots;
        if (lines[slot] == kAddrInvalid) {
            lines[slot] = line;
            index[slot] = static_cast<std::uint8_t>(out.size());
            out.push_back(CoalescedAccess{line, first, last - first + 1,
                                          instr.isWrite});
        } else {
            CoalescedAccess &a = out[index[slot]];
            const std::uint32_t lo = std::min(a.offset, first);
            const std::uint32_t hi = std::max(a.offset + a.bytes - 1,
                                              last);
            a.offset = lo;
            a.bytes = hi - lo + 1;
        }
    }
}

} // namespace netcrafter::gpu
