#include "mapping/bitslice.h"

#include <bit>
#include <utility>

#include "common/logging.h"

namespace cfva {

void
transpose64(std::uint64_t w[64])
{
    // Recursive block swap (Hacker's Delight 7-3, widened to 64):
    // round j swaps the off-diagonal j x j blocks, masked by m.
    std::uint64_t m = 0x00000000FFFFFFFFull;
    for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            const std::uint64_t t = (w[k] ^ (w[k + j] >> j)) & m;
            w[k] ^= t;
            w[k + j] ^= t << j;
        }
    }
}

BitSlicedMapper::BitSlicedMapper(std::vector<std::uint64_t> rows)
    : rows_(std::move(rows)),
      moduleBits_(static_cast<unsigned>(rows_.size()))
{
    cfva_assert(moduleBits_ >= 1 && moduleBits_ <= 16,
                "bit-sliced mapper over ", moduleBits_,
                " module bits (supported: 1..16)");
}

BitSlicedMapper::BitSlicedMapper(const ModuleMapping &map)
    : moduleBits_(map.moduleBits())
{
    if (map.gf2Rows(rows_)) {
        cfva_assert(rows_.size() == moduleBits_,
                    "mapping exposed ", rows_.size(),
                    " GF(2) rows for ", moduleBits_, " module bits");
        return;
    }
    rows_.clear();
    fallback_ = &map;
}

void
BitSlicedMapper::mapLanes(const std::uint64_t addrs[kLaneWidth],
                          std::uint64_t planes[]) const
{
    cfva_assert(bitSliced() && !rows_.empty(),
                "mapLanes needs the bit-sliced mode");
    // Reversed load compensates transpose64's anti-diagonal
    // convention: afterwards block[63-b] holds address bit b of all
    // 64 lanes, with lane j at bit j.
    std::uint64_t block[kLaneWidth];
    for (std::size_t j = 0; j < kLaneWidth; ++j)
        block[kLaneWidth - 1 - j] = addrs[j];
    transpose64(block);
    // Plane i is the XOR of the lane words the row names.
    for (unsigned i = 0; i < moduleBits_; ++i) {
        std::uint64_t p = 0;
        std::uint64_t row = rows_[i];
        while (row) {
            p ^= block[kLaneWidth - 1 - std::countr_zero(row)];
            row &= row - 1;
        }
        planes[i] = p;
    }
}

void
BitSlicedMapper::mapBlock(std::uint64_t block[kLaneWidth],
                          ModuleId *out) const
{
    transpose64(block);
    // The caller loaded the block reversed, so address bit b of all
    // 64 lanes now sits in block[63-b] with lane j at bit j.
    std::uint64_t planes[16];
    for (unsigned i = 0; i < moduleBits_; ++i) {
        std::uint64_t p = 0;
        std::uint64_t row = rows_[i];
        while (row) {
            p ^= block[kLaneWidth - 1 - std::countr_zero(row)];
            row &= row - 1;
        }
        planes[i] = p;
    }
    for (unsigned lane = 0; lane < kLaneWidth; ++lane) {
        ModuleId b = 0;
        for (unsigned i = 0; i < moduleBits_; ++i)
            b |= static_cast<ModuleId>((planes[i] >> lane) & 1u) << i;
        out[lane] = b;
    }
}

ModuleId
BitSlicedMapper::scalarOf(Addr a) const
{
    ModuleId b = 0;
    for (unsigned i = 0; i < moduleBits_; ++i)
        b |= static_cast<ModuleId>(parity(a & rows_[i])) << i;
    return b;
}

void
BitSlicedMapper::map(const Addr *addrs, std::size_t n,
                     ModuleId *out) const
{
    cfva_assert(n == 0 || fallback_ || !rows_.empty(),
                "mapping through an unbound BitSlicedMapper");
    mapWith([addrs](std::size_t i) { return addrs[i]; }, n, out);
}

} // namespace cfva
