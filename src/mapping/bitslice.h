/**
 * @file
 * Bit-sliced GF(2) address generation.
 *
 * Every static mapping in this repository is a GF(2) bit-matrix
 * times vector product: module bit i of address A is the parity of
 * A AND rows[i] (mapping/gf2_linear.h; Eq. 1 and Eq. 2 are sparse
 * instances).  Computed one address at a time that costs m parity
 * reductions per element.  Computed 64 addresses at a time it is a
 * transposed matrix product: transpose the 64 addresses into 64
 * address-bit lane words W_j (bit k of W_j = bit j of address k),
 * then module bit-plane P_i is simply the XOR of the W_j named by
 * rows[i] — one word op per matrix one-bit, amortized over 64
 * elements.  The transpose itself is the classic 64x64 recursive
 * block swap (6 rounds of 32 masked swaps, ~18 ops per element).
 *
 * BitSlicedMapper packages this for the memory engines: built from
 * a mapping, it captures the rows when the mapping declares itself
 * GF(2)-linear (ModuleMapping::gf2Rows) and falls back to scalar
 * moduleOf() calls otherwise — the dynamic (retunable) scheme keeps
 * its exact semantics because its rows change under retune() and it
 * therefore never exposes them.  Engines premap whole request
 * streams through one mapper instead of querying the mapping
 * per element inside their cycle loops;
 * tests/test_bitslice.cc proves packed lanes == scalar mapModule
 * bit for bit over a randomized grid of every mapping kind.
 */

#ifndef CFVA_MAPPING_BITSLICE_H
#define CFVA_MAPPING_BITSLICE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mapping/mapping.h"

namespace cfva {

/** Elements packed per machine word by the bit-sliced path. */
inline constexpr std::size_t kLaneWidth = 64;

/**
 * In-place 64x64 bit-matrix transpose (recursive block swap).
 *
 * Uses the Hacker's Delight row convention (row 0 on top, bit 63 as
 * the leftmost column), which transposes about the ANTI-diagonal in
 * bit-position terms: afterwards bit k of w[j] is bit 63-j of the
 * original w[63-k].  Callers that want natural indices load the
 * rows reversed (w[63-j] = element j), after which bit k of w[63-b]
 * is bit b of element k — see BitSlicedMapper::mapLanes.
 */
void transpose64(std::uint64_t w[64]);

/**
 * Maps addresses to module numbers 64 at a time.
 *
 * Two modes, chosen at construction:
 * - bit-sliced: the mapping exposed fixed GF(2) rows; blocks of 64
 *   addresses are mapped via transpose64 + one XOR per matrix
 *   one-bit, with a scalar tail for lengths not a multiple of 64;
 * - scalar fallback: the mapping is not (statically) linear — the
 *   dynamic retunable scheme; every element goes through
 *   ModuleMapping::moduleOf, re-read on every map() call so retunes
 *   between accesses stay visible.
 *
 * There is no knob to force the scalar mode on a linear mapping:
 * moduleOf() stays the definition, and tests diff the packed path
 * against a plain moduleOf() loop (or hand such a premap to the
 * engines through their premapped argument).
 */
class BitSlicedMapper
{
  public:
    /** Unusable until bound; map() of a nonempty span asserts. */
    BitSlicedMapper() = default;

    /** Bit-sliced mode over explicit row masks (rows.size() = m). */
    explicit BitSlicedMapper(std::vector<std::uint64_t> rows);

    /**
     * Binds to @p map: bit-sliced when the mapping exposes rows,
     * scalar fallback otherwise.  @p map must outlive the mapper
     * (exactly the backend/mapping contract).
     */
    explicit BitSlicedMapper(const ModuleMapping &map);

    /** True iff blocks take the packed-lane path. */
    bool bitSliced() const { return fallback_ == nullptr; }

    /** Module-number bits m of the bound mapping. */
    unsigned moduleBits() const { return moduleBits_; }

    /**
     * The packed-lane core: maps exactly kLaneWidth addresses into
     * m bit-planes — bit k of planes[i] is module bit i of
     * addrs[k].  Bit-sliced mode only (asserted).
     */
    void mapLanes(const std::uint64_t addrs[kLaneWidth],
                  std::uint64_t planes[]) const;

    /** Maps @p n contiguous addresses: out[i] = moduleOf(addrs[i]). */
    void map(const Addr *addrs, std::size_t n, ModuleId *out) const;

    /**
     * Maps @p n elements addressed through @p addrAt(i) — the form
     * the engines use to premap Request streams without copying the
     * addresses out first.  Blocks of kLaneWidth go through the
     * packed-lane path; the tail (and the scalar mode) map one
     * element at a time.
     */
    template <class AddrAt>
    void
    mapWith(AddrAt &&addrAt, std::size_t n, ModuleId *out) const
    {
        if (fallback_) {
            for (std::size_t i = 0; i < n; ++i)
                out[i] = fallback_->moduleOf(addrAt(i));
            return;
        }
        std::uint64_t block[kLaneWidth];
        std::size_t i = 0;
        for (; i + kLaneWidth <= n; i += kLaneWidth) {
            // Reversed load: transpose64's anti-diagonal convention
            // then leaves lane j of address bit b at bit j of
            // block[63-b] (see mapBlock).
            for (std::size_t j = 0; j < kLaneWidth; ++j)
                block[kLaneWidth - 1 - j] = addrAt(i + j);
            mapBlock(block, out + i);
        }
        for (; i < n; ++i)
            out[i] = scalarOf(addrAt(i));
    }

  private:
    /** Packed-lane block map over a REVERSED-loaded block
     *  (block[63-j] = lane j's address); destroys @p block
     *  (in-place transpose). */
    void mapBlock(std::uint64_t block[kLaneWidth],
                  ModuleId *out) const;

    /** One element through the captured rows (the block tail). */
    ModuleId scalarOf(Addr a) const;

    std::vector<std::uint64_t> rows_;
    unsigned moduleBits_ = 0;
    const ModuleMapping *fallback_ = nullptr;
};

} // namespace cfva

#endif // CFVA_MAPPING_BITSLICE_H
