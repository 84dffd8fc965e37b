/**
 * @file
 * Bit-manipulation primitives used throughout CFVA.
 *
 * The paper (Valero et al., ISCA 1992) manipulates binary addresses
 * a_{n-1..0} field-wise: the module-number component of every address
 * mapping is defined bit-by-bit (Eq. 1 and Eq. 2).  These helpers keep
 * that arithmetic readable and assert-checked in one place.
 */

#ifndef CFVA_COMMON_BITS_H
#define CFVA_COMMON_BITS_H

#include <cassert>
#include <cstdint>

namespace cfva {

/** One-dimensional memory address (the paper's A, bits a_{n-1..0}). */
using Addr = std::uint64_t;

/** Memory-module number (the paper's b, bits b_{m-1..0}). */
using ModuleId = std::uint32_t;

/** Processor cycle count. */
using Cycle = std::uint64_t;

/** Returns a mask with the low @p n bits set. @p n may be 0..64. */
constexpr std::uint64_t
lowMask(unsigned n)
{
    return n >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1);
}

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Overflow-checked unsigned arithmetic: stores @p a + @p b (or
 * @p a * @p b) in @p out and returns true, or returns false when
 * the exact result does not fit 64 bits.  Boundary validation
 * must be explicit — UBSan does not trap unsigned wraparound.
 */
constexpr bool
checkedAdd(std::uint64_t a, std::uint64_t b, std::uint64_t &out)
{
    return !__builtin_add_overflow(a, b, &out);
}

/** See checkedAdd(). */
constexpr bool
checkedMul(std::uint64_t a, std::uint64_t b, std::uint64_t &out)
{
    return !__builtin_mul_overflow(a, b, &out);
}

/** Floor of log2(@p v); @p v must be nonzero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    assert(v != 0);
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** Exact log2 of a power of two. */
constexpr unsigned
exactLog2(std::uint64_t v)
{
    assert(isPow2(v));
    return floorLog2(v);
}

/**
 * Extracts the bit field a_{first+width-1 .. first} of @p v.
 *
 * @param v     source word
 * @param first index of the least-significant bit of the field
 * @param width field width in bits
 */
constexpr std::uint64_t
bitField(std::uint64_t v, unsigned first, unsigned width)
{
    return (v >> first) & lowMask(width);
}

/** Extracts the single bit a_{i} of @p v. */
constexpr unsigned
bit(std::uint64_t v, unsigned i)
{
    return static_cast<unsigned>((v >> i) & 1);
}

/** Parity (XOR-reduction) of all bits of @p v; GF(2) dot product. */
constexpr unsigned
parity(std::uint64_t v)
{
    v ^= v >> 32;
    v ^= v >> 16;
    v ^= v >> 8;
    v ^= v >> 4;
    v ^= v >> 2;
    v ^= v >> 1;
    return static_cast<unsigned>(v & 1);
}

/** Population count. */
constexpr unsigned
popCount(std::uint64_t v)
{
    unsigned c = 0;
    while (v) {
        v &= v - 1;
        ++c;
    }
    return c;
}

/**
 * Number of trailing zero bits of @p v — the paper's family exponent x
 * when applied to a stride.  @p v must be nonzero.
 */
constexpr unsigned
trailingZeros(std::uint64_t v)
{
    assert(v != 0);
    unsigned c = 0;
    while ((v & 1) == 0) {
        v >>= 1;
        ++c;
    }
    return c;
}

/**
 * Inserts @p field into bits first..first+width-1 of @p v, replacing
 * whatever was there.
 */
constexpr std::uint64_t
insertField(std::uint64_t v, unsigned first, unsigned width,
            std::uint64_t field)
{
    const std::uint64_t m = lowMask(width) << first;
    return (v & ~m) | ((field << first) & m);
}

} // namespace cfva

#endif // CFVA_COMMON_BITS_H
