/**
 * @file
 * CRC32 implementation: table-driven update plus GF(2) matrix combine.
 *
 * Both operations sit on simulation hot paths (per-primitive signature
 * combines run once per (primitive, tile) pair per frame), so each has a
 * fast path that is bit-identical to the textbook form:
 *
 *  - update() consumes 8 bytes per step with a slice-by-8 table fan-in
 *    (same polynomial division, just restructured XOR order);
 *  - combine() keeps the zero-padding operator of recent block lengths
 *    as byte tables, per thread. The operator is a pure function of
 *    len_b, and the simulator combines millions of blocks drawn from a
 *    handful of attribute sizes, so the matrix exponentiation runs once
 *    per length per thread, and every later combine is four table
 *    lookups with no lock.
 */
#include "common/crc32.hpp"

#include <array>
#include <bit>

namespace evrsim {

namespace {

constexpr std::uint32_t kPoly = 0xedb88320u; // reflected IEEE polynomial

/** Slice-by-8 tables: kTable8[0] is the classic byte table; entry
 *  kTable8[k][b] advances byte b through k additional zero bytes. */
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr SliceTables
makeTables()
{
    SliceTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    return t;
}

const SliceTables kT = makeTables();

/** Multiply a GF(2) 32x32 matrix by a vector. */
std::uint32_t
gf2MatrixTimes(const std::uint32_t *mat, std::uint32_t vec)
{
    std::uint32_t sum = 0;
    while (vec) {
        if (vec & 1u)
            sum ^= *mat;
        vec >>= 1;
        ++mat;
    }
    return sum;
}

/** Square a GF(2) 32x32 matrix: square[i] = mat * mat[i]. */
void
gf2MatrixSquare(std::uint32_t *square, const std::uint32_t *mat)
{
    for (int n = 0; n < 32; ++n)
        square[n] = gf2MatrixTimes(mat, mat[n]);
}

/** The 32x32 GF(2) operator advancing a CRC across len zero bytes. */
struct ZeroOperator {
    std::array<std::uint32_t, 32> mat;
};

/** Build the zero operator for @p len bytes (len > 0) from scratch —
 *  the original matrix-exponentiation walk of the length's bits. */
ZeroOperator
buildZeroOperator(std::uint64_t len)
{
    std::uint32_t even[32]; // even-power-of-two zero operator
    std::uint32_t odd[32];  // odd-power-of-two zero operator

    // Operator for one zero bit.
    odd[0] = kPoly;
    std::uint32_t row = 1;
    for (int n = 1; n < 32; ++n) {
        odd[n] = row;
        row <<= 1;
    }
    // Two zero bits, then four.
    gf2MatrixSquare(even, odd);
    gf2MatrixSquare(odd, even);

    // Accumulate the identity-applied operator while walking the bits of
    // 8 * len (as zero *bytes*). We track the composite operator as a
    // matrix so it can be reapplied to any CRC later.
    ZeroOperator out;
    for (int n = 0; n < 32; ++n)
        out.mat[n] = 1u << n; // identity

    std::uint32_t tmp[32];
    bool first = true;
    do {
        gf2MatrixSquare(even, odd);
        if (len & 1u) {
            if (first) {
                for (int n = 0; n < 32; ++n)
                    out.mat[n] = even[n];
                first = false;
            } else {
                for (int n = 0; n < 32; ++n)
                    tmp[n] = gf2MatrixTimes(even, out.mat[n]);
                for (int n = 0; n < 32; ++n)
                    out.mat[n] = tmp[n];
            }
        }
        len >>= 1;
        if (len == 0)
            break;

        gf2MatrixSquare(odd, even);
        if (len & 1u) {
            if (first) {
                for (int n = 0; n < 32; ++n)
                    out.mat[n] = odd[n];
                first = false;
            } else {
                for (int n = 0; n < 32; ++n)
                    tmp[n] = gf2MatrixTimes(odd, out.mat[n]);
                for (int n = 0; n < 32; ++n)
                    out.mat[n] = tmp[n];
            }
        }
        len >>= 1;
    } while (len != 0);

    return out;
}

/**
 * The zero operator of one block length as four byte tables. The
 * operator is linear over GF(2), so applying it to a CRC splits by
 * byte: M * c = T0[c & 255] ^ T1[(c >> 8) & 255] ^ T2[(c >> 16) & 255]
 * ^ T3[c >> 24], with Tk[b] = M * (b << 8k). Exactly the matrix-vector
 * product, in four lookups.
 */
struct ZeroTables {
    std::uint64_t len = 0; ///< 0: empty slot (combine never asks for it)
    std::array<std::array<std::uint32_t, 256>, 4> t{};
};

void
buildZeroTables(ZeroTables &z, std::uint64_t len)
{
    const ZeroOperator op = buildZeroOperator(len);
    for (int k = 0; k < 4; ++k) {
        std::array<std::uint32_t, 256> &tk = z.t[static_cast<std::size_t>(k)];
        tk[0] = 0;
        // Tk[b] = Tk[b without its lowest set bit] ^ column of that bit.
        for (unsigned b = 1; b < 256; ++b)
            tk[b] = tk[b & (b - 1)] ^ op.mat[static_cast<std::size_t>(
                                          8 * k + std::countr_zero(b))];
    }
    z.len = len;
}

/** Per-thread tables of the last few block lengths. The simulator
 *  combines blocks of a handful of attribute sizes, so a 4-slot cache
 *  hits almost always; owning it per thread keeps every combine free
 *  of locks and shared writes. Built once per length per thread. */
struct ZeroTableCache {
    std::array<ZeroTables, 4> slot;
    unsigned victim = 0; ///< round-robin replacement
};

thread_local ZeroTableCache t_zero_tables;

const ZeroTables &
zeroTablesFor(std::uint64_t len)
{
    ZeroTableCache &c = t_zero_tables;
    for (const ZeroTables &z : c.slot)
        if (z.len == len)
            return z;
    ZeroTables &z = c.slot[c.victim];
    c.victim = (c.victim + 1) % c.slot.size();
    buildZeroTables(z, len);
    return z;
}

} // namespace

void
Crc32::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc_;
    length_ += len;

    // Slice-by-8: fold 8 bytes per iteration through the 8 tables. The
    // result is the same polynomial division as the byte loop below.
    while (len >= 8) {
        std::uint32_t lo = c ^ (static_cast<std::uint32_t>(p[0]) |
                                (static_cast<std::uint32_t>(p[1]) << 8) |
                                (static_cast<std::uint32_t>(p[2]) << 16) |
                                (static_cast<std::uint32_t>(p[3]) << 24));
        c = kT[7][lo & 0xffu] ^ kT[6][(lo >> 8) & 0xffu] ^
            kT[5][(lo >> 16) & 0xffu] ^ kT[4][lo >> 24] ^ kT[3][p[4]] ^
            kT[2][p[5]] ^ kT[1][p[6]] ^ kT[0][p[7]];
        p += 8;
        len -= 8;
    }
    for (std::size_t i = 0; i < len; ++i)
        c = kT[0][(c ^ p[i]) & 0xffu] ^ (c >> 8);
    crc_ = c;
}

std::uint32_t
Crc32::of(const void *data, std::size_t len)
{
    Crc32 h;
    h.update(data, len);
    return h.value();
}

std::uint32_t
Crc32::combine(std::uint32_t crc_a, std::uint32_t crc_b, std::uint64_t len_b)
{
    // Degenerate case: appending an empty block changes nothing.
    if (len_b == 0)
        return crc_a;
    const ZeroTables &z = zeroTablesFor(len_b);
    return z.t[0][crc_a & 0xffu] ^ z.t[1][(crc_a >> 8) & 0xffu] ^
           z.t[2][(crc_a >> 16) & 0xffu] ^ z.t[3][crc_a >> 24] ^ crc_b;
}

} // namespace evrsim
