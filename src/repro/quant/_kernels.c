/* Compiled tier of the quantization kernels; built and loaded on first use
 * by repro/quant/native.py, which also states the build flags.
 *
 * Three entry points, each the one-pass form of a NumPy kernel that stays
 * in the package as the reference and the fallback:
 *
 *   repro_philox_lanes    the keyed 16-bit noise lanes of
 *                         repro.quant.stochastic.KeyedRounding.fill_noise
 *   repro_quantize_pairs  the chunked quantization kernel of
 *                         FusedStepEncoder.quantize_pack_shard
 *   repro_decode_groups   unpack + de-quantize of decode_cluster_step
 *
 * Bit-identity with NumPy is a matter of doing the same float32 operations
 * in the same order: this file must be built without -ffast-math and with
 * -ffp-contract=off (no fused multiply-add), and it refuses targets that
 * evaluate float expressions in a wider type.  Row min/max run on several
 * independent accumulators — min and max are exactly associative on finite
 * values, so the grouping cannot change them.  (A row whose minimum is a
 * zero may report it with either sign, as NumPy's own SIMD reduction may;
 * every code and every de-quantized value is the same either way, because
 * code * scale is never -0.)  Inputs are finite: on a NaN, or a range that
 * overflows float32, NumPy's float -> uint8 cast is undefined as well.
 */

#include <float.h>
#include <stdint.h>
#include <string.h>

#if defined(FLT_EVAL_METHOD) && FLT_EVAL_METHOD != 0
#error "float expressions must evaluate in float (FLT_EVAL_METHOD == 0)"
#endif
#if !defined(__SIZEOF_INT128__)
#error "Philox4x64 needs a 128-bit integer type"
#endif
#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "noise lanes are the little-endian 16-bit quarters of the Philox words"
#endif

typedef unsigned __int128 u128;

#define PHILOX_M0 0xD2E7470EE14C6C93ULL
#define PHILOX_M1 0xCA5A826395121157ULL
#define PHILOX_W0 0x9E3779B97F4A7C15ULL
#define PHILOX_W1 0xBB67AE8584CAA73BULL
#define BLOCK_LANES 16 /* one Philox block: 4 words of 4 lanes */

/* Block `index` (0-based) of the Philox4x64-10 stream keyed (k0, k1), as
 * numpy.random.Philox(key=...).random_raw yields it from a fresh state: the
 * counter is incremented before each 4-word block, so block i runs on
 * counter (i + 1, 0, 0, 0). */
static inline void philox_block(uint64_t index, uint64_t k0, uint64_t k1,
                                uint64_t out[4])
{
    uint64_t c0 = index + 1, c1 = 0, c2 = 0, c3 = 0;
    for (int round = 0; round < 10; round++) {
        u128 p0 = (u128)PHILOX_M0 * c0, p1 = (u128)PHILOX_M1 * c2;
        uint64_t n0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        uint64_t n2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c1 = (uint64_t)p1;
        c3 = (uint64_t)p0;
        c0 = n0;
        c2 = n2;
        k0 += PHILOX_W0;
        k1 += PHILOX_W1;
    }
    out[0] = c0, out[1] = c1, out[2] = c2, out[3] = c3;
}

/* The first n lanes of the stream keyed key[0..1]. */
void repro_philox_lanes(const uint64_t *key, int64_t n, uint16_t *out)
{
    uint64_t words[4];
    for (int64_t done = 0; done < n; done += BLOCK_LANES) {
        int64_t take = n - done < BLOCK_LANES ? n - done : BLOCK_LANES;
        philox_block((uint64_t)(done / BLOCK_LANES), key[0], key[1], words);
        memcpy(out + done, words, (size_t)take * sizeof(uint16_t));
    }
}

/* Append whole blocks to lanes[0..have) until it holds `need` lanes.  Kept
 * out of line, like row_range: the three hot loops of the quantizer then
 * get their registers to themselves (~15 % on the whole kernel). */
__attribute__((noinline)) static int64_t draw_lanes(
    uint64_t k0, uint64_t k1, uint64_t *block, uint16_t *lanes, int64_t have,
    int64_t need)
{
    uint64_t words[4];
    for (; have < need; have += BLOCK_LANES) {
        philox_block((*block)++, k0, k1, words);
        memcpy(lanes + have, words, sizeof words);
    }
    return have;
}

/* Four-wide min/max.  The compilers do not vectorize a float min/max
 * reduction under strict IEEE rules, so the accumulators are explicit. */
typedef float v4f __attribute__((vector_size(16)));
typedef int32_t v4i __attribute__((vector_size(16)));
#if defined(__SSE2__)
#include <emmintrin.h>
#define VMIN(a, b) ((v4f)_mm_min_ps((__m128)(a), (__m128)(b)))
#define VMAX(a, b) ((v4f)_mm_max_ps((__m128)(a), (__m128)(b)))
#else
static inline v4f vselect(v4i mask, v4f a, v4f b)
{
    return (v4f)(((v4i)a & mask) | ((v4i)b & ~mask));
}
#define VMIN(a, b) vselect((a) < (b), a, b)
#define VMAX(a, b) vselect((a) > (b), a, b)
#endif

__attribute__((noinline)) static void row_range(const float *x, int64_t dim,
                                                float *lo_out, float *hi_out)
{
    float lo = x[0], hi = x[0];
    int64_t j = 1;
    if (dim >= 8) {
        v4f lo0, lo1, hi0, hi1, a, b;
        memcpy(&lo0, x, sizeof lo0);
        memcpy(&lo1, x + 4, sizeof lo1);
        hi0 = lo0, hi1 = lo1;
        for (j = 8; j + 8 <= dim; j += 8) {
            memcpy(&a, x + j, sizeof a);
            memcpy(&b, x + j + 4, sizeof b);
            lo0 = VMIN(a, lo0), hi0 = VMAX(a, hi0);
            lo1 = VMIN(b, lo1), hi1 = VMAX(b, hi1);
        }
        lo0 = VMIN(lo1, lo0), hi0 = VMAX(hi1, hi0);
        for (int t = 0; t < 4; t++) {
            lo = lo0[t] < lo ? lo0[t] : lo;
            hi = hi0[t] > hi ? hi0[t] : hi;
        }
    }
    for (; j < dim; j++) {
        lo = x[j] < lo ? x[j] : lo;
        hi = x[j] > hi ? x[j] : hi;
    }
    *lo_out = lo;
    *hi_out = hi;
}

/* Quantize the rows of pairs [pair_lo, pair_hi) of one step.
 *
 * h, levels, dest and codes are step-wide and indexed by absolute row; keys,
 * zero_points and scales cover only this pair range (they start at its
 * first pair / first row).
 *
 * h       (rows, dim) float32 in cat order: pair p owns rows bounds[p] ..
 *         bounds[p + 1] and draws its noise from keys[2 (p - pair_lo) ..],
 *         one lane per element in row-major order from the stream's origin.
 * levels  per cat row, 2^bits - 1 as float32.
 * dest    per cat row, the row of `codes` it lands in (payload order, a
 *         permutation within each pair); NULL when that is the cat row.
 * lanes   scratch for dim + BLOCK_LANES lanes.
 *
 * Per row, in float32 and in the NumPy kernel's order:
 *   scale = (max - z) / levels;  safe = scale > 0 ? scale : 1
 *   norm  = (h - z) / safe;      floor = trunc(norm)      (norm >= 0)
 *   frac  = norm - floor;        noise = k * 2^-16 + 2^-17
 *   code  = min(floor + (noise < frac), levels)
 */
void repro_quantize_pairs(const float *h, const int64_t *bounds,
                          int64_t pair_lo, int64_t pair_hi,
                          const uint64_t *keys, const float *levels,
                          const int64_t *dest, int64_t dim, uint8_t *codes,
                          float *zero_points, float *scales, uint16_t *lanes)
{
    int64_t first = bounds[pair_lo];
    for (int64_t p = pair_lo; p < pair_hi; p++, keys += 2) {
        uint64_t block = 0;
        int64_t have = 0; /* lanes drawn but not yet consumed */
        for (int64_t row = bounds[p]; row < bounds[p + 1]; row++) {
            const float *x = h + row * dim;
            int64_t d = dest ? dest[row] : row;
            uint8_t *out = codes + d * dim;
            float z, top_value;
            have = draw_lanes(keys[0], keys[1], &block, lanes, have, dim);
            row_range(x, dim, &z, &top_value);
            float scale = (top_value - z) / levels[row];
            float safe = scale > 0.0f ? scale : 1.0f;
            int32_t top = (int32_t)levels[row];
            for (int64_t j = 0; j < dim; j++) {
                float norm = (x[j] - z) / safe;
                int32_t floor = (int32_t)norm;
                float frac = norm - (float)floor;
                float noise = (float)lanes[j] * 0x1p-16f + 0x1p-17f;
                int32_t code = floor + (noise < frac);
                out[j] = (uint8_t)(code > top ? top : code);
            }
            zero_points[d - first] = z;
            scales[d - first] = scale;
            have -= dim;
            memmove(lanes, lanes + dim, (size_t)have * sizeof(uint16_t));
        }
    }
}

/* One group of width `bits`: per row the codes up to a byte boundary, then
 * whole bytes (8 / bits codes each, the vectorizable part), then the tail.
 * Code i of the stream is bits [(i % per) * bits, ...) of byte i / per. */
__attribute__((always_inline)) static inline void decode_group(
    const int bits, const uint8_t *stream, int64_t n_rows, int64_t dim,
    const float *zero_points, const float *scales, const int64_t *dest,
    float *out)
{
    const int per = 8 / bits;
    const unsigned mask = (1u << bits) - 1u;
#define CODE(e) ((float)((stream[(e) / per] >> ((e) % per * bits)) & mask))
    for (int64_t r = 0, e = 0; r < n_rows; r++) {
        float z = zero_points[r], s = scales[r];
        float *o = out + dest[r] * dim;
        int64_t j = 0;
        for (; j < dim && e % per; j++, e++) o[j] = CODE(e) * s + z;
        for (; j + per <= dim; j += per, e += per) {
            unsigned byte = stream[e / per];
            for (int t = 0; t < per; t++)
                o[j + t] = (float)((byte >> (t * bits)) & mask) * s + z;
        }
        for (; j < dim; j++, e++) o[j] = CODE(e) * s + z;
    }
#undef CODE
}

/* Unpack and de-quantize n_groups bit-packed groups, code * s + z in float32
 * (multiply, then add: two roundings, as NumPy's), straight into their
 * destination rows.  Group g has group_rows[g] rows of width group_bits[g]
 * (1, 2, 4 or 8); the groups' streams are concatenated in `stream`, each
 * starting on a byte boundary; zero_points, scales and dest (the row of
 * `out` a group row lands in) are per row, concatenated in group order. */
void repro_decode_groups(const uint8_t *stream, int64_t n_groups,
                         const int64_t *group_bits, const int64_t *group_rows,
                         int64_t dim, const float *zero_points,
                         const float *scales, const int64_t *dest, float *out)
{
    for (int64_t g = 0; g < n_groups; g++) {
        int64_t rows = group_rows[g];
#define WIDTH(b)                                                             \
    case b:                                                                  \
        decode_group(b, stream, rows, dim, zero_points, scales, dest, out);  \
        break;
        switch (group_bits[g]) { WIDTH(1) WIDTH(2) WIDTH(4) WIDTH(8) }
#undef WIDTH
        stream += (rows * dim * group_bits[g] + 7) / 8;
        zero_points += rows, scales += rows, dest += rows;
    }
}
