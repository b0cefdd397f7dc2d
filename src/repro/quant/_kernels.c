/* Compiled tier of the quantization kernels, of the engine's sparse
 * aggregation and of its per-row post stage; built and loaded on first use
 * by repro/quant/native.py, which also states the build flags.
 *
 * Seven entry points, each the one-pass form of NumPy or scipy code that
 * stays in the package as the reference and the fallback:
 *
 *   repro_philox_lanes         the keyed 16-bit noise lanes of
 *                              repro.quant.stochastic.KeyedRounding.fill_noise
 *   repro_quantize_pack_pairs  quantize + pack of
 *                              FusedStepEncoder.quantize_pack_shard
 *   repro_decode_rows          unpack + de-quantize of decode_cluster_step
 *   repro_add_rows             the backward accumulate of a decoded block
 *   repro_csr_rows             scipy's csr_matvecs, for the engine's spmv
 *   repro_post_forward         LayerNorm -> ReLU -> dropout of the engine's
 *   repro_post_backward        post stage (repro.nn.layers), both ways
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
 *
 * Every offset and row index is trusted: the Python callers check them once
 * against the buffers they address (see fused.py).
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
 * out of line, like row_range: the hot loops of the quantizer then get
 * their registers to themselves (~15 % on the whole kernel). */
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

/* Pack one row's codes into its span of a group stream, starting at bit
 * `bitpos`: code i of the stream is bits [(i % per) * bits, ...) of byte
 * i / per.  A group's rows are written in ascending order, so a byte the
 * row shares with the previous row keeps that row's (lower) bits and the
 * bits above this row's last code are cleared — the group's padding ends
 * up zero, whatever the buffer held before. */
__attribute__((always_inline)) static inline void pack_row(
    const int bits, const uint8_t *codes, int64_t dim, uint8_t *wire,
    int64_t bitpos)
{
    const int per = 8 / bits;
    uint8_t *out = wire + bitpos / 8;
    int shift = (int)(bitpos % 8);
    unsigned acc = shift ? *out & ((1u << shift) - 1u) : 0u;
    int64_t j = 0;
    for (; j < dim && shift; j++) {
        acc |= (unsigned)codes[j] << shift;
        if ((shift += bits) == 8) *out++ = (uint8_t)acc, acc = 0, shift = 0;
    }
    for (; j + per <= dim; j += per) {
        unsigned byte = 0;
        for (int t = 0; t < per; t++) byte |= (unsigned)codes[j + t] << (t * bits);
        *out++ = (uint8_t)byte;
    }
    for (; j < dim; j++, shift += bits) acc |= (unsigned)codes[j] << shift;
    if (shift) *out = (uint8_t)acc;
}

/* Quantize and pack the rows of pairs [pair_lo, pair_hi) of one step.
 *
 * h, bits, dest and row_bit are step-wide and indexed by cat row; keys
 * covers only this pair range (it starts at its first pair).
 *
 * h        (rows, dim) float32 in cat order: pair p owns rows bounds[p] ..
 *          bounds[p + 1] and draws its noise from keys[2 (p - pair_lo) ..],
 *          one lane per element in row-major order from the stream's origin.
 * bits     per cat row, its width: 1, 2, 4 or 8.
 * dest     per cat row, its payload position — where its zero point and
 *          scale land; NULL when that is the cat row.
 * row_bit  per cat row, the bit offset of its first code in `wire`.
 * lanes    scratch for dim + BLOCK_LANES lanes; codes: scratch for dim.
 *
 * Per row, in float32 and in the NumPy kernel's order:
 *   scale = (max - z) / levels;  safe = scale > 0 ? scale : 1
 *   norm  = (h - z) / safe;      floor = trunc(norm)      (norm >= 0)
 *   frac  = norm - floor;        noise = k * 2^-16 + 2^-17
 *   code  = min(floor + (noise < frac), levels)        levels = 2^bits - 1
 */
void repro_quantize_pack_pairs(
    const float *h, const int64_t *bounds, int64_t pair_lo, int64_t pair_hi,
    const uint64_t *keys, const int64_t *bits, const int64_t *dest,
    const int64_t *row_bit, int64_t dim, uint8_t *wire, float *zero_points,
    float *scales, uint16_t *lanes, uint8_t *codes)
{
    for (int64_t p = pair_lo; p < pair_hi; p++, keys += 2) {
        uint64_t block = 0;
        int64_t have = 0; /* lanes drawn but not yet consumed */
        for (int64_t row = bounds[p]; row < bounds[p + 1]; row++) {
            const float *x = h + row * dim;
            int64_t d = dest ? dest[row] : row;
            const int b = (int)bits[row];
            int32_t top = (1 << b) - 1;
            float levels = (float)top, z, top_value;
            have = draw_lanes(keys[0], keys[1], &block, lanes, have, dim);
            row_range(x, dim, &z, &top_value);
            float scale = (top_value - z) / levels;
            float safe = scale > 0.0f ? scale : 1.0f;
            for (int64_t j = 0; j < dim; j++) {
                float norm = (x[j] - z) / safe;
                int32_t floor = (int32_t)norm;
                float frac = norm - (float)floor;
                float noise = (float)lanes[j] * 0x1p-16f + 0x1p-17f;
                int32_t code = floor + (noise < frac);
                codes[j] = (uint8_t)(code > top ? top : code);
            }
#define WIDTH(w)                                                             \
    case w:                                                                  \
        pack_row(w, codes, dim, wire, row_bit[row]);                         \
        break;
            switch (b) { WIDTH(1) WIDTH(2) WIDTH(4) WIDTH(8) }
#undef WIDTH
            zero_points[d] = z;
            scales[d] = scale;
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
 * destination rows.  groups[4 g ..] describes group g: its width (1, 2, 4
 * or 8), its row count, the byte offset of its stream in `wire` and the
 * index of its first row in zero_points / scales.  dest holds, per group
 * row in group order, the row of `out` it lands in. */
void repro_decode_rows(const uint8_t *wire, const float *zero_points,
                       const float *scales, const int64_t *groups,
                       int64_t n_groups, int64_t dim, const int64_t *dest,
                       float *out)
{
    for (int64_t g = 0; g < n_groups; g++, groups += 4) {
        int64_t rows = groups[1];
        const uint8_t *stream = wire + groups[2];
        const float *z = zero_points + groups[3], *s = scales + groups[3];
#define WIDTH(b)                                                             \
    case b:                                                                  \
        decode_group(b, stream, rows, dim, z, s, dest, out);                 \
        break;
        switch (groups[0]) { WIDTH(1) WIDTH(2) WIDTH(4) WIDTH(8) }
#undef WIDTH
        dest += rows;
    }
}

/* out[rows[i]] += block[i] for i = 0 .. n_rows, in that order: a row that
 * appears several times receives its addends in block order. */
void repro_add_rows(const float *block, int64_t n_rows, int64_t dim,
                    const int64_t *rows, float *out)
{
    for (int64_t i = 0; i < n_rows; i++, block += dim) {
        float *o = out + rows[i] * dim;
        for (int64_t j = 0; j < dim; j++) o[j] += block[j];
    }
}

/* The CSR kernel, built twice: for the baseline instruction set and, on
 * x86-64, for AVX2 — run wherever the CPU reports AVX2 (checked per call),
 * so a library in a cache shared between hosts stays safe on each of them.
 * Two builds of two bodies: eight-lane vector accumulators run at 0.3-0.5x
 * of scipy when lowered to SSE2, and four-lane ones leave half of an AVX2
 * register idle.  A compiler that cannot build the AVX2 one gets the
 * baseline only: the loader retries with REPRO_BASELINE_ONLY rather than
 * lose the whole library. */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(REPRO_BASELINE_ONLY)
#define CSR_AVX2
#endif

typedef float v8f __attribute__((vector_size(32)));
#define BLOCKS_MAX 8 /* vector accumulators held across a row's entries */

/* Columns [0, w) of rows of `width` floats, w < 8 a constant after inlining:
 * each row's sums stay in registers across its entries. */
__attribute__((always_inline)) static inline void csr_rows_narrow(
    const int w, int64_t n_rows, const int32_t *indptr,
    const int32_t *restrict indices, const float *restrict data,
    const float *restrict x, int64_t width, float *restrict y,
    int64_t accumulate)
{
    for (int64_t i = 0; i < n_rows; i++, y += width) {
        float acc[8];
        for (int j = 0; j < w; j++) acc[j] = accumulate ? y[j] : 0.0f;
        for (int32_t e = indptr[i]; e < indptr[i + 1]; e++) {
            const float a = data[e], *xr = x + (int64_t)indices[e] * width;
            for (int j = 0; j < w; j++) acc[j] = acc[j] + a * xr[j];
        }
        for (int j = 0; j < w; j++) y[j] = acc[j];
    }
}

/* One build of the kernel, `name`, over vectors V of L floats: the columns
 * in passes of up to BLOCKS_MAX vectors — c, a constant per case — each
 * summing every row over its entries in registers, then the fewer than L
 * columns left over. */
#define CSR_ROWS(name, V, L, attrs)                                          \
    attrs __attribute__((always_inline)) static inline void name##_pass(     \
        const int c, int64_t n_rows, const int32_t *indptr,                  \
        const int32_t *restrict indices, const float *restrict data,         \
        const float *restrict x, int64_t width, float *restrict y,           \
        int64_t accumulate)                                                  \
    {                                                                        \
        for (int64_t i = 0; i < n_rows; i++, y += width) {                   \
            V acc[BLOCKS_MAX], xv;                                           \
            for (int k = 0; k < c; k++) {                                    \
                acc[k] = (V){0};                                             \
                if (accumulate) memcpy(&acc[k], y + k * L, sizeof xv);       \
            }                                                                \
            for (int32_t e = indptr[i]; e < indptr[i + 1]; e++) {            \
                const float a = data[e], *xr = x + (int64_t)indices[e] * width; \
                for (int k = 0; k < c; k++) {                                \
                    memcpy(&xv, xr + k * L, sizeof xv);                      \
                    acc[k] = acc[k] + a * xv;                                \
                }                                                            \
            }                                                                \
            for (int k = 0; k < c; k++) memcpy(y + k * L, &acc[k], sizeof xv); \
        }                                                                    \
    }                                                                        \
    attrs static void name(int64_t n_rows, const int32_t *indptr,            \
                           const int32_t *indices, const float *data,        \
                           const float *x, int64_t width, float *y,          \
                           int64_t accumulate)                               \
    {                                                                        \
        int64_t j0 = 0, c;                                                   \
        for (; (c = (width - j0) / L) > 0; j0 += c * L) {                    \
            c = c < BLOCKS_MAX ? c : BLOCKS_MAX;                             \
            switch (c) {                                                     \
                PASS(name, 1) PASS(name, 2) PASS(name, 3) PASS(name, 4)      \
                PASS(name, 5) PASS(name, 6) PASS(name, 7) PASS(name, 8)      \
            }                                                                \
        }                                                                    \
        switch (width - j0) {                                                \
            NARROW(1) NARROW(2) NARROW(3) NARROW(4) NARROW(5) NARROW(6)      \
            NARROW(7)                                                        \
        }                                                                    \
    }
#define ARGS n_rows, indptr, indices, data, x + j0, width, y + j0, accumulate
#define PASS(name, c)                                                        \
    case c:                                                                  \
        name##_pass(c, ARGS);                                                \
        break;
#define NARROW(w)                                                            \
    case w:                                                                  \
        csr_rows_narrow(w, ARGS);                                            \
        break;
CSR_ROWS(csr_rows_baseline, v4f, 4, )
#ifdef CSR_AVX2
CSR_ROWS(csr_rows_avx2, v8f, 8, __attribute__((target("avx2"))))
#endif
#undef ARGS
#undef PASS
#undef NARROW

/* y[i] (+)= sum over the stored entries e of row i, in stored order, of
 * data[e] * x[indices[e]] — for i = 0 .. n_rows, each a `width`-wide row of
 * the row-major blocks x and y, which do not overlap.  Without `accumulate`
 * y starts from +0.0.
 *
 * This is scipy's csr_matvecs (its axpy y[j] += a * x[j], entry after entry)
 * operation for operation: per output element the same float32 multiplies
 * and adds in the same order, so the result is bitwise scipy's.  indptr may
 * be a slice of a larger matrix's row pointers — offsets are absolute into
 * indices and data — which is how a row range of an operator is passed. */
void repro_csr_rows(int64_t n_rows, const int32_t *indptr,
                    const int32_t *indices, const float *data, const float *x,
                    int64_t width, float *y, int64_t accumulate)
{
#ifdef CSR_AVX2
    if (__builtin_cpu_supports("avx2")) {
        csr_rows_avx2(n_rows, indptr, indices, data, x, width, y, accumulate);
        return;
    }
#endif
    csr_rows_baseline(n_rows, indptr, indices, data, x, width, y, accumulate);
}

/* The post stage: LayerNorm -> ReLU -> dropout over a row-major block of
 * `dim`-wide rows, as repro.nn.layers computes it with NumPy, operation for
 * operation in float32:
 *
 *   row mean      0 + pairwise_sum(x), divided by dim in double, to float
 *   variance      the same of (x - mean) * (x - mean)
 *   inv_std       1 / sqrt(var + eps)
 *   ReLU          y * (y > 0 ? 1 : 0) - a multiply, so -0.0 and NaN pass
 *                 as through NumPy's `h *= mask`
 *
 * pairwise_sum is NumPy's (loops_utils.h): under 8 values a running sum
 * from 0; up to PW_BLOCK eight accumulators seeded with the first eight
 * values, combined ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail; above
 * that the two halves (the first a multiple of 8 long) summed recursively.
 * A column sum over a block's rows (`block.sum(axis=0)`) is a running sum
 * from 0 down the rows - except at width 1, where NumPy's iterator turns the
 * column into one contiguous reduction and sums it pairwise. */
#define PW_BLOCK 128

/* NumPy's pairwise sum of the n values ELEM(i), over vectors of 4 lanes:
 * lane t of v0 / v1 is accumulator t / t + 4.  A row of up to PW_BLOCK
 * values is summed inline; name##_tree splits longer ones.  CALL(f, len)
 * sums the first len values with f; SHIFT(k) drops the first k. */
#define PAIRWISE(name, PARAMS, CALL, SHIFT, ELEM, ELEMV)                     \
    static float name##_tree PARAMS;                                         \
    __attribute__((always_inline)) static inline float name PARAMS           \
    {                                                                        \
        if (n < 8) {                                                         \
            float res = 0.0f;                                                \
            for (int64_t i = 0; i < n; i++) res += ELEM(i);                  \
            return res;                                                      \
        }                                                                    \
        if (n > PW_BLOCK) return CALL(name##_tree, n);                       \
        v4f v0 = ELEMV(0), v1 = ELEMV(4);                                    \
        int64_t i = 8;                                                       \
        for (; i < n - n % 8; i += 8) {                                      \
            v0 = v0 + ELEMV(i);                                              \
            v1 = v1 + ELEMV(i + 4);                                          \
        }                                                                    \
        float res = ((v0[0] + v0[1]) + (v0[2] + v0[3])) +                    \
                    ((v1[0] + v1[1]) + (v1[2] + v1[3]));                     \
        for (; i < n; i++) res += ELEM(i);                                   \
        return res;                                                          \
    }                                                                        \
    __attribute__((noinline)) static float name##_tree PARAMS                \
    {                                                                        \
        int64_t half = n / 2 - n / 2 % 8;                                    \
        float first = CALL(name, half);                                      \
        SHIFT(half);                                                         \
        return first + CALL(name, n - half);                                 \
    }

static inline v4f load4(const float *p)
{
    v4f v;
    memcpy(&v, p, sizeof v);
    return v;
}

#define SUM_CALL(f, len) f(a, len)
#define SUM_SHIFT(k) (a += (k))
#define SUM_ELEM(i) a[i]
#define SUM_ELEMV(i) load4(a + (i))
#define DOT_CALL(f, len) f(a, b, len)
#define DOT_SHIFT(k) (a += (k), b += (k))
#define DOT_ELEM(i) (a[i] * b[i])
#define DOT_ELEMV(i) (load4(a + (i)) * load4(b + (i)))
/* pairwise_sum(a[0..n)) and pairwise_sum(a[i] * b[i]), products rounded. */
PAIRWISE(pw_sum, (const float *a, int64_t n), SUM_CALL, SUM_SHIFT, SUM_ELEM,
         SUM_ELEMV)
PAIRWISE(pw_dot, (const float *a, const float *b, int64_t n), DOT_CALL,
         DOT_SHIFT, DOT_ELEM, DOT_ELEMV)

/* NumPy's float32 mean of a row: the sum, then the division in double. */
static inline float row_mean(float sum, int64_t dim)
{
    return (float)((double)(0.0f + sum) / (double)dim);
}

static inline float sqrt_f32(float v)
{
#if defined(__SSE2__)
    return _mm_cvtss_f32(_mm_sqrt_ss(_mm_set_ss(v)));
#else
    return __builtin_sqrtf(v);
#endif
}

/* In place over n_rows rows of h: h = dropout(relu(LayerNorm(h))), where
 * LayerNorm is (h - mean) * inv_std * gamma + beta.  Writes each row's
 * x_hat = (h - mean) * inv_std, its inv_std (one float per row) and its
 * ReLU mask (0 / 1 bytes).  drop holds the dropout mask's rows (0 or
 * 1 / keep), or is NULL when dropout is off. */
void repro_post_forward(int64_t n_rows, int64_t dim, float *restrict h,
                        const float *restrict gamma, const float *restrict beta,
                        float eps, const float *restrict drop,
                        float *restrict x_hat, float *restrict inv_std,
                        uint8_t *restrict relu)
{
    for (int64_t i = 0; i < n_rows; i++, h += dim, x_hat += dim, relu += dim) {
        const float mean = row_mean(pw_sum(h, dim), dim);
        for (int64_t j = 0; j < dim; j++) x_hat[j] = h[j] - mean;
        const float var = row_mean(pw_dot(x_hat, x_hat, dim), dim);
        const float inv = inv_std[i] = 1.0f / sqrt_f32(var + eps);
        for (int64_t j = 0; j < dim; j++) {
            x_hat[j] = x_hat[j] * inv;
            h[j] = x_hat[j] * gamma[j] + beta[j];
        }
        /* Three loops, not one: each vectorizes, the fused one would not. */
        for (int64_t j = 0; j < dim; j++) relu[j] = h[j] > 0.0f;
        for (int64_t j = 0; j < dim; j++) h[j] = h[j] * (float)relu[j];
        for (int64_t j = 0; drop && j < dim; j++) h[j] = h[j] * drop[i * dim + j];
    }
}

/* One row's LayerNorm input gradient, in place over g, which already holds
 * the masked output gradient times gamma:  g = ((g - mean(g)) - x_hat *
 * mean(g * x_hat)) * inv, in LayerNorm.input_grad's order. */
static inline void input_grad_row(float *restrict g, const float *restrict xh,
                                  float inv, int64_t dim)
{
    const float m1 = row_mean(pw_sum(g, dim), dim);
    const float m2 = row_mean(pw_dot(g, xh, dim), dim);
    for (int64_t j = 0; j < dim; j++) g[j] = ((g[j] - m1) - xh[j] * m2) * inv;
}

/* The backward of repro_post_forward, in place over the output gradient g:
 * the dropout mask (when drop is not NULL), then the ReLU mask, multiply
 * g; then, per block k of rows [bounds[k], bounds[k + 1]), partials holds
 * at [2k dim ..) the column sums of g * x_hat (gamma's partial) and at
 * [(2k + 1) dim ..) those of g (beta's); then g becomes LayerNorm's input
 * gradient.  The blocks are consecutive from row bounds[0].  One loop per
 * row does the masks, partials and gamma: each element's operations and
 * their order are those of the separate NumPy passes. */
void repro_post_backward(int64_t dim, float *restrict g,
                         const float *restrict x_hat,
                         const float *restrict inv_std,
                         const uint8_t *restrict relu,
                         const float *restrict drop,
                         const float *restrict gamma, const int64_t *bounds,
                         int64_t n_blocks, float *restrict partials)
{
    for (int64_t k = 0; k < n_blocks; k++) {
        float *pg = partials + 2 * k * dim, *pb = pg + dim;
        const int64_t lo = bounds[k], hi = bounds[k + 1];
        memset(pg, 0, 2 * (size_t)dim * sizeof(float));
        if (dim == 1) { /* a column NumPy sums pairwise, not row by row */
            for (int64_t i = lo; i < hi; i++)
                g[i] = (drop ? g[i] * drop[i] : g[i]) * (float)relu[i];
            pg[0] = 0.0f + pw_dot(g + lo, x_hat + lo, hi - lo);
            pb[0] = 0.0f + pw_sum(g + lo, hi - lo);
            for (int64_t i = lo; i < hi; i++) {
                g[i] = g[i] * gamma[0];
                input_grad_row(g + i, x_hat + i, inv_std[i], 1);
            }
            continue;
        }
        for (int64_t i = lo; i < hi; i++) {
            float *gi = g + i * dim;
            const float *xh = x_hat + i * dim;
            const uint8_t *m = relu + i * dim;
            if (drop) { /* two loops: each vectorizes, one with a branch not */
                const float *dr = drop + i * dim;
                for (int64_t j = 0; j < dim; j++) {
                    const float v = (gi[j] * dr[j]) * (float)m[j];
                    pg[j] = pg[j] + v * xh[j];
                    pb[j] = pb[j] + v;
                    gi[j] = v * gamma[j];
                }
            } else {
                for (int64_t j = 0; j < dim; j++) {
                    const float v = gi[j] * (float)m[j];
                    pg[j] = pg[j] + v * xh[j];
                    pb[j] = pb[j] + v;
                    gi[j] = v * gamma[j];
                }
            }
            input_grad_row(gi, xh, inv_std[i], dim);
        }
    }
}
