/* The front of a cfcoef.bench trial chunk in two calls: the channel draw
   (cf_draw_rows) and the canonical rows with their unit-vector test
   (cf_channel_rows).

   Trial j's PCG64 seeds from the four uint64 words of
   SeedSequence([seed, j]).generate_state(4, uint64), hashed here as numpy
   hashes them (cf_seed_words gives them alone), and its row is filled by
   random_standard_normal_fill, the kernel of Generator.standard_normal,
   linked from the installed numpy/random/lib/libnpyrandom.a; so each row is
   bit for bit sample_channel(n, trial_rng(seed, j)).  Every bitgen_t member
   is numpy's PCG64 form, next_uint32 with its one-word buffer.

   cf_channel_rows forms each float of cfcoef.core._channel_rows and
   _e1_optimal by the same operations in the same order (built with
   -ffp-contract=off, so that no product and sum fuse into one rounding). */

#include <stdint.h>

typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t count, double *out);

typedef unsigned __int128 u128;
typedef struct { u128 state, inc; int has_uint32; uint32_t uinteger; } pcg64_t;

/* one step of the 128-bit LCG, then XSL-RR of the new state */
static uint64_t next_uint64(void *st)
{
    pcg64_t *rng = st;
    rng->state = rng->state * ((u128)0x2360ed051fc65da4ULL << 64 | 0x4385df649fccf645ULL) + rng->inc;
    uint64_t x = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    unsigned rot = (unsigned)(rng->state >> 122);
    return x >> rot | x << (-rot & 63);
}

static uint32_t next_uint32(void *st)
{
    pcg64_t *rng = st;
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return rng->uinteger;
    }
    uint64_t next = next_uint64(st);
    rng->has_uint32 = 1;
    rng->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double next_double(void *st)
{
    return (next_uint64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* SeedSequence's hash of value with the xor constant *hash_const, which then
   advances by the multiplier mult */
static uint32_t hashmix(uint32_t value, uint32_t *hash_const, uint32_t mult)
{
    value ^= *hash_const;
    *hash_const *= mult;
    value *= *hash_const;
    return value ^ value >> 16;
}

/* SeedSequence([seed, j]).generate_state(4, uint64): the entropy is the
   little-endian 32-bit words of seed and of j (0 is one word), zero-padded
   to the pool of four, which is hashed, mixed word into word and hashed
   again into eight state words */
static void seed_words(uint64_t seed, uint64_t j, uint64_t *out)
{
    uint32_t pool[4] = {(uint32_t)seed, (uint32_t)(seed >> 32), 0, 0}, state[8];
    int k = seed >> 32 ? 2 : 1;
    pool[k] = (uint32_t)j;
    pool[k + 1] = (uint32_t)(j >> 32);
    uint32_t hash_const = 0x43b0d7e5;
    for (int i = 0; i < 4; i++)
        pool[i] = hashmix(pool[i], &hash_const, 0x931e8875);
    for (int src = 0; src < 4; src++)
        for (int dst = 0; dst < 4; dst++)
            if (src != dst) {
                uint32_t mixed = 0xca01f9dd * pool[dst] - 0x4973f715 * hashmix(pool[src], &hash_const, 0x931e8875);
                pool[dst] = mixed ^ mixed >> 16;
            }
    hash_const = 0x8b51f9dd;
    for (int i = 0; i < 8; i++)
        state[i] = hashmix(pool[i % 4], &hash_const, 0x58f38ded);
    for (int i = 0; i < 4; i++)
        out[i] = state[2 * i] | (uint64_t)state[2 * i + 1] << 32;
}

/* the seed words of trials lo..lo+m-1, four per trial */
void cf_seed_words(uint64_t seed, uint64_t lo, int64_t m, uint64_t *out)
{
    for (int64_t i = 0; i < m; i++)
        seed_words(seed, lo + (uint64_t)i, out + 4 * i);
}

/* the (m, n) channels of trials lo..lo+m-1 */
void cf_draw_rows(uint64_t seed, uint64_t lo, int64_t m, int64_t n, double *out)
{
    pcg64_t rng = {0};
    bitgen_t bitgen = {&rng, next_uint64, next_uint32, next_double, next_uint64};
    uint64_t words[4];
    for (int64_t i = 0; i < m; i++, out += n) {
        seed_words(seed, lo + (uint64_t)i, words);
        rng.state = 0;
        rng.inc = ((u128)words[2] << 64 | words[3]) << 1 | 1;
        next_uint64(&rng);
        rng.state += (u128)words[0] << 64 | words[1];
        next_uint64(&rng);
        rng.has_uint32 = 0;
        random_standard_normal_fill(&bitgen, n, out);
    }
}

/* order[0..n) is 0..n-1 sorted stably by decreasing |x|, as numpy's stable
   argsort of -|x|: insertion-sorted runs of RUN entries, then merged in
   pairs through tmp, both keeping equal magnitudes in index order */
#define RUN 16

static void sort_order(int64_t n, const double *x, int64_t *order, int64_t *tmp)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t j = i, start = i - i % RUN;
        for (; j > start && __builtin_fabs(x[order[j - 1]]) < __builtin_fabs(x[i]); j--)
            order[j] = order[j - 1];
        order[j] = i;
    }
    int64_t *src = order, *dst = tmp;
    for (int64_t width = RUN; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n, hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t a = lo, b = mid;
            for (int64_t k = lo; k < hi; k++)
                dst[k] = b == hi || (a < mid && !(__builtin_fabs(x[src[a]]) < __builtin_fabs(x[src[b]])))
                    ? src[a++] : src[b++];
        }
        int64_t *swap = src;
        src = dst;
        dst = swap;
    }
    for (int64_t k = 0; src != order && k < n; k++)
        order[k] = src[k];
}

/* cfcoef.core._channel_rows and _e1_optimal on the (m, n) channels h at
   linear SNR P, given hnorm2 = ||h||^2 per row: the rows t_raw, t, order,
   sign, f (n + 1 per row), q and hits.  Per row, t_raw = h * sqrt(P / (1 +
   P * hnorm2)); order sorts it by decreasing magnitude (ties in index
   order), sign makes the sorted row t nonnegative (+1 for a zero, so a
   -0.0 stays -0.0); num[i] = 1 + P * s[i] with s[i] the tail sum of the
   sorted h's squares, added from the last entry on, num[n] = 1, and f[i] =
   num[i] / num[0], q[k] = num[k + 1] / num[k]; hits holds t[i]^2 <= t[0]^2
   * f[i] for every i >= 1.  Returns 0, or at the first row that overflows
   1 if its 1 + P * hnorm2 is not finite and 2 if its f[n] is not positive
   (its tail total overflowed); the outputs are then unfinished. */
int cf_channel_rows(int64_t m, int64_t n, double P, const double *h, const double *hnorm2,
                    double *t_raw, double *t, int64_t *order, int64_t *sign,
                    double *f, double *q, uint8_t *hits)
{
    for (int64_t i = 0; i < m; i++, h += n, t_raw += n, t += n, order += n, sign += n, f += n + 1, q += n) {
        double denom = 1.0 + P * hnorm2[i];
        if (!__builtin_isfinite(denom))
            return 1;
        double scale = __builtin_sqrt(P / denom);
        for (int64_t k = 0; k < n; k++)
            t_raw[k] = h[k] * scale;
        /* the sign row is the sort's scratch until it is written */
        sort_order(n, t_raw, order, sign);
        for (int64_t k = 0; k < n; k++) {
            double x = t_raw[order[k]];
            sign[k] = x < 0.0 ? -1 : 1;
            t[k] = (double)sign[k] * x;
        }
        /* f holds num until the divisions */
        double tail = 0.0;
        f[n] = 1.0;
        for (int64_t k = n - 1; k >= 0; k--) {
            double g = h[order[k]];
            tail += g * g;
            f[k] = 1.0 + P * tail;
        }
        for (int64_t k = 0; k < n; k++)
            q[k] = f[k + 1] / f[k];
        double num0 = f[0];
        for (int64_t k = 0; k <= n; k++)
            f[k] /= num0;
        if (!(f[n] > 0.0))
            return 2;
        double head = t[0] * t[0];
        uint8_t hit = 1;
        for (int64_t k = 1; k < n; k++)
            hit &= t[k] * t[k] <= head * f[k];
        hits[i] = hit;
    }
    return 0;
}
