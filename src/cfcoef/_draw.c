/* The channel draw of cfcoef.bench._draw_rows over a chunk, in one call.

   Row i is seeded from words[4i..4i+3] as numpy's PCG64 seeds itself from
   generate_state(4, uint64), and filled by random_standard_normal_fill, the
   kernel of Generator.standard_normal, linked from the installed
   numpy/random/lib/libnpyrandom.a; so each row is bit for bit
   sample_channel(n, trial_rng(seed, j)).  Every bitgen_t member is numpy's
   PCG64 form, next_uint32 with its one-word buffer. */

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

void cf_draw_rows(int64_t m, int64_t n, const uint64_t *words, double *out)
{
    pcg64_t rng = {0};
    bitgen_t bitgen = {&rng, next_uint64, next_uint32, next_double, next_uint64};
    for (int64_t i = 0; i < m; i++, words += 4, out += n) {
        rng.state = 0;
        rng.inc = ((u128)words[2] << 64 | words[3]) << 1 | 1;
        next_uint64(&rng);
        rng.state += (u128)words[0] << 64 | words[1];
        next_uint64(&rng);
        rng.has_uint32 = 0;
        random_standard_normal_fill(&bitgen, n, out);
    }
}
