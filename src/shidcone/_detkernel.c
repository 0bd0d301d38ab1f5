/* Compiled half of shidcone.detkernel: packed-key integer polynomials.
 *
 * A polynomial is an open-addressing hash table mapping a packed monomial
 * key (int64, at most 56 bits used) to a 128-bit signed coefficient.  The
 * operations are the ones the determinant verification is hot on: fused
 * multiply-accumulate and scaled comparison.  All arithmetic is exact; the
 * Python wrapper (detkernel.IntPoly) validates keys and checks coefficient
 * bit bounds before every call, so nothing here wraps.
 *
 * A key lives at the slot given by the low bits of fmix64(key) (the
 * MurmurHash3 finalizer), found by linear probing.  Packed keys differ in a
 * few exponent fields, so the hash must mix all 64 bits non-linearly.  The
 * low bits of key * phi depend only on the low fields and crowd the keys
 * onto a tenth of the home slots; a nearly additive hash (h(a + b) close to
 * h(a) + h(b), as the top bits of key * phi are) makes sdc_fma, which inserts
 * ka + kb while walking a in slot order, fill the accumulator in nearly
 * sorted slot order and build one long probe run.  Spread at random, the
 * sums of sdc_fma miss the cache on almost every insert, so its loop
 * prefetches the home slot of the sum PREFETCH_AHEAD inserts ahead.
 *
 * Each table counts its nonzero slots, so sdc_nnz is O(1): the determinant
 * DP asks for it twice per (subset, position).
 *
 * The ABI is flat so that ctypes can call it: tables are opaque pointers,
 * keys are int64, and a 128-bit value crosses as a pair of 64-bit words
 * (lo unsigned, hi signed: value = hi * 2^64 + lo).  Functions returning
 * int report 0 on success and -1 when memory runs out.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef __int128 acc_t;

typedef struct {
    int64_t *keys; /* -1 marks an empty slot */
    acc_t *vals;
    int64_t cap;   /* power of two */
    int64_t n;     /* occupied slots, including cancelled-to-zero ones */
    int64_t nnz;   /* occupied slots with a nonzero value */
} sdc_tab;

static acc_t join(uint64_t lo, int64_t hi) {
    return (acc_t)(((unsigned __int128)(uint64_t)hi << 64) | lo);
}

static int tab_init(sdc_tab *t, int64_t cap_hint) {
    int64_t cap = 16;
    while (cap < cap_hint * 2) cap <<= 1;
    t->keys = (int64_t *)malloc((size_t)cap * sizeof(int64_t));
    t->vals = (acc_t *)malloc((size_t)cap * sizeof(acc_t));
    if (!t->keys || !t->vals) {
        free(t->keys); free(t->vals);
        return -1;
    }
    memset(t->keys, 0xFF, (size_t)cap * sizeof(int64_t));
    t->cap = cap;
    t->n = t->nnz = 0;
    return 0;
}

/* MurmurHash3's fmix64: every key bit reaches every bit of the result. */
static uint64_t mix64(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

static int64_t tab_home(const sdc_tab *t, int64_t key) {
    return (int64_t)mix64((uint64_t)key) & (t->cap - 1);
}

static int64_t tab_slot(const sdc_tab *t, int64_t key) {
    int64_t mask = t->cap - 1;
    int64_t i = tab_home(t, key);
    while (t->keys[i] != -1 && t->keys[i] != key)
        i = (i + 1) & mask;
    return i;
}

static int tab_grow(sdc_tab *t) {
    sdc_tab nt;
    int64_t i;
    if (tab_init(&nt, t->cap)) return -1;
    for (i = 0; i < t->cap; i++) {
        if (t->keys[i] != -1 && t->vals[i] != 0) {
            int64_t j = tab_slot(&nt, t->keys[i]);
            nt.keys[j] = t->keys[i];
            nt.vals[j] = t->vals[i];
            nt.n++;
        }
    }
    nt.nnz = nt.n;
    free(t->keys); free(t->vals);
    *t = nt;
    return 0;
}

static int tab_add(sdc_tab *t, int64_t key, acc_t v) {
    int64_t i = tab_slot(t, key);
    if (t->keys[i] == key) {
        acc_t old = t->vals[i];
        t->vals[i] = old + v;
        t->nnz += (old == 0) - (t->vals[i] == 0);
        return 0;
    }
    t->keys[i] = key;
    t->vals[i] = v;
    t->n++;
    t->nnz += v != 0;
    if (t->n * 5 >= t->cap * 3)
        return tab_grow(t);
    return 0;
}

sdc_tab *sdc_new(int64_t cap_hint) {
    sdc_tab *t = (sdc_tab *)malloc(sizeof(sdc_tab));
    if (t && tab_init(t, cap_hint)) {
        free(t);
        return NULL;
    }
    return t;
}

void sdc_free(sdc_tab *t) {
    if (!t) return;
    free(t->keys); free(t->vals); free(t);
}

/* t += sum of the n terms (keys[i], hi[i] * 2^64 + lo[i]). */
int sdc_load(sdc_tab *t, int64_t n, const int64_t *keys,
             const uint64_t *lo, const int64_t *hi) {
    int64_t i;
    for (i = 0; i < n; i++) {
        acc_t v = join(lo[i], hi[i]);
        if (v && tab_add(t, keys[i], v)) return -1;
    }
    return 0;
}

int64_t sdc_nnz(const sdc_tab *t) {
    return t->nnz;
}

/* Writes the nonzero terms (sdc_nnz of them) to the three arrays. */
void sdc_dump(const sdc_tab *t, int64_t *keys, uint64_t *lo, int64_t *hi) {
    int64_t i, j = 0;
    for (i = 0; i < t->cap; i++) {
        if (t->keys[i] != -1 && t->vals[i] != 0) {
            keys[j] = t->keys[i];
            lo[j] = (uint64_t)t->vals[i];
            hi[j] = (int64_t)(t->vals[i] >> 64);
            j++;
        }
    }
}

/* Bit length of the largest absolute coefficient. */
int sdc_maxbits(const sdc_tab *t) {
    acc_t m = 0;
    int64_t i;
    int bits = 0;
    for (i = 0; i < t->cap; i++) {
        acc_t v;
        if (t->keys[i] == -1) continue;
        v = t->vals[i];
        if (v < 0) v = -v;
        if (v > m) m = v;
    }
    while (m) { bits++; m >>= 1; }
    return bits;
}

/* Index of the first slot at or after i holding a nonzero value (t->cap
 * when there is none). */
static int64_t next_live(const sdc_tab *t, int64_t i) {
    while (i < t->cap && (t->keys[i] == -1 || t->vals[i] == 0)) i++;
    return i;
}

/* Inserts between a prefetch of a sum's home slot and the insert itself. */
#define PREFETCH_AHEAD 16

/* acc += sign * a * b; acc must be neither a nor b.
 *
 * The sums ka + kb land on random slots of a table far larger than the
 * cache, so each insert waits on memory.  While inserting one sum the loop
 * prefetches the home slot of the sum PREFETCH_AHEAD inserts later, which
 * at the end of a row of b is in the next row (the next live key of a).
 * A growth of acc in between only makes that prefetch useless, never
 * wrong: the insert looks its slot up again. */
int sdc_fma(sdc_tab *acc, const sdc_tab *a, const sdc_tab *b, int sign) {
    int64_t bn = b->nnz, i, ia, ib, j = 0;
    int64_t *bk;
    acc_t *bv;
    int rc = 0;
    if (bn == 0) return 0;
    bk = (int64_t *)malloc((size_t)bn * sizeof(int64_t));
    bv = (acc_t *)malloc((size_t)bn * sizeof(acc_t));
    if (!bk || !bv) {
        free(bk); free(bv);
        return -1;
    }
    for (i = 0; i < b->cap; i++) {
        if (b->keys[i] != -1 && b->vals[i] != 0) {
            bk[j] = b->keys[i];
            bv[j] = b->vals[i];
            j++;
        }
    }
    for (ia = next_live(a, 0); ia < a->cap && rc == 0;) {
        int64_t ka = a->keys[ia], next = next_live(a, ia + 1);
        int64_t kn = next < a->cap ? a->keys[next] : -1;
        acc_t va = sign < 0 ? -a->vals[ia] : a->vals[ia];
        for (ib = 0; ib < bn; ib++) {
            int64_t jb = ib + PREFETCH_AHEAD, kp = ka;
            if (jb >= bn) {
                jb -= bn;
                kp = kn;
            }
            if (jb < bn && kp != -1) {
                int64_t h = tab_home(acc, kp + bk[jb]);
                __builtin_prefetch(&acc->keys[h], 1);
                __builtin_prefetch(&acc->vals[h], 1);
            }
            if (tab_add(acc, ka + bk[ib], va * bv[ib])) {
                rc = -1;
                break;
            }
        }
        ia = next;
    }
    free(bk); free(bv);
    return rc;
}

/* 1 iff ca * a == cb * b termwise, else 0. */
int sdc_equal_scaled(const sdc_tab *a, const sdc_tab *b, int64_t ca, int64_t cb) {
    int64_t i;
    if (sdc_nnz(a) != sdc_nnz(b)) return 0;
    for (i = 0; i < a->cap; i++) {
        int64_t j;
        if (a->keys[i] == -1 || a->vals[i] == 0) continue;
        j = tab_slot(b, a->keys[i]);
        if (b->keys[j] != a->keys[i]) return 0;
        if ((acc_t)ca * a->vals[i] != (acc_t)cb * b->vals[j]) return 0;
    }
    return 1;
}

/* Largest key with a nonzero coefficient, or -1 for the zero polynomial. */
int64_t sdc_max_key(const sdc_tab *t) {
    int64_t i, best = -1;
    for (i = 0; i < t->cap; i++)
        if (t->keys[i] != -1 && t->vals[i] != 0 && t->keys[i] > best)
            best = t->keys[i];
    return best;
}

/* The coefficient of key (0 when absent), as out[0] = lo, out[1] = hi;
 * key must not be -1. */
void sdc_get(const sdc_tab *t, int64_t key, int64_t *out) {
    int64_t i = tab_slot(t, key);
    acc_t v = t->keys[i] == key ? t->vals[i] : 0;
    out[0] = (int64_t)(uint64_t)v;
    out[1] = (int64_t)(v >> 64);
}
