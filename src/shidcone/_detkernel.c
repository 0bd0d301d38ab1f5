/* Compiled half of shidcone.detkernel: packed-key integer polynomials.
 *
 * A polynomial is an open-addressing hash table mapping a packed monomial
 * key (int64, at most 56 bits used) to a 128-bit signed coefficient.  The
 * one arithmetic operation is the fused multiply-accumulate that the
 * determinant verification is hot on; two tables are compared by an fma
 * that must cancel.  The fma can pair the terms by one exponent field,
 * multiplying only the pairs whose exponents there agree and clearing the
 * field in their sum, which restricts a column to a hyperplane in one call;
 * the plain product is the pairing by a field past every key's fields.
 * A dump lists the terms largest key first, sorted by a radix sort of the
 * keys alone.  All arithmetic is exact: each addition and
 * multiplication of values is checked where it happens, and one that would
 * leave the signed 128-bit range is refused, never wrapped.  The Python
 * wrapper (detkernel.IntPoly) validates keys and loaded values.
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
 * int report 0 on success, -1 when memory runs out and -2 when a value
 * would overflow; an fma refused midway leaves a partial sum behind.
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

/* inline (also tab_add): else gcc 12 -O3 calls tab_add out of sdc_fma */
static inline int tab_grow(sdc_tab *t) {
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

static inline int tab_add(sdc_tab *t, int64_t key, acc_t v) {
    int64_t i = tab_slot(t, key);
    if (t->keys[i] == key) {
        acc_t old = t->vals[i], sum;
        if (__builtin_add_overflow(old, v, &sum)) return -2;
        t->vals[i] = sum;
        t->nnz += (old == 0) - (sum == 0);
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
    int rc;
    for (i = 0; i < n; i++) {
        acc_t v = join(lo[i], hi[i]);
        if (v && (rc = tab_add(t, keys[i], v))) return rc;
    }
    return 0;
}

int64_t sdc_nnz(const sdc_tab *t) {
    return t->nnz;
}

/* Writes the nonzero terms (sdc_nnz of them) to the three arrays, largest
 * key first: a reader that sorts them then meets one run, and a dict built
 * from them in that order is read in memory order.  The keys alone are
 * sorted, by an LSD radix sort on their 7 low bytes (keys are below 2^56)
 * between keys and a scratch of 8 bytes a term, each pass stable and
 * largest byte first; a pass whose byte is the same in every key is
 * skipped.  Each value is then read back through tab_slot. */
int sdc_dump(const sdc_tab *t, int64_t *keys, uint64_t *lo, int64_t *hi) {
    int64_t n = t->nnz, i, j = 0;
    int64_t *src, *dst, *tmp;
    int shift;
    if (n == 0) return 0;
    tmp = (int64_t *)malloc((size_t)n * sizeof(int64_t));
    if (!tmp) return -1;
    for (i = 0; i < t->cap; i++)
        if (t->keys[i] != -1 && t->vals[i] != 0) keys[j++] = t->keys[i];
    src = keys;
    dst = tmp;
    for (shift = 0; shift < 56; shift += 8) {
        int64_t pos[256] = {0}, at = 0;
        int d;
        for (i = 0; i < n; i++) pos[(src[i] >> shift) & 0xFF]++;
        if (pos[(src[0] >> shift) & 0xFF] == n) continue;
        for (d = 255; d >= 0; d--) {
            int64_t c = pos[d];
            pos[d] = at;
            at += c;
        }
        for (i = 0; i < n; i++) dst[pos[(src[i] >> shift) & 0xFF]++] = src[i];
        src = dst;
        dst = src == keys ? tmp : keys;
    }
    if (src != keys) memcpy(keys, src, (size_t)n * sizeof(int64_t));
    free(tmp);
    for (i = 0; i < n; i++) {
        acc_t v = t->vals[tab_slot(t, keys[i])];
        lo[i] = (uint64_t)v;
        hi[i] = (int64_t)(v >> 64);
    }
    return 0;
}

/* Writes to peaks[f] the largest exponent in byte field f (f = 0 the
 * lowest) over the keys with a nonzero value: one pass over the table, so
 * an exponent check needs no dump of the terms. */
void sdc_peaks(const sdc_tab *t, uint8_t *peaks) {
    int64_t i;
    memset(peaks, 0, 8);
    for (i = 0; i < t->cap; i++) {
        if (t->keys[i] != -1 && t->vals[i] != 0) {
            uint64_t k = (uint64_t)t->keys[i];
            int f;
            for (f = 0; k; f++, k >>= 8)
                if ((k & 0xFF) > peaks[f]) peaks[f] = (uint8_t)(k & 0xFF);
        }
    }
}

/* Index of the first slot at or after i holding a nonzero value (t->cap
 * when there is none). */
static int64_t next_live(const sdc_tab *t, int64_t i) {
    while (i < t->cap && (t->keys[i] == -1 || t->vals[i] == 0)) i++;
    return i;
}

/* Inserts between a prefetch of a sum's home slot and the insert itself. */
#define PREFETCH_AHEAD 16

/* The exponent in the byte field at bit shift of a key. */
static int64_t field_of(int64_t key, int shift) {
    return key >> shift & 0xFF;
}

/* acc += sign * a * b over the term pairs whose exponents in the byte
 * field at bit shift agree, with that field cleared in their sum; acc must
 * be neither a nor b.  shift is a multiple of 8 up to 56, and at 56, past
 * the fields of every key (keys are below 2^56), every exponent there is 0,
 * so every pair is multiplied: the plain product the determinant DP runs.
 * A smaller shift pairs each power of one variable in a with the same power
 * in b, as the restriction of a column to a hyperplane does.
 *
 * The terms of b are counting-sorted into buckets by their field, each
 * bucket in slot order and with the field cleared, so each term of a walks
 * only its own bucket; at shift 56 b is one bucket.
 *
 * The sums ka + kb land on random slots of a table far larger than the
 * cache, so each insert waits on memory.  While inserting one sum the loop
 * prefetches the home slot of the sum PREFETCH_AHEAD inserts later, which
 * at the end of a bucket is in the bucket of the next live key of a.  A
 * growth of acc in between only makes that prefetch useless, never wrong:
 * the insert looks its slot up again. */
int sdc_fma(sdc_tab *acc, const sdc_tab *a, const sdc_tab *b, int sign, int shift) {
    int64_t bn = b->nnz, i, ia, ib;
    int64_t start[257] = {0}, fill[256]; /* bucket e is [start[e], start[e + 1]) */
    int64_t *bk;
    acc_t *bv;
    int rc = 0, e;
    if (bn == 0) return 0;
    bk = (int64_t *)malloc((size_t)bn * sizeof(int64_t));
    bv = (acc_t *)malloc((size_t)bn * sizeof(acc_t));
    if (!bk || !bv) {
        free(bk); free(bv);
        return -1;
    }
    for (i = 0; i < b->cap; i++)
        if (b->keys[i] != -1 && b->vals[i] != 0) start[field_of(b->keys[i], shift) + 1]++;
    for (e = 0; e < 256; e++) {
        start[e + 1] += start[e];
        fill[e] = start[e];
    }
    for (i = 0; i < b->cap; i++) {
        if (b->keys[i] != -1 && b->vals[i] != 0) {
            int64_t f = field_of(b->keys[i], shift), j = fill[f]++;
            bk[j] = b->keys[i] - (f << shift);
            bv[j] = b->vals[i];
        }
    }
    for (ia = next_live(a, 0); ia < a->cap && rc == 0;) {
        int64_t ka = a->keys[ia], fa = field_of(ka, shift), next = next_live(a, ia + 1);
        int64_t b0 = start[fa], b1 = start[fa + 1], kn = -1, n0 = 0, n1 = 0;
        acc_t va = 0, term;
        if (next < a->cap) {
            int64_t fn = field_of(a->keys[next], shift);
            kn = a->keys[next] - (fn << shift);
            n0 = start[fn];
            n1 = start[fn + 1];
        }
        ka -= fa << shift;
        if (b0 < b1 && __builtin_mul_overflow(a->vals[ia], (acc_t)sign, &va)) {
            rc = -2;
            break;
        }
        for (ib = b0; ib < b1; ib++) {
            int64_t jb = ib + PREFETCH_AHEAD, kp = ka, end = b1;
            if (jb >= b1) {
                jb += n0 - b1;
                kp = kn;
                end = n1;
            }
            if (jb < end && kp != -1) {
                int64_t h = tab_home(acc, kp + bk[jb]);
                __builtin_prefetch(&acc->keys[h], 1);
                __builtin_prefetch(&acc->vals[h], 1);
            }
            if (__builtin_mul_overflow(va, bv[ib], &term)) {
                rc = -2;
                break;
            }
            if ((rc = tab_add(acc, ka + bk[ib], term))) break;
        }
        ia = next;
    }
    free(bk); free(bv);
    return rc;
}

/* The largest key with a nonzero coefficient, its value written to
 * *lo, *hi; -1 and the value 0 for the zero polynomial. */
int64_t sdc_lead(const sdc_tab *t, uint64_t *lo, int64_t *hi) {
    int64_t i, best = -1;
    acc_t v = 0;
    for (i = 0; i < t->cap; i++) {
        if (t->keys[i] != -1 && t->vals[i] != 0 && t->keys[i] > best) {
            best = t->keys[i];
            v = t->vals[i];
        }
    }
    *lo = (uint64_t)v;
    *hi = (int64_t)(v >> 64);
    return best;
}
