/* Compiled half of shidcone.detkernel: packed-key integer polynomials.
 *
 * A polynomial is its nonzero terms in two arrays sorted largest key first:
 * packed monomial keys (int64, at most 56 bits used, one byte per exponent
 * field, field 0 the lowest) and 128-bit signed values.  The one
 * arithmetic operation is the fused multiply-accumulate that the
 * determinant verification is hot on; two polynomials are compared by an
 * fma that must cancel.  The fma can pair the terms by one exponent field,
 * multiplying only the pairs whose exponents there agree and clearing the
 * field in their sum, which restricts a column to a hyperplane in one call;
 * the plain product is the pairing by a field past every key's fields.
 * All arithmetic is exact: each addition and multiplication of values is
 * checked where it happens, and one that would leave the signed 128-bit
 * range is refused, never wrapped.  The sign of an fma is multiplied into
 * the values of an operand that holds no -2^127 where one does not, so only
 * an fma whose operands both hold -2^127 may refuse a result that fits.
 * The Python wrapper (detkernel.IntPoly) validates keys and loaded values.
 * The term count, the lead term, a dump and the JSON text of the terms
 * (sdc_write_json) read the arrays as they are, and a polynomial carries
 * its degree and a bound on each field's exponents, set with its terms.
 *
 * An fma builds the new terms of acc beside the old ones, by one of two
 * paths, and swaps them in only when it succeeds:
 *
 * - The slab path, for the plain product of two homogeneous polynomials
 *   into an accumulator that is empty or of their summed degree, when no
 *   exponent of a sum can pass 255.  Field 0 of a result term is then
 *   implied by the degree, and the other fields of the results lie in a box
 *   of (peak + 1) values each, where ka + kb is the sum of dense indices.
 *   The low fields index a slab of at most SLAB values, which fits one
 *   core's L2; the high fields name the slab.  The slabs that products
 *   reach are filled from the top key down, each by one checked multiply-
 *   add per product into the zeroed slab, with acc's terms of that slab
 *   loaded first, and each is read out in key order and zeroed again: the
 *   new terms come out sorted, and no two keys are ever compared.
 * - The hash path, for every other fma: acc is loaded into a scratch open-
 *   addressing table, the products are added there, and the table's
 *   nonzero terms are sorted back.  A key lives at the slot given by the
 *   low bits of fmix64(key) (the MurmurHash3 finalizer), found by linear
 *   probing.  Packed keys differ in a few exponent fields, so the hash must
 *   mix all 64 bits non-linearly: the low bits of key * phi depend only on
 *   the low fields, and a nearly additive hash (h(a + b) close to h(a) +
 *   h(b)) fills the table in nearly sorted slot order, one long probe run.
 *   Spread at random, the sums miss the cache on almost every insert, so
 *   the loop prefetches the home slot of the sum PREFETCH_AHEAD inserts
 *   ahead.
 *
 * The ABI is flat so that ctypes can call it: polynomials are opaque
 * pointers, keys are int64, and a 128-bit value crosses as a pair of 64-bit
 * words (lo unsigned, hi signed: value = hi * 2^64 + lo).  Functions
 * returning int report 0 on success, -1 when memory runs out and -2 when a
 * value would overflow; a refused fma or load leaves its target unchanged.
 * sdc_write_json fills a caller's char buffer with whole terms and returns
 * the bytes it wrote, resuming at the term index the caller passes.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef __int128 acc_t;

typedef struct {
    int64_t *keys; /* strictly decreasing */
    acc_t *vals;   /* none of them zero */
    int64_t n;
    /* the degree all terms share (-1 when they do not, or there are none)
     * and, in each byte field, a bound on the exponents: set with the terms */
    int deg;
    uint8_t peak[8];
} sdc_poly;

typedef unsigned __int128 mag_t;

static acc_t join(uint64_t lo, int64_t hi) {
    return (acc_t)(((mag_t)(uint64_t)hi << 64) | lo);
}

/* -2^127, the one value whose negation leaves the range */
#define VAL_MIN ((acc_t)((mag_t)1 << 127))

static int holds_min(const sdc_poly *p) {
    int64_t i;
    for (i = 0; i < p->n; i++)
        if (p->vals[i] == VAL_MIN) return 1;
    return 0;
}

/* Replaces p's terms by the n terms of the arrays, which p then owns;
 * the caller sets p->deg and p->peak. */
static void poly_set(sdc_poly *p, int64_t *keys, acc_t *vals, int64_t n) {
    free(p->keys); free(p->vals);
    p->keys = keys;
    p->vals = vals;
    p->n = n;
}

/* The largest exponent in each byte field of p's keys to peaks[f] (f = 0
 * the lowest), and the degree that all of p's terms share, or -1 when they
 * do not or p is zero. */
static int scan(const sdc_poly *p, uint8_t *peaks) {
    int64_t i;
    int deg = -1;
    memset(peaks, 0, 8);
    for (i = 0; i < p->n; i++) {
        uint64_t k = (uint64_t)p->keys[i];
        int f, d = 0;
        for (f = 0; k; f++, k >>= 8) {
            uint8_t e = k & 0xFF;
            d += e;
            if (e > peaks[f]) peaks[f] = e;
        }
        if (i == 0) deg = d;
        else if (d != deg) deg = -2; /* no term degree is negative */
    }
    return deg < 0 ? -1 : deg;
}

/* -- growing term arrays ---------------------------------------------------- */

typedef struct {
    int64_t *keys;
    acc_t *vals;
    int64_t n, cap;
} terms_t;

static int reserve(terms_t *o, int64_t extra) {
    int64_t cap = o->cap * 2;
    int64_t *k;
    acc_t *v;
    if (o->n + extra <= o->cap) return 0;
    if (cap < o->n + extra) cap = o->n + extra;
    if (!(k = (int64_t *)realloc(o->keys, (size_t)cap * sizeof(int64_t)))) return -1;
    o->keys = k;
    if (!(v = (acc_t *)realloc(o->vals, (size_t)cap * sizeof(acc_t)))) return -1;
    o->vals = v;
    o->cap = cap;
    return 0;
}

/* Hands o's terms to p, the arrays cut to their length. */
static void terms_to_poly(terms_t *o, sdc_poly *p) {
    if (o->n == 0) {
        free(o->keys); free(o->vals);
        poly_set(p, NULL, NULL, 0);
        return;
    }
    if (o->n < o->cap) {
        int64_t *k = (int64_t *)realloc(o->keys, (size_t)o->n * sizeof(int64_t));
        acc_t *v = (acc_t *)realloc(o->vals, (size_t)o->n * sizeof(acc_t));
        if (k) o->keys = k;
        if (v) o->vals = v;
    }
    poly_set(p, o->keys, o->vals, o->n);
}

/* -- scratch hash table ----------------------------------------------------- */

typedef struct {
    int64_t *keys; /* -1 marks an empty slot */
    acc_t *vals;
    int64_t cap;   /* power of two */
    int64_t n;     /* occupied slots, including cancelled-to-zero ones */
} tab_t;

static int tab_init(tab_t *t, int64_t cap_hint) {
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
    t->n = 0;
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

static int64_t tab_home(const tab_t *t, int64_t key) {
    return (int64_t)mix64((uint64_t)key) & (t->cap - 1);
}

static int64_t tab_slot(const tab_t *t, int64_t key) {
    int64_t mask = t->cap - 1;
    int64_t i = tab_home(t, key);
    while (t->keys[i] != -1 && t->keys[i] != key)
        i = (i + 1) & mask;
    return i;
}

/* inline (also tab_add): else gcc 12 -O3 calls tab_add out of hash_fma */
static inline int tab_grow(tab_t *t) {
    tab_t nt;
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
    free(t->keys); free(t->vals);
    *t = nt;
    return 0;
}

static inline int tab_add(tab_t *t, int64_t key, acc_t v) {
    int64_t i = tab_slot(t, key);
    if (t->keys[i] == key)
        return __builtin_add_overflow(t->vals[i], v, &t->vals[i]) ? -2 : 0;
    t->keys[i] = key;
    t->vals[i] = v;
    t->n++;
    if (t->n * 5 >= t->cap * 3)
        return tab_grow(t);
    return 0;
}

/* A table holding p's terms, sized for extra more keys. */
static int tab_from(tab_t *t, const sdc_poly *p, int64_t extra) {
    int64_t i;
    if (tab_init(t, p->n + extra)) return -1;
    for (i = 0; i < p->n; i++) {
        if (tab_add(t, p->keys[i], p->vals[i])) {
            free(t->keys); free(t->vals);
            return -1;
        }
    }
    return 0;
}

/* Sorts n nonnegative keys largest first: an LSD radix sort on their
 * bytes between keys and a scratch of 8 bytes a key, each pass stable and
 * largest byte first; a pass whose byte is the same in every key is
 * skipped.  A key is below 2^56 unless it is a sum that carried out of
 * the top field, as an unchecked product may leave it. */
static int sort_keys(int64_t *keys, int64_t n) {
    int64_t *src = keys, *dst, *tmp, i;
    int shift;
    if (n < 2) return 0;
    if (!(tmp = (int64_t *)malloc((size_t)n * sizeof(int64_t)))) return -1;
    dst = tmp;
    for (shift = 0; shift < 64; shift += 8) {
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
    return 0;
}

/* Replaces p's terms by the nonzero terms of t, sorted. */
static int tab_to_poly(const tab_t *t, sdc_poly *p) {
    terms_t o = {NULL, NULL, 0, 0};
    int64_t n = 0, i;
    for (i = 0; i < t->cap; i++) n += t->keys[i] != -1 && t->vals[i] != 0;
    if (n && reserve(&o, n)) {
        free(o.keys); free(o.vals);
        return -1;
    }
    for (i = 0; i < t->cap; i++)
        if (t->keys[i] != -1 && t->vals[i] != 0) o.keys[o.n++] = t->keys[i];
    if (sort_keys(o.keys, n)) {
        free(o.keys); free(o.vals);
        return -1;
    }
    for (i = 0; i < n; i++) o.vals[i] = t->vals[tab_slot(t, o.keys[i])];
    terms_to_poly(&o, p);
    p->deg = scan(p, p->peak);
    return 0;
}

/* -- entry points ------------------------------------------------------------ */

sdc_poly *sdc_new(void) {
    sdc_poly *p = (sdc_poly *)calloc(1, sizeof(sdc_poly));
    if (p) p->deg = -1;
    return p;
}

void sdc_free(sdc_poly *p) {
    if (!p) return;
    free(p->keys); free(p->vals); free(p);
}

/* p += sum of the n terms (keys[i], hi[i] * 2^64 + lo[i]), by way of a
 * scratch table. */
int sdc_load(sdc_poly *p, int64_t n, const int64_t *keys,
             const uint64_t *lo, const int64_t *hi) {
    tab_t t;
    int64_t i;
    int rc = 0;
    if (tab_from(&t, p, n)) return -1;
    for (i = 0; i < n && rc == 0; i++) {
        acc_t v = join(lo[i], hi[i]);
        if (v) rc = tab_add(&t, keys[i], v);
    }
    if (rc == 0) rc = tab_to_poly(&t, p);
    free(t.keys); free(t.vals);
    return rc;
}

int64_t sdc_nnz(const sdc_poly *p) {
    return p->n;
}

/* Writes the terms (sdc_nnz of them) to the three arrays, largest key
 * first: a reader that sorts them then meets one run, and a dict built
 * from them in that order is read in memory order. */
void sdc_dump(const sdc_poly *p, int64_t *keys, uint64_t *lo, int64_t *hi) {
    int64_t i;
    for (i = 0; i < p->n; i++) {
        keys[i] = p->keys[i];
        lo[i] = (uint64_t)p->vals[i];
        hi[i] = (int64_t)(p->vals[i] >> 64);
    }
}

/* Writes to peaks[f] the largest exponent in byte field f (f = 0 the
 * lowest) over p's keys: one pass, so an exponent check needs no dump of
 * the terms. */
void sdc_peaks(const sdc_poly *p, uint8_t *peaks) {
    scan(p, peaks);
}

/* The largest key, its value written to *lo, *hi; -1 and the value 0 for
 * the zero polynomial. */
int64_t sdc_lead(const sdc_poly *p, uint64_t *lo, int64_t *hi) {
    acc_t v = p->n ? p->vals[0] : 0;
    *lo = (uint64_t)v;
    *hi = (int64_t)(v >> 64);
    return p->n ? p->keys[0] : -1;
}

/* -- the hash path ------------------------------------------------------------ */

/* Inserts between a prefetch of a sum's home slot and the insert itself. */
#define PREFETCH_AHEAD 16

/* The exponent in the byte field at bit shift of a key. */
static int64_t field_of(int64_t key, int shift) {
    return key >> shift & 0xFF;
}

/* acc += sign * a * b over the term pairs whose exponents in the byte
 * field at bit shift agree, with that field cleared in their sum, on a
 * scratch table loaded with acc (see sdc_fma); the sign goes into b's
 * values.
 *
 * The terms of b are counting-sorted into buckets by their field, each
 * bucket largest key first and with the field cleared, so each term of a
 * walks only its own bucket; at shift 56 b is one bucket.
 *
 * The sums ka + kb land on random slots of a table far larger than the
 * cache, so each insert waits on memory.  While inserting one sum the loop
 * prefetches the home slot of the sum PREFETCH_AHEAD inserts later, which
 * at the end of a bucket is in the bucket of the next key of a.  A growth
 * of the table in between only makes that prefetch useless, never wrong:
 * the insert looks its slot up again. */
static int hash_fma(sdc_poly *acc, const sdc_poly *a, const sdc_poly *b, int sign, int shift) {
    int64_t bn = b->n, i, ia, ib;
    int64_t start[257] = {0}, fill[256]; /* bucket e is [start[e], start[e + 1]) */
    int64_t *bk = (int64_t *)malloc((size_t)bn * sizeof(int64_t));
    acc_t *bv = (acc_t *)malloc((size_t)bn * sizeof(acc_t));
    tab_t t;
    int rc = 0, e;
    if (!bk || !bv || tab_from(&t, acc, a->n + bn)) {
        free(bk); free(bv);
        return -1;
    }
    for (i = 0; i < bn; i++) start[field_of(b->keys[i], shift) + 1]++;
    for (e = 0; e < 256; e++) {
        start[e + 1] += start[e];
        fill[e] = start[e];
    }
    for (i = 0; i < bn && rc == 0; i++) {
        int64_t f = field_of(b->keys[i], shift), j = fill[f]++;
        bk[j] = b->keys[i] - (f << shift);
        if (__builtin_mul_overflow(b->vals[i], (acc_t)sign, &bv[j])) rc = -2;
    }
    for (ia = 0; ia < a->n && rc == 0; ia++) {
        int64_t ka = a->keys[ia], fa = field_of(ka, shift);
        int64_t b0 = start[fa], b1 = start[fa + 1], kn = -1, n0 = 0, n1 = 0;
        acc_t va = a->vals[ia], term;
        if (ia + 1 < a->n) {
            int64_t fn = field_of(a->keys[ia + 1], shift);
            kn = a->keys[ia + 1] - (fn << shift);
            n0 = start[fn];
            n1 = start[fn + 1];
        }
        ka -= fa << shift;
        for (ib = b0; ib < b1; ib++) {
            int64_t jb = ib + PREFETCH_AHEAD, kp = ka, end = b1;
            if (jb >= b1) {
                jb += n0 - b1;
                kp = kn;
                end = n1;
            }
            if (jb < end && kp != -1) {
                int64_t h = tab_home(&t, kp + bk[jb]);
                __builtin_prefetch(&t.keys[h], 1);
                __builtin_prefetch(&t.vals[h], 1);
            }
            if (__builtin_mul_overflow(va, bv[ib], &term)) {
                rc = -2;
                break;
            }
            if ((rc = tab_add(&t, ka + bk[ib], term))) break;
        }
    }
    if (rc == 0) rc = tab_to_poly(&t, acc);
    free(t.keys); free(t.vals);
    free(bk); free(bv);
    return rc;
}

/* -- the slab path ------------------------------------------------------------ */

/* Values a slab holds: 2^17 of 16 bytes, 2 MiB, the L2 of one core. */
#define SLAB (1 << 17)
#define NOT_SLAB 1

/* One slab per thread, allocated on first use and kept; it is all zero
 * between calls, and its pages that no slab has reached stay untouched. */
static __thread acc_t *slab;

/* Where the results of one slab-path fma lie: field f >= 1 of a key adds
 * its exponent times lo_w[f] to the key's offset in its slab and times
 * hi_w[f] to its slab number.  Fields 1..s have lo_w nonzero, s + 1..m
 * hi_w, both counting mixed-radix in radix[f] = (peak + 1) with the lowest
 * field least significant, so a sum of two keys whose exponents stay below
 * their radix has the summed offset and slab number, and a larger key has
 * the larger pair. */
typedef struct {
    int64_t lo_w[8], hi_w[8], radix[8];
    int s, m;
} box_t;

/* A run of terms in one slab: [start, end), largest key first. */
typedef struct {
    int64_t hi, start, end;
} run_t;

/* Two runs whose products fill offsets bot..top of slab hi. */
typedef struct {
    int64_t hi;
    int32_t ra, rb, top, bot;
} pair_t;

static void place(const box_t *x, int64_t key, int64_t *lo, int64_t *hi) {
    int64_t l = 0, h = 0;
    int f;
    for (f = 1; f <= x->m; f++) {
        int64_t e = field_of(key, 8 * f);
        l += e * x->lo_w[f];
        h += e * x->hi_w[f];
    }
    *lo = l;
    *hi = h;
}

/* The offsets of p's terms to lo and p's runs of one slab to runs (room
 * for p->n of them); returns the number of runs. */
static int64_t runs_of(const box_t *x, const sdc_poly *p, int32_t *lo, run_t *runs) {
    int64_t i, nr = 0, l, h;
    for (i = 0; i < p->n; i++) {
        place(x, p->keys[i], &l, &h);
        lo[i] = (int32_t)l;
        if (nr == 0 || runs[nr - 1].hi != h) {
            if (nr) runs[nr - 1].end = i;
            runs[nr].hi = h;
            runs[nr++].start = i;
        }
    }
    runs[nr - 1].end = p->n;
    return nr;
}

static int by_slab_down(const void *p, const void *q) {
    int64_t a = ((const pair_t *)p)->hi, b = ((const pair_t *)q)->hi;
    return (a < b) - (a > b);
}

/* Appends the nonzero values of slab[bot..top] to o, from the top down,
 * zeroing each; their keys have degree deg and the high fields of slab
 * number hi, and o has room for top - bot + 1 more terms.  The offsets
 * are read a row at a time, a row the values of field 1 with the fields
 * above fixed, and only up to the exponent of field 1 that leaves field 0
 * a nonnegative rest of the degree: the offsets above are never reached.
 * Every value read is written out and counted only when nonzero, with no
 * branch on it. */
static void read_slab(const box_t *x, int64_t hi, int64_t top, int64_t bot, int deg, terms_t *o) {
    int64_t d[8] = {0}, key = 0, r1 = x->radix[1], row = top - top % r1, n = o->n;
    int64_t *keys = o->keys; /* locals: a store to o->keys[n] could change o->n */
    acc_t *vals = o->vals;
    int f, rest = deg;
    for (f = 2; f <= x->m; f++) {
        d[f] = f <= x->s ? top / x->lo_w[f] % x->radix[f] : hi / x->hi_w[f] % x->radix[f];
        key += d[f] << 8 * f;
        rest -= (int)d[f];
    }
    for (;; row -= r1) {
        int64_t e = top - row < r1 - 1 ? top - row : r1 - 1, stop = bot > row ? bot - row : 0;
        if (e > rest) e = rest;
        for (; e >= stop; e--) {
            acc_t v = slab[row + e];
            keys[n] = key + (e << 8) + (rest - e);
            vals[n] = v;
            n += v != 0;
            slab[row + e] = 0;
        }
        if (row <= bot) break;
        /* the row below: borrow from the fields at 0 above field 1 */
        for (f = 2; d[f] == 0; f++) {
            d[f] = x->radix[f] - 1;
            key += d[f] << 8 * f;
            rest -= (int)d[f];
        }
        d[f]--;
        key -= (int64_t)1 << 8 * f;
        rest++;
    }
    o->n = n;
}

/* The box of the results of a, b and acc, given their peaks (see box_t);
 * -1 when an exponent of a sum could pass 255 and carry, or a key is past
 * 2^56, a sum that carried out of the top field before. */
static int box_of(box_t *x, const uint8_t *pa, const uint8_t *pb, const uint8_t *pc) {
    int64_t volume = 1;
    int f;
    memset(x, 0, sizeof *x);
    for (f = 0; f < 8; f++) {
        int peak = pa[f] + pb[f] > pc[f] ? pa[f] + pb[f] : pc[f];
        if (peak > 255 || (f == 7 && peak)) return -1;
        x->radix[f] = peak + 1;
        if (peak && f) x->m = f;
    }
    for (f = 1; f <= x->m || f == 1; f++) { /* field 1 always indexes the slab */
        if (x->s == f - 1 && volume * x->radix[f] <= SLAB) {
            x->lo_w[f] = volume;
            x->s = f;
        } else {
            if (x->s == f - 1) volume = 1;
            x->hi_w[f] = volume;
        }
        volume *= x->radix[f];
    }
    return 0;
}

/* Appends p's terms [from, to) to o. */
static int append(terms_t *o, const sdc_poly *p, int64_t from, int64_t to) {
    if (from == to) return 0;
    if (reserve(o, to - from)) return -1;
    memcpy(o->keys + o->n, p->keys + from, (size_t)(to - from) * sizeof(int64_t));
    memcpy(o->vals + o->n, p->vals + from, (size_t)(to - from) * sizeof(acc_t));
    o->n += to - from;
    return 0;
}

/* slab[lo_a + lo_b] += sign * va * vb over the terms of run r of a and run
 * q of b, whose offsets are alo and blo. */
static int run_products(const sdc_poly *a, const int32_t *alo, const run_t *r,
                        const sdc_poly *b, const int32_t *blo, const run_t *q, int sign) {
    int64_t ia, ib;
    for (ib = q->start; ib < q->end; ib++) {
        acc_t vb, term, *at = slab + blo[ib];
        if (__builtin_mul_overflow(b->vals[ib], (acc_t)sign, &vb)) return -2;
        for (ia = r->start; ia < r->end; ia++)
            if (__builtin_mul_overflow(a->vals[ia], vb, &term)
                || __builtin_add_overflow(at[alo[ia]], term, &at[alo[ia]]))
                return -2;
    }
    return 0;
}

/* acc += sign * a * b on slabs (see the header), or NOT_SLAB, acc
 * untouched, where the slab path does not apply.  The runs of a and b
 * that share a slab are paired, and the pairs sorted by the slab they
 * fill, largest first. */
static int slab_fma(sdc_poly *acc, const sdc_poly *a, const sdc_poly *b, int sign) {
    int da = a->deg, db = b->deg, rc = -1, f;
    int64_t na, nb, np, ip, jp, ic = 0, clo = 0, chi = -1, need = acc->n;
    box_t x;
    int32_t *alo = NULL, *blo = NULL;
    run_t *ra = NULL, *rb = NULL;
    pair_t *pairs = NULL;
    terms_t o = {NULL, NULL, 0, 0};
    if (da < 0 || db < 0 || (acc->n && acc->deg != da + db)
        || box_of(&x, a->peak, b->peak, acc->peak))
        return NOT_SLAB;
    if (!slab && !(slab = (acc_t *)calloc(SLAB, sizeof(acc_t)))) return -1;
    alo = (int32_t *)malloc((size_t)a->n * sizeof(int32_t));
    blo = (int32_t *)malloc((size_t)b->n * sizeof(int32_t));
    ra = (run_t *)malloc((size_t)a->n * sizeof(run_t));
    rb = (run_t *)malloc((size_t)b->n * sizeof(run_t));
    if (!alo || !blo || !ra || !rb) goto done;
    na = runs_of(&x, a, alo, ra);
    nb = runs_of(&x, b, blo, rb);
    np = na * nb;
    if (!(pairs = (pair_t *)malloc((size_t)np * sizeof(pair_t)))) goto done;
    for (ip = 0; ip < np; ip++) {
        const run_t *r = &ra[ip / nb], *q = &rb[ip % nb];
        pairs[ip].ra = (int32_t)(ip / nb);
        pairs[ip].rb = (int32_t)(ip % nb);
        pairs[ip].hi = r->hi + q->hi;
        pairs[ip].top = alo[r->start] + blo[q->start];
        pairs[ip].bot = alo[r->end - 1] + blo[q->end - 1];
    }
    qsort(pairs, (size_t)np, sizeof(pair_t), by_slab_down);
    /* room for acc and every offset the products reach, so that the terms
     * are rarely moved; a slab that acc's terms widen asks for more */
    for (ip = 0; ip < np; ip = jp) {
        int64_t top = -1, bot = SLAB;
        for (jp = ip; jp < np && pairs[jp].hi == pairs[ip].hi; jp++) {
            if (pairs[jp].top > top) top = pairs[jp].top;
            if (pairs[jp].bot < bot) bot = pairs[jp].bot;
        }
        need += top - bot + 1;
    }
    if (reserve(&o, need)) goto done;
    if (acc->n) place(&x, acc->keys[0], &clo, &chi);
    rc = 0;
    for (ip = 0; ip < np && rc == 0; ip = jp) {
        int64_t hi = pairs[ip].hi, top = -1, bot = SLAB, from = ic;
        /* acc's terms of higher slabs pass through, those of this slab load */
        for (; ic < acc->n && chi > hi; ic++)
            if (ic + 1 < acc->n) place(&x, acc->keys[ic + 1], &clo, &chi);
        rc = append(&o, acc, from, ic);
        for (; ic < acc->n && chi == hi; ic++) {
            slab[clo] = acc->vals[ic];
            if (clo > top) top = clo;
            if (clo < bot) bot = clo;
            if (ic + 1 < acc->n) place(&x, acc->keys[ic + 1], &clo, &chi);
        }
        for (jp = ip; jp < np && pairs[jp].hi == hi; jp++) {
            if (pairs[jp].top > top) top = pairs[jp].top;
            if (pairs[jp].bot < bot) bot = pairs[jp].bot;
            if (rc == 0)
                rc = run_products(a, alo, &ra[pairs[jp].ra], b, blo, &rb[pairs[jp].rb], sign);
        }
        if (rc == 0) rc = reserve(&o, top - bot + 1);
        if (rc == 0) read_slab(&x, hi, top, bot, da + db, &o);
        else memset(slab + bot, 0, (size_t)(top - bot + 1) * sizeof(acc_t));
    }
    if (rc == 0) rc = append(&o, acc, ic, acc->n);
    if (rc == 0) {
        terms_to_poly(&o, acc);
        /* the box bounds the exponents of what the products left */
        acc->deg = acc->n ? da + db : -1;
        for (f = 0; f < 8; f++) acc->peak[f] = (uint8_t)(x.radix[f] - 1);
    }
done:
    if (rc) {
        free(o.keys); free(o.vals);
    }
    free(alo); free(blo); free(ra); free(rb); free(pairs);
    return rc;
}

/* acc += sign * a * b over the term pairs whose exponents in the byte
 * field at bit shift agree, with that field cleared in their sum; acc must
 * be neither a nor b.  shift is a multiple of 8 up to 56, and at 56, past
 * the fields of every key (keys are below 2^56), every exponent there is 0,
 * so every pair is multiplied: the plain product the determinant DP runs,
 * on the slab path where it applies.  A smaller shift pairs each power of
 * one variable in a with the same power in b, as the restriction of a
 * column to a hyperplane does. */
int sdc_fma(sdc_poly *acc, const sdc_poly *a, const sdc_poly *b, int sign, int shift) {
    int rc;
    if (a->n == 0 || b->n == 0) return 0;
    /* both paths multiply the sign into b's values, which overflows only on
     * -2^127, so a holding none takes b's place: the pairs are the same
     * either way round */
    if (sign < 0 && holds_min(b) && !holds_min(a)) {
        const sdc_poly *t = a;
        a = b;
        b = t;
    }
    if (shift == 56 && (rc = slab_fma(acc, a, b, sign)) != NOT_SLAB) return rc;
    return hash_fma(acc, a, b, sign, shift);
}

/* -- JSON text --------------------------------------------------------------- */

/* gcd(a, b), on 64-bit words once both fit one */
static mag_t gcd_mag(mag_t a, mag_t b) {
    while (b >> 64 || a >> 64) {
        mag_t t;
        if (!b) return a;
        t = a % b;
        a = b;
        b = t;
    }
    {
        uint64_t x = (uint64_t)a, y = (uint64_t)b;
        while (y) {
            uint64_t t = x % y;
            x = y;
            y = t;
        }
        return x;
    }
}

/* Writes the decimal digits of v at q; returns the end. */
static char *put_mag(char *q, mag_t v) {
    char digits[40];
    int n = 0;
    uint64_t w;
    while (v >> 64) { /* 10^19 is the largest power of ten below 2^64 */
        uint64_t r = (uint64_t)(v % 10000000000000000000ULL);
        int i;
        v /= 10000000000000000000ULL;
        for (i = 0; i < 19; i++, r /= 10) digits[n++] = (char)('0' + r % 10);
    }
    w = (uint64_t)v;
    do digits[n++] = (char)('0' + w % 10); while (w /= 10);
    while (n) *q++ = digits[--n];
    return q;
}

/* A newline and the indentation of nesting level (2 spaces a level). */
static char *put_indent(char *q, int64_t level) {
    *q++ = '\n';
    memset(q, ' ', (size_t)(2 * level));
    return q + 2 * level;
}

/* Writes p's terms from *next on into buf, as many whole terms as cap bytes
 * surely hold, and moves *next past them; returns the bytes written, 0 when
 * cap is too small for one term.  The text is that of cli._write_terms for
 * the polynomial p / den in nvars variables at nesting depth depth, without
 * the closing bracket: each term "[" (the first) or "," and then, indented
 * by json.dumps(indent=2), [exponent array of x1..x_nvars, "num", "den"]:
 * the term's value over den in lowest terms, with a positive "den".  den
 * (nonzero) crosses as a value does.  Each term is reduced by its own gcd,
 * taken on magnitudes, so -2^127 in a value or in den is never negated in
 * the signed type; lowest terms are unique, so any den that gives the
 * polynomial gives the same text. */
int64_t sdc_write_json(const sdc_poly *p, uint64_t den_lo, int64_t den_hi, int nvars,
                       int64_t depth, char *buf, int64_t cap, int64_t *next) {
    acc_t den = join(den_lo, den_hi);
    mag_t dmag = den < 0 ? -(mag_t)den : (mag_t)den;
    /* a term has nvars + 6 lines, each at most an indent of depth + 3 levels
     * and 43 bytes more ("-, 39 digits and ",), and the comma before it */
    int64_t most = 1 + (nvars + 6) * (1 + 2 * (depth + 3) + 43);
    char *q = buf;
    int64_t i;
    for (i = *next; i < p->n && (q - buf) + most <= cap; i++) {
        acc_t c = p->vals[i];
        mag_t cmag = c < 0 ? -(mag_t)c : (mag_t)c, g = dmag == 1 ? 1 : gcd_mag(cmag, dmag);
        uint64_t key = (uint64_t)p->keys[i];
        int v;
        *q++ = i ? ',' : '[';
        q = put_indent(q, depth + 1);
        *q++ = '[';
        q = put_indent(q, depth + 2);
        *q++ = '[';
        for (v = nvars - 1; v >= 0; v--) { /* x1 is the highest field */
            unsigned e = (unsigned)(key >> 8 * v & 0xFF);
            q = put_indent(q, depth + 3);
            if (e >= 100) *q++ = (char)('0' + e / 100);
            if (e >= 10) *q++ = (char)('0' + e / 10 % 10);
            *q++ = (char)('0' + e % 10);
            if (v) *q++ = ',';
        }
        q = put_indent(q, depth + 2);
        *q++ = ']';
        *q++ = ',';
        q = put_indent(q, depth + 2);
        *q++ = '"';
        if ((c < 0) != (den < 0)) *q++ = '-';
        q = put_mag(q, cmag / g);
        *q++ = '"';
        *q++ = ',';
        q = put_indent(q, depth + 2);
        *q++ = '"';
        q = put_mag(q, dmag / g);
        *q++ = '"';
        q = put_indent(q, depth + 1);
        *q++ = ']';
    }
    *next = i;
    return q - buf;
}
