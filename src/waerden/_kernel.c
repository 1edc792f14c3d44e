/* The search kernel of waerden.search: one node step and the depth-first
 * walk over it, wd_walk, which is the search's one entry point; a walk of
 * one branch, stopped after one node, makes that branch alone.  search.py
 * holds the tree's rules in its module docstring; this file implements
 * them exactly, so every tree, node count and certificate is the one those
 * rules give.
 *
 * Positions 1..N are bits of masks of W = (N + 64) / 64 words, bit p being
 * position p.  A state is, in 64-bit words:
 *
 *   header  depth, the tie of the reversal check (pair index, labels given,
 *           a flag set once the prefix reads smaller than its mirror's) and
 *           the two label maps, xmap and mmap, r int32s each
 *   un      the unassigned positions
 *   cm      r class masks
 *   al      r allowed masks: the positions where the color completes no AP
 *   cnt     k > 3 only: for each color, k - 2 unary levels over the AP index;
 *           level j holds the APs with more than j members of that color
 *
 * A branch (p, c, slot) gives color c to position p in the state of its
 * slot and writes the child into slot + 1.  A stack is depth first, so when
 * a branch is popped every branch above it is gone and slot + 1 is free.
 *
 * Built as a shared library and called through ctypes; every function that
 * writes takes its buffers from the caller, the tables are read only once
 * made, and the counts that calls share are added to atomically, so calls
 * on one kernel may run in parallel threads.  The library also holds
 * wd_scan, at the end of this file, the DIMACS clause scanner of
 * waerden.cnf.read_dimacs.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

typedef uint64_t word;

enum { UNSAT = 0, SAT = 1, TIMEOUT = 2, GROW = 3, PAUSE = 4, BRANCH = 5, NOMEM = -1 };

#define BIT(m, p) ((m)[(p) >> 6] >> ((p) & 63) & 1)
#define SET(m, p) ((m)[(p) >> 6] |= (word)1 << ((p) & 63))
#define CLR(m, p) ((m)[(p) >> 6] &= ~((word)1 << ((p) & 63)))

typedef struct {
    int32_t N, r, k, W;
    int32_t levels;     /* k > 3: k - 2 unary levels per color */
    int64_t AW;         /* k > 3: words per AP set */
    int64_t hw, size;   /* header words, state words */
    /* k > 3: the APs through p, as the nonzero words of a bitset over the
     * AP index, are word w_at[e] with bits w_bits[e], start[p] <= e <
     * start[p + 1] */
    int64_t *start;
    int32_t *w_at;
    word *w_bits;
    int32_t *ap_a, *ap_d; /* AP i is ap_a[i] + j * ap_d[i], j < k */
    int64_t decisions;    /* the branches made, added to atomically */
} kernel;

/* the header: int32 fields, then xmap and mmap */
enum { DEPTH, TIE, LABELS, FREE, MAPS };

static int32_t *header(word *s) { return (int32_t *)s; }
static word *un_of(const kernel *K, word *s) { return s + K->hw; }
static word *cm_of(const kernel *K, word *s) { return s + K->hw + K->W; }
static word *al_of(const kernel *K, word *s) { return s + K->hw + (1 + (int64_t)K->r) * K->W; }
static word *cnt_of(const kernel *K, word *s) { return s + K->hw + (1 + 2 * (int64_t)K->r) * K->W; }

void wd_free(kernel *K)
{
    if (!K)
        return;
    free(K->start);
    free(K->w_at);
    free(K->w_bits);
    free(K->ap_a);
    free(K->ap_d);
    free(K);
}

/* The tables of [1, N] for r colors and k-APs, or NULL when they do not fit
 * in memory.  k > 3 indexes every AP and lists the APs through each
 * position; k = 3 needs no table. */
kernel *wd_new(int32_t N, int32_t r, int32_t k)
{
    kernel *K = calloc(1, sizeof *K);
    if (!K)
        return NULL;
    K->N = N, K->r = r, K->k = k, K->W = (N + 64) / 64;
    K->hw = (MAPS + 2 * (int64_t)r + 1) / 2;
    K->size = K->hw + (1 + 2 * (int64_t)r) * K->W;
    if (k == 3)
        return K;
    int64_t count = 0;
    for (int64_t d = 1; d <= (N - 1) / (k - 1); d++)
        count += N - (k - 1) * d;
    if (count > INT32_MAX) {
        wd_free(K);
        return NULL;
    }
    K->levels = k - 2;
    K->AW = (count + 63) / 64;
    K->size += (int64_t)r * K->levels * K->AW;
    K->ap_a = malloc(((size_t)count + 1) * sizeof *K->ap_a);
    K->ap_d = malloc(((size_t)count + 1) * sizeof *K->ap_d);
    K->start = calloc((size_t)N + 2, sizeof *K->start);
    int64_t *at = malloc(((size_t)N + 1) * sizeof *at);
    if (!K->ap_a || !K->ap_d || !K->start || !at) {
        free(at);
        wd_free(K);
        return NULL;
    }
    /* index the APs by d, then a mod d, then a, so the APs of one
     * difference through a position are consecutive and share a word */
    int64_t i = 0;
    for (int32_t d = 1; d <= (N - 1) / (k - 1); d++)
        for (int32_t first = 1; first <= d; first++)
            for (int32_t a = first; a + (k - 1) * d <= N; a += d, i++)
                K->ap_a[i] = a, K->ap_d[i] = d;
    /* two passes over the APs in index order, each visiting the members of
     * each: the first counts the words each position's list needs, the
     * second fills the lists; at[p] is the entry for p's last word seen */
    for (int pass = 0; pass < 2; pass++) {
        for (int32_t p = 1; p <= N; p++)
            at[p] = pass ? K->start[p] - 1 : -1;
        for (i = 0; i < count; i++)
            for (int32_t j = 0; j < k; j++) {
                const int32_t p = K->ap_a[i] + j * K->ap_d[i], w = (int32_t)(i >> 6);
                if (!pass) {
                    if (at[p] != w)
                        at[p] = w, K->start[p + 1]++;
                    continue;
                }
                if (at[p] < K->start[p] || K->w_at[at[p]] != w) {
                    at[p]++;
                    K->w_at[at[p]] = w, K->w_bits[at[p]] = 0;
                }
                K->w_bits[at[p]] |= (word)1 << (i & 63);
            }
        if (pass)
            break;
        for (int32_t p = 1; p <= N; p++)
            K->start[p + 1] += K->start[p];
        K->w_at = malloc(((size_t)K->start[N + 1] + 1) * sizeof *K->w_at);
        K->w_bits = malloc(((size_t)K->start[N + 1] + 1) * sizeof *K->w_bits);
        if (!K->w_at || !K->w_bits) {
            free(at);
            wd_free(K);
            return NULL;
        }
    }
    free(at);
    return K;
}

int64_t wd_state_words(const kernel *K) { return K->size; }

int64_t wd_decisions(const kernel *K) { return __atomic_load_n(&K->decisions, __ATOMIC_RELAXED); }

/* The unassigned position nearest (N + 1) / 2, ties left: the highest
 * unassigned bit of the left half or the lowest of the right half. */
static int32_t branch_position(const kernel *K, const word *un)
{
    int32_t N = K->N, mid = (N + 1) >> 1, left = -1, right = -1;
    int32_t w = mid >> 6;
    word m = un[w] & (~(word)0 >> (63 - (mid & 63)));
    for (;;) {
        if (m) {
            left = w * 64 + 63 - __builtin_clzll(m);
            break;
        }
        if (--w < 0)
            break;
        m = un[w];
    }
    w = (mid + 1) >> 6;
    if (w < K->W) {
        m = un[w] & (~(word)0 << ((mid + 1) & 63));
        for (;;) {
            if (m) {
                right = w * 64 + __builtin_ctzll(m);
                break;
            }
            if (++w >= K->W)
                break;
            m = un[w];
        }
    }
    if (right < 0)
        return left;
    /* distances N + 1 - 2 * left and 2 * right - N - 1; ties go left */
    return left + right > N ? left : right;
}

/* The root state: nothing assigned, every color allowed everywhere, and the
 * tie at pair 0, or at the centre, pair -1, when N is odd.  Returns the
 * position of the root branch, which gives it color 0. */
int32_t wd_root(const kernel *K, word *s)
{
    memset(s, 0, (size_t)K->size * sizeof *s);
    int32_t *h = header(s);
    h[TIE] = -(K->N & 1);
    for (int32_t c = 0; c < 2 * K->r; c++)
        h[MAPS + c] = -1;
    word *un = un_of(K, s);
    for (int32_t p = 1; p <= K->N; p++)
        SET(un, p);
    for (int32_t c = 0; c < K->r; c++)
        memcpy(al_of(K, s) + (int64_t)c * K->W, un, (size_t)K->W * sizeof *un);
    return branch_position(K, un);
}

/* What one call needs besides the state: the pending stack of forced
 * assignments, (position, color) pairs, and two masks. */
typedef struct {
    int32_t *pend;
    word *hit, *forced;
} scratch;

static int scratch_new(const kernel *K, scratch *t)
{
    t->pend = malloc(2 * ((size_t)K->N + 2) * sizeof *t->pend);
    t->hit = malloc(2 * (size_t)K->W * sizeof *t->hit);
    t->forced = t->hit + K->W;
    if (t->pend && t->hit)
        return 1;
    free(t->pend);
    free(t->hit);
    return 0;
}

static void scratch_free(scratch *t)
{
    free(t->pend);
    free(t->hit);
}

/* Assign color c to position p, then propagate forced positions until a
 * fixpoint.  Returns 0 on a conflict: a position with no color allowed, or
 * a color popped where it is no longer allowed.  *made counts the
 * assignments.  A position is pushed only when one color is left there,
 * and only an assignment of that color can threaten it, which leaves it
 * dead and fails the branch first; so the pending stack holds at most N
 * pairs.  The positions an assignment of qc threatens have just lost qc, so
 * only the other r - 1 colors are counted there and scanned for forcing. */
static int assign_prop(const kernel *K, word *s, int32_t p, int32_t c, int64_t *made, scratch *t)
{
    const int32_t N = K->N, r = K->r, W = K->W;
    word *un = un_of(K, s), *cm = cm_of(K, s), *al = al_of(K, s), *cnt = cnt_of(K, s);
    word *hit = t->hit, *forced = t->forced;
    int32_t *pend = t->pend;
    int64_t np = 1;
    pend[0] = p, pend[1] = c;
    while (np) {
        np--;
        const int32_t q = pend[2 * np], qc = pend[2 * np + 1];
        word *alq = al + (int64_t)qc * W, *cq = cm + (int64_t)qc * W;
        if (!BIT(alq, q))
            return 0;
        CLR(un, q);
        ++*made;
        memset(hit, 0, (size_t)W * sizeof *hit);
        if (K->k == 3) {
            /* a member v and q make a 3-AP with 2v - q, 2q - v and, when
             * they have the same parity, (q + v) / 2 */
            for (int32_t w = 0; w < W; w++)
                for (word m = cq[w]; m; m &= m - 1) {
                    const int32_t v = w * 64 + __builtin_ctzll(m);
                    int32_t x = 2 * v - q;
                    if (x >= 1 && x <= N)
                        SET(hit, x);
                    x = 2 * q - v;
                    if (x >= 1 && x <= N)
                        SET(hit, x);
                    if (!((q ^ v) & 1))
                        SET(hit, (q + v) >> 1);
                }
            SET(cq, q);
        } else {
            SET(cq, q);
            const int32_t levels = K->levels, k = K->k;
            const int64_t AW = K->AW, end = K->start[q + 1];
            const int32_t *restrict w_at = K->w_at, *restrict ap_a = K->ap_a, *restrict ap_d = K->ap_d;
            const word *restrict w_bits = K->w_bits;
            word *restrict lv = cnt + (int64_t)qc * levels * AW;
            for (int64_t e = K->start[q]; e < end; e++) {
                const int64_t wi = w_at[e];
                /* add one to the unary count of each AP of the word; what
                 * carries out of the top level now holds k - 1 members */
                word carry = w_bits[e];
                for (int32_t j = 0; j < levels; j++) {
                    const word v = lv[j * AW + wi];
                    lv[j * AW + wi] = v | carry;
                    carry &= v;
                }
                if (!carry)
                    continue;
                /* an AP with a member of another color has no free member
                 * left, so it threatens nothing */
                for (int32_t c2 = 0; c2 < r; c2++)
                    if (c2 != qc)
                        carry &= ~cnt[(int64_t)c2 * levels * AW + wi];
                for (; carry; carry &= carry - 1) {
                    const int64_t i = wi * 64 + __builtin_ctzll(carry);
                    for (int32_t x = ap_a[i], n = 0; n < k; n++, x += ap_d[i])
                        SET(hit, x);
                }
            }
        }
        /* only unassigned positions that still allow qc change status */
        word any = 0;
        for (int32_t w = 0; w < W; w++)
            any |= hit[w] &= un[w] & alq[w];
        if (!any)
            continue;
        /* count the other colors still allowed at each hit position,
         * saturating at two */
        any = 0;
        for (int32_t w = 0; w < W; w++) {
            if (!hit[w]) {
                forced[w] = 0;
                continue;
            }
            alq[w] ^= hit[w];
            word one = 0, two = 0;
            for (int32_t c2 = 0; c2 < r; c2++) {
                if (c2 == qc)
                    continue;
                const word free_ = hit[w] & al[(int64_t)c2 * W + w];
                two |= one & free_;
                one |= free_;
            }
            if (hit[w] ^ one)
                return 0; /* a position with no color allowed */
            any |= forced[w] = one ^ two;
        }
        if (!any)
            continue;
        /* push each color's forced positions, colors and positions
         * ascending, so the last pushed is popped first */
        for (int32_t c2 = 0; c2 < r; c2++) {
            if (c2 == qc)
                continue;
            for (int32_t w = 0; w < W; w++)
                for (word m = forced[w] & al[(int64_t)c2 * W + w]; m; m &= m - 1) {
                    pend[2 * np] = w * 64 + __builtin_ctzll(m);
                    pend[2 * np + 1] = c2;
                    np++;
                }
        }
    }
    return 1;
}

static int32_t color_of(const kernel *K, word *s, int32_t p)
{
    const word *cm = cm_of(K, s);
    int32_t c = 0;
    while (!BIT(cm + (int64_t)c * K->W, p))
        c++;
    return c;
}

/* Carry the reversal lex-leader comparison over the complete mirror pairs.
 * Pair i is position a = N / 2 - i and its mirror N + 1 - a; pair -1, when
 * N is odd, is the centre, read twice.  Each side is relabelled in order of
 * first appearance.  Returns 0 when the prefix reads larger than its
 * mirror's, so no coloring below the node passes; otherwise leaves the tie
 * after the last complete pair, or sets FREE once the prefix reads
 * smaller. */
static int mirror_check(const kernel *K, word *s)
{
    const int32_t N = K->N, r = K->r;
    int32_t *h = header(s), *xmap = h + MAPS, *mmap = h + MAPS + r;
    const word *un = un_of(K, s);
    int32_t i = h[TIE], labels = h[LABELS];
    for (; i < N >> 1; i++) {
        const int32_t a = (N >> 1) - i, b = N + 1 - a;
        if (BIT(un, a) || BIT(un, b))
            break;
        const int32_t ca = color_of(K, s, a), cb = color_of(K, s, b);
        for (int side = 0; side < 2; side++) {
            /* x reads a, b; its mirror b, a */
            const int32_t cx = side ? cb : ca, cy = side ? ca : cb;
            const int32_t lx = xmap[cx] >= 0 ? xmap[cx] : labels;
            const int32_t ly = mmap[cy] >= 0 ? mmap[cy] : labels;
            if (lx != ly) {
                if (lx > ly)
                    return 0;
                h[FREE] = 1;
                return 1;
            }
            if (lx == labels) {
                xmap[cx] = mmap[cy] = labels;
                labels++;
            }
        }
    }
    h[TIE] = i, h[LABELS] = labels;
    return 1;
}

static void colors_of(const kernel *K, word *s, int32_t *colors)
{
    for (int32_t p = 1; p <= K->N; p++)
        colors[p - 1] = color_of(K, s, p);
}

/* Make one branch: copy the parent's state into child, assign and
 * propagate, test for SAT, run the reversal check and list the branches of
 * the next position.  Returns UNSAT for a leaf (a conflict, or a node whose
 * pairs read larger than its mirror image's), SAT when every position is
 * assigned, else BRANCH with out[0] the next position, out[1] the number
 * of its colors and out[2..] those colors, descending, so a stack makes the
 * least first: every color allowed there up to one past the highest color
 * in use, capped at r - 1.
 *
 * Out of line and 64-byte aligned for speed, measured at 1 worker with
 * gcc -O2 on x86-64.  wd_walk is its one caller, and gcc inlines it there:
 * the k > 3 walk then ran 10-16% slower ((2,5) N = 178 at 400k nodes in
 * 75 against 68 ms, the (3,4) N = 125 SAT probe in 23 against 20 ms).  Out
 * of line but unaligned, at offset 0x1250 against 0x1380, the same code
 * still ran 3-6% slower; aligned, the walk runs as fast as at 0x1380, and
 * the alignment no longer depends on the code above it.  k = 3 did not
 * move. */
__attribute__((noinline, aligned(64)))
static int expand(const kernel *K, const word *parent, int32_t p, int32_t c, word *child,
                  int32_t *out, int64_t *made, scratch *t)
{
    memcpy(child, parent, (size_t)K->size * sizeof *child);
    header(child)[DEPTH]++;
    if (!assign_prop(K, child, p, c, made, t))
        return UNSAT;
    const word *un = un_of(K, child);
    word left = 0;
    for (int32_t w = 0; w < K->W; w++)
        left |= un[w];
    if (!left)
        return SAT;
    if (!header(child)[FREE] && !mirror_check(K, child))
        return UNSAT; /* the mirror image's colorings are searched instead */
    const int32_t q = branch_position(K, un);
    const word *cm = cm_of(K, child), *al = al_of(K, child);
    int32_t top = K->r - 1;
    for (;;) {
        int64_t w = 0;
        while (w < K->W && !cm[top * (int64_t)K->W + w])
            w++;
        if (w < K->W)
            break;
        top--;
    }
    out[0] = q, out[1] = 0;
    for (int32_t c2 = top + 1 < K->r - 1 ? top + 1 : K->r - 1; c2 >= 0; c2--)
        if (BIT(al + (int64_t)c2 * K->W, q))
            out[2 + out[1]++] = c2;
    return BRANCH;
}

static double now(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Backtrack depth first from a stack of *sp unmade branches, three int32s
 * each (position, color, slot), over `slots` states; a stopped walk leaves
 * the unmade branches in the stack for the next call.  The caller sizes the
 * stack for all a walk can push: each level of a path adds at most r - 1
 * entries.  Here alone a walk's stop is decided.  Before its first branch
 * and every `poll` nodes after, it adds its new nodes to *spent, the count
 * the walks of one search share, reads the sum and its clock, and stops
 * with TIMEOUT once `seconds` have passed or PAUSE once `pause` have, so the
 * caller's thread can take an interrupt.  Before each branch it stops with
 * TIMEOUT once the sum it last read plus its uncharged nodes reaches budget.
 * Returns UNSAT when the stack runs out, SAT with the coloring in colors, or
 * GROW before a branch whose child needs a slot past `slots`.  *made gets
 * the assignments made, all added to *spent, and the branches are added to
 * the kernel's decisions. */
int wd_walk(kernel *K, int32_t *stack, int64_t *sp, word *states, int64_t slots, int64_t *spent,
            int64_t budget, int64_t poll, double seconds, double pause, int64_t *made,
            int32_t *colors)
{
    *made = 0;
    scratch t;
    if (!scratch_new(K, &t))
        return NOMEM;
    int32_t *out = malloc((2 + (size_t)K->r) * sizeof *out);
    if (!out) {
        scratch_free(&t);
        return NOMEM;
    }
    const double start = now();
    int64_t nodes = 0, charged = 0, seen = 0, branches = 0;
    int status = UNSAT;
    while (*sp > 0) {
        if (!branches || nodes - charged >= poll) {
            seen = __atomic_add_fetch(spent, nodes - charged, __ATOMIC_RELAXED);
            charged = nodes;
            const double passed = now() - start;
            status = passed >= seconds ? TIMEOUT : passed >= pause ? PAUSE : UNSAT;
            if (status != UNSAT)
                break;
        }
        if (seen + nodes - charged >= budget) {
            status = TIMEOUT;
            break;
        }
        const int32_t *e = stack + 3 * (*sp - 1);
        const int32_t p = e[0], c = e[1], slot = e[2];
        if (slot + 1 >= slots) {
            status = GROW;
            break;
        }
        --*sp;
        word *child = states + (slot + 1) * K->size;
        const int s = expand(K, states + slot * K->size, p, c, child, out, &nodes, &t);
        branches++;
        if (s == SAT) {
            colors_of(K, child, colors);
            status = SAT;
            break;
        }
        if (s == BRANCH)
            for (int32_t n = 0; n < out[1]; n++, ++*sp) {
                int32_t *f = stack + 3 * *sp;
                f[0] = out[0], f[1] = out[2 + n], f[2] = slot + 1;
            }
    }
    __atomic_add_fetch(spent, nodes - charged, __ATOMIC_RELAXED);
    __atomic_add_fetch(&K->decisions, branches, __ATOMIC_RELAXED);
    *made = nodes;
    free(out);
    scratch_free(&t);
    return status;
}

/* The DIMACS clause scanner of cnf.read_dimacs, which shares nothing with
 * the search above.  It reads text[start:end] line by line while each line
 * is a whole clause in the usual layout: literals -?[1-9][0-9]* of at most
 * 18 digits and 1 <= |lit| <= V, then a 0 and '\n', spaces and tabs
 * around the tokens.  The literals go to lits, and each run of clauses of
 * one length to runs as (length, count); made[0] and made[1] get the
 * literals and runs written.  Returns the bytes read, which end in front
 * of the first line that is anything else (a comment, a header, a blank
 * line, a lone 0, a split clause, a literal past V, any other character)
 * or that does not fit in lit_cap literals and run_cap runs, or at end. */
int64_t wd_scan(const char *text, int64_t start, int64_t end, int64_t V, int64_t *lits,
                int64_t lit_cap, int64_t *runs, int64_t run_cap, int64_t *made)
{
    int64_t p = start, nl = 0, nr = 0;
    while (p < end) {
        int64_t q = p, n = nl;
        for (;;) { /* one token a pass, up to the 0 that ends the line */
            while (q < end && (text[q] == ' ' || text[q] == '\t'))
                q++;
            if (q == end)
                goto stop;
            const int neg = text[q] == '-';
            q += neg;
            if (q == end || text[q] < '0' || text[q] > '9')
                goto stop;
            if (text[q] == '0') {
                if (neg || n == nl)
                    goto stop; /* -0, or a line with no literal */
                q++;
                while (q < end && (text[q] == ' ' || text[q] == '\t'))
                    q++;
                if (q == end || text[q] != '\n')
                    goto stop; /* 00, 0x or a token after the 0 */
                break;
            }
            int64_t v = 0;
            int digits = 0;
            for (; q < end && text[q] >= '0' && text[q] <= '9'; q++) {
                if (++digits > 18)
                    goto stop;
                v = 10 * v + (text[q] - '0');
            }
            if (v > V || q == end || (text[q] != ' ' && text[q] != '\t') || n == lit_cap)
                goto stop;
            lits[n++] = neg ? -v : v;
        }
        const int64_t length = n - nl;
        if (nr > 0 && runs[2 * nr - 2] == length) {
            runs[2 * nr - 1]++;
        } else {
            if (nr == run_cap)
                goto stop;
            runs[2 * nr] = length, runs[2 * nr + 1] = 1;
            nr++;
        }
        nl = n;
        p = q + 1;
    }
stop:
    made[0] = nl, made[1] = nr;
    return p - start;
}
