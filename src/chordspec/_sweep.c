/* Compiled sweep kernels: one pass over the degree-sorted graphs of an
 * edge-bitmask range that sorts each graph by its signless Laplacian index
 * against two cuts and tests the ones above them for a chord configuration,
 * the chord tests on one graph, the float indices of a list of graphs, and
 * for the property suite its random graphs, its samples of a range, the
 * rows of a list of edge slots, component counts, its eta checks, its
 * longest-cycle and longest-path searches, the certified Perron entry order
 * of its Perron shift and the checks of its structural claims.
 *
 * Same interface and soundness contract as the pure-Python twin _sweep_py:
 * classify drops a graph only when its index is provably below lo_cut, and
 * counts a hit only when the index is provably above hi_cut and the graph
 * passes the test (never, when the test is None; kernels.sweep_range is
 * that pass with both cuts at one floor). Degree bounds go first, then one
 * power iterate on Q + I with a strictly positive x: the Collatz-Wielandt
 * ratio max_i (Mx)_i / x_i bounds the top eigenvalue from above, the
 * Rayleigh quotient from below.
 *
 * classify takes edge bitmasks to name its range, and degree_skips, which
 * runs classify's degree filter for the prefilter spot check, a list of
 * them: bit b is the pair (i, j), i < j, in the order (0,1), (0,2), (1,2),
 * ... (graphs.index_pairs), so row j of a mask, its bits [C(j,2),
 * C(j+1,2)), holds the edges from j down to 0..j-1. classify visits only
 * the degree-sorted masks, those with d(0) >= d(1) >= ... >= d(n-1) >= 1,
 * by a depth-first search that fixes the rows from n-1 down, and counts
 * each with its weight n! / prod_d m_d!
 * (m_d vertices of degree d): the labeled graphs of its degree multiset
 * that relabelling it onto each arrangement of its degrees gives. Every
 * count a sweep makes is invariant under relabelling, so the weighted counts
 * are those of every mask. The search holds each graph as adjacency rows
 * (vertex bitmasks); every per-graph call takes adjacency rows too, for
 * graphs of up to MAXROWS vertices.
 *
 * classify's pass runs without the GIL, so threads can sweep ranges at once.
 *
 * kernels.py compiles this file on first import.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 11 /* edge bitmasks fit 64 bits up to n = 11; sweeps use n <= 8 */
#define MAXROWS 64 /* adjacency rows fit 64 bits */
#define CW_ITERATIONS 200
#define CUT_MARGIN 1e-9 /* a bound must clear its cut by this much */

static int popcount(uint64_t x) { return __builtin_popcountll(x); }

static int lowest_bit(uint64_t x) { return __builtin_ctzll(x); }

/* The vertex mask of vertices 0..n-1, n <= MAXROWS. */
static uint64_t all_vertices(int n) { return n < 64 ? ((uint64_t)1 << n) - 1 : ~(uint64_t)0; }

/* -1 if the index is certainly below lo_cut, +1 if it is certainly above
 * hi_cut (lo_cut <= hi_cut), 0 if undecided after the cap. Iterates
 * x <- (Q + I) x / |(Q + I) x| from the all-ones vector and stops once the
 * Collatz-Wielandt upper bound or the Rayleigh lower bound clears its cut by
 * CUT_MARGIN. */
static int q_side(int n, const uint64_t *adj, const int *degs, double lo_cut,
                  double hi_cut)
{
    double x[MAXN], y[MAXN], diag[MAXN];
    for (int i = 0; i < n; i++) {
        x[i] = 1.0;
        diag[i] = degs[i] + 1.0; /* Q + I */
    }
    for (int it = 0; it < CW_ITERATIONS; it++) {
        double ub = 0.0, ray = 0.0, xx = 0.0, norm2 = 0.0;
        for (int i = 0; i < n; i++) {
            /* the nonzero entries of row i of Q + I, in ascending column
             * order; a zero entry would add exactly +0.0 */
            y[i] = 0.0;
            for (uint64_t row = adj[i] | (uint64_t)1 << i; row; row &= row - 1) {
                int j = lowest_bit(row);
                if (j == i)
                    y[i] += diag[i] * x[j];
                else
                    y[i] += x[j];
            }
            double ratio = y[i] / x[i];
            if (ratio > ub)
                ub = ratio;
            ray += x[i] * y[i];
            xx += x[i] * x[i];
        }
        if (ub - 1.0 < lo_cut - CUT_MARGIN)
            return -1;
        if (ray / xx - 1.0 > hi_cut + CUT_MARGIN)
            return 1;
        for (int i = 0; i < n; i++)
            norm2 += y[i] * y[i];
        norm2 = sqrt(norm2);
        for (int i = 0; i < n; i++) {
            x[i] = y[i] / norm2;
            /* the bound needs x strictly positive; slow components of
             * disconnected graphs may decay, so floor them (the bound
             * stays valid for any positive vector) */
            if (x[i] < 1e-250)
                x[i] = 1e-250;
        }
    }
    return 0;
}

/* Whether a degree bound puts the index below cut: q <= 2 max degree, and
 * q <= max over edges ij of d(i) + d(j). The degrees need not be sorted. */
static int degree_skip(int n, const uint64_t *adj, const int *degs, double cut)
{
    int top = 0, esum = 0;
    for (int i = 0; i < n; i++)
        if (degs[i] > top)
            top = degs[i];
    if (2.0 * top < cut)
        return 1;
    for (int i = 0; i < n; i++) /* each edge once, from its lower end */
        for (uint64_t up = adj[i] & ~(((uint64_t)2 << i) - 1); up; up &= up - 1) {
            int d = degs[i] + degs[lowest_bit(up)];
            if (d > esum)
                esum = d;
        }
    return esum < cut;
}

/* -- argument checks --------------------------------------------------------
 * One rule reads every int argument, parse_int: an int in [lo, hi], else
 * ValueError, and TypeError for anything that is not an int. A sweep's n
 * lies in [1, MAXN], its lo in [0, 2^C(n,2)] and its hi in [lo, 2^C(n,2)],
 * a listed mask in [0, 2^C(n,2)), a vertex in [0, n), a chord count is
 * at least 1, a random graph's order lies in [0, MAXROWS], an edge slot in
 * [0, C(n,2)), a sampled range's n in [0, C(MAXROWS,2)] and its k in
 * [0, n], and a claim cap is at least 0. Rows are those of a simple
 * graph, and cuts are numbers, not NaN. The messages are those of
 * _sweep_py. */

/* An int in [lo, hi] into *out, else ValueError (TypeError for an argument
 * that is not an int). With saturate, an int above hi reads as hi: a chord
 * count too large for a long exceeds every graph's chords. */
static int parse_int(PyObject *arg, const char *what, long long lo, long long hi,
                     int saturate, long long *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(arg, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow) /* wider than a long long: as far out as one goes */
        v = overflow < 0 ? LLONG_MIN : LLONG_MAX;
    if (saturate && v > hi)
        v = hi;
    if (v < lo || v > hi) {
        if (saturate)
            PyErr_Format(PyExc_ValueError, "need %s >= %lld, got %R", what, lo, arg);
        else
            PyErr_Format(PyExc_ValueError, "need %s in [%lld, %lld], got %R", what, lo,
                         hi, arg);
        return -1;
    }
    *out = v;
    return 0;
}

static long long mask_count(int n) { return 1LL << (n * (n - 1) / 2); }

/* The n, lo and hi of a sweep over [lo, hi). */
static int parse_range(PyObject *const *args, int *n, uint64_t *lo, uint64_t *hi)
{
    long long v[3];
    if (parse_int(args[0], "n", 1, MAXN, 0, &v[0]) ||
        parse_int(args[1], "lo", 0, mask_count((int)v[0]), 0, &v[1]) ||
        parse_int(args[2], "hi", v[1], mask_count((int)v[0]), 0, &v[2]))
        return -1;
    *n = (int)v[0];
    *lo = (uint64_t)v[1];
    *hi = (uint64_t)v[2];
    return 0;
}

/* A Python float (or int) into *out. */
static int parse_double(PyObject *arg, double *out)
{
    *out = PyFloat_AsDouble(arg);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* The cuts lo_arg <= hi_arg as doubles; ValueError when they are out of
 * order or either is NaN. */
static int parse_cuts(PyObject *lo_arg, PyObject *hi_arg, double *lo_cut, double *hi_cut)
{
    if (parse_double(lo_arg, lo_cut) || parse_double(hi_arg, hi_cut))
        return -1;
    if (*lo_cut <= *hi_cut)
        return 0;
    PyErr_Format(PyExc_ValueError, "need lo_cut <= hi_cut, got %R > %R", lo_arg, hi_arg);
    return -1;
}

/* TypeError for an arg that is not a list, naming its type by its __name__,
 * as type(arg).__name__ does (a heap type's tp_name may hold a dot). */
static PyObject *not_a_list(const char *what, PyObject *arg)
{
    PyObject *name = PyObject_GetAttrString((PyObject *)Py_TYPE(arg), "__name__");
    if (name != NULL) {
        PyErr_Format(PyExc_TypeError, "%s must be a list, got %S", what, name);
        Py_DECREF(name);
    }
    return NULL;
}

static int check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd positional arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

/* The adjacency rows of a simple graph into rows[0..*n), else ValueError
 * (TypeError for a row that is not an int). */
static int parse_rows(PyObject *arg, uint64_t *rows, int *n)
{
    PyObject *seq = PySequence_Fast(arg, "rows must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t count = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    if (count > MAXROWS) {
        PyErr_Format(PyExc_ValueError, "kernels support up to %d vertices, got %zd",
                     MAXROWS, count);
        goto fail;
    }
    for (Py_ssize_t v = 0; v < count; v++) {
        if (!PyLong_Check(items[v])) {
            PyErr_Format(PyExc_TypeError, "row %zd is not an int: %R", v, items[v]);
            goto fail;
        }
        rows[v] = PyLong_AsUnsignedLongLong(items[v]);
        int bad = rows[v] == (uint64_t)-1 && PyErr_Occurred();
        if (bad) /* negative or wider than 64 bits */
            PyErr_Clear();
        if (bad || (count < 64 && rows[v] >> count) || (rows[v] >> v & 1)) {
            PyErr_Format(PyExc_ValueError, "row %zd = %R is not a row of a simple "
                         "graph on %zd vertices", v, items[v], count);
            goto fail;
        }
    }
    Py_DECREF(seq);
    *n = (int)count;
    for (int v = 0; v < *n; v++)
        for (uint64_t nb = rows[v]; nb; nb &= nb - 1)
            if (!(rows[lowest_bit(nb)] >> v & 1)) {
                PyErr_Format(PyExc_ValueError, "rows are not symmetric: %d lists %d",
                             v, lowest_bit(nb));
                return -1;
            }
    return 0;
fail:
    Py_DECREF(seq);
    return -1;
}

/* -- chord configuration tests --------------------------------------------- */

/* Extend the path ending at v (inside G - u, visited as a vertex set) whose
 * interior already holds `hits` neighbors of the apex u (nu = N(u)): succeed
 * once the path closes at a neighbor of u with k interior hits. */
static int apex_rec(const uint64_t *adj, uint64_t nu, int v, uint64_t visited,
                    int hits, long k, int pathlen)
{
    int closes = pathlen >= 2 && (nu >> v & 1);
    if (closes && hits >= k)
        return 1;
    int supply = popcount(nu & ~visited) + (int)(nu >> v & 1);
    if (hits + supply < k + 1)
        return 0;
    int nhits = hits + closes;
    for (uint64_t cand = adj[v] & ~visited; cand; cand &= cand - 1) {
        uint64_t low = cand & (~cand + 1);
        if (apex_rec(adj, nu, lowest_bit(low), visited | low, nhits, k, pathlen + 1))
            return 1;
    }
    return 0;
}

/* Whether some cycle has k chords at a common vertex. */
static int has_apex(int n, const uint64_t *adj, long k)
{
    if (k > n - 3)
        return 0;
    for (int u = 0; u < n; u++) {
        uint64_t nu = adj[u];
        if (popcount(nu) < k + 2)
            continue;
        for (uint64_t cand = nu; cand; cand &= cand - 1) {
            uint64_t low = cand & (~cand + 1);
            if (apex_rec(adj, nu, lowest_bit(low), low | (uint64_t)1 << u, 0, k, 1))
                return 1;
        }
    }
    return 0;
}

/* Cycles rooted at their least vertex `root`, entered at `second` and
 * counted once (second < the closing vertex); m is the path's vertex count.
 * Succeed once a closed cycle's vertex set carries min_chords surplus edges. */
static int cycle_rec(const uint64_t *adj, int root, int second, int v,
                     uint64_t visited, int m, uint64_t allowed, long min_chords)
{
    if (m >= 3 && (adj[v] >> root & 1) && second < v) {
        int e = 0;
        for (uint64_t t = visited; t; t &= t - 1)
            e += popcount(adj[lowest_bit(t)] & visited);
        if (e / 2 - m >= min_chords)
            return 1;
    }
    for (uint64_t cand = adj[v] & allowed & ~visited; cand; cand &= cand - 1) {
        uint64_t low = cand & (~cand + 1);
        int w = lowest_bit(low);
        if (cycle_rec(adj, root, m == 1 ? w : second, w, visited | low, m + 1,
                      allowed, min_chords))
            return 1;
    }
    return 0;
}

/* Whether some cycle carries at least min_chords chords. Three chords at one
 * vertex are three chords on one cycle, and the apex search is the faster of
 * the two, so it goes first when min_chords <= 3. */
static int has_chorded(int n, const uint64_t *adj, long min_chords)
{
    if (min_chords <= 3 && has_apex(n, adj, 3))
        return 1;
    for (int root = 0; root < n; root++) {
        uint64_t allowed = all_vertices(n) & ~(((uint64_t)2 << root) - 1);
        if (cycle_rec(adj, root, -1, root, (uint64_t)1 << root, 1, allowed, min_chords))
            return 1;
    }
    return 0;
}

typedef int (*detector)(int n, const uint64_t *adj, long k);

/* detector(rows, k) for one graph, as a Python bool. */
static PyObject *detect(const char *name, const char *what, detector test,
                        PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    uint64_t adj[MAXROWS];
    long long k;
    if (check_nargs(name, nargs, 2) || parse_rows(args[0], adj, &n) ||
        parse_int(args[1], what, 1, LONG_MAX, 1, &k))
        return NULL;
    return PyBool_FromLong(test(n, adj, (long)k));
}

static PyObject *apex_has_config(PyObject *self, PyObject *const *args,
                                 Py_ssize_t nargs)
{
    return detect("apex_has_config", "k", has_apex, args, nargs);
}

static PyObject *chorded_has(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return detect("chorded_has", "min_chords", has_chorded, args, nargs);
}

/* -- longest cycle and longest path ------------------------------------------
 * The searches of chords.longest_cycle and chords.max_path_order on a graph
 * given by its adjacency rows (vertex bitmasks, up to MAXROWS vertices), in
 * the same order and with the same prune: components by least vertex, roots
 * and neighbours ascending, and a branch stops once its path plus the
 * unvisited vertices it may still take cannot beat the best so far. */

/* The vertex masks of the connected components of the subgraph induced on
 * the vertex mask left, ordered by least vertex; returns their number. */
static int components(const uint64_t *adj, uint64_t left, uint64_t *comps)
{
    int count = 0;
    while (left) {
        uint64_t comp = left & (~left + 1), frontier = comp;
        while (frontier) {
            uint64_t next = 0;
            for (; frontier; frontier &= frontier - 1)
                next |= adj[lowest_bit(frontier)];
            frontier = next & left & ~comp;
            comp |= frontier;
        }
        comps[count++] = comp;
        left &= ~comp;
    }
    return count;
}

/* component_count(rows): the number of connected components. */
static PyObject *component_count(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t adj[MAXROWS], comps[MAXROWS];
    int n;
    if (check_nargs("component_count", nargs, 1) || parse_rows(args[0], adj, &n))
        return NULL;
    return PyLong_FromLong(components(adj, all_vertices(n), comps));
}

/* eta_check(rows): (violated, num, den), the one eta rule of
 * spectral._eta_counts and _largest_eta (_sweep_py.eta_check). With d = d(v),
 * S the sum of v's neighbour degrees and 2 e(N(v)) twice the edges among
 * them, eta(v) = (d^2 + S) / d; violated is whether n d + 2 e(N(v)) <
 * d^2 + S at some v, where the counting form eta(v) <= n + 2 e(N(v)) / d
 * fails, and num / den = (d^2 + S) / d is the largest eta over the
 * vertices with d > 0, the first of the largest by cross-multiplication,
 * (0, 0) when there is none. */
static PyObject *eta_check(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t adj[MAXROWS];
    int n, violated = 0;
    long long best_num = 0, best_den = 0;
    if (check_nargs("eta_check", nargs, 1) || parse_rows(args[0], adj, &n))
        return NULL;
    for (int v = 0; v < n; v++) {
        long long d = popcount(adj[v]), degree_sum = 0, twice_inner = 0;
        for (uint64_t nb = adj[v]; nb; nb &= nb - 1) {
            degree_sum += popcount(adj[lowest_bit(nb)]);
            twice_inner += popcount(adj[lowest_bit(nb)] & adj[v]);
        }
        long long num = d * d + degree_sum;
        violated |= n * d + twice_inner < num;
        if (d && (!best_den || num * best_den > best_num * d)) {
            best_num = num;
            best_den = d;
        }
    }
    return Py_BuildValue("(NLL)", PyBool_FromLong(violated), best_num, best_den);
}

typedef struct {
    const uint64_t *adj;
    int root, len, best_len; /* best_len 0: no cycle yet */
    int path[MAXROWS], best[MAXROWS];
} cycle_search;

/* Extend path[0..len) ending at v; left: the component's vertices above
 * the root off the path. A closed cycle is counted once, toward the smaller
 * of the root's two cycle neighbours (path[1] < v). The two recursive
 * searches are not inlined: gcc -O3 unrolls them into themselves, which
 * gains nothing measurable here and raises the compiler's peak memory on
 * the first import by about 2 MB. */
__attribute__((noinline)) static void longest_cycle_rec(cycle_search *s, int v, uint64_t left)
{
    if (s->len >= 3 && (s->adj[v] >> s->root & 1) && s->path[1] < v &&
        s->len > s->best_len) {
        s->best_len = s->len;
        memcpy(s->best, s->path, sizeof(int) * s->len);
    }
    int reach = s->len + popcount(left);
    for (uint64_t step = s->adj[v] & left; step && reach > s->best_len;
         step &= step - 1) {
        uint64_t low = step & (~step + 1);
        s->path[s->len++] = lowest_bit(low);
        longest_cycle_rec(s, lowest_bit(low), left ^ low);
        s->len--;
    }
}

static PyObject *longest_cycle(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    uint64_t adj[MAXROWS], comps[MAXROWS];
    int n;
    if (check_nargs("longest_cycle", nargs, 1) || parse_rows(args[0], adj, &n))
        return NULL;
    cycle_search s = {.adj = adj};
    int ncomps = components(adj, all_vertices(n), comps);
    for (int c = 0; c < ncomps; c++) {
        if (popcount(comps[c]) < 3)
            continue;
        for (uint64_t roots = comps[c]; roots; roots &= roots - 1) {
            s.root = lowest_bit(roots);
            s.path[0] = s.root;
            s.len = 1;
            /* the component's vertices above the root */
            longest_cycle_rec(&s, s.root, comps[c] & ~(((uint64_t)2 << s.root) - 1));
        }
    }
    if (s.best_len == 0)
        Py_RETURN_NONE;
    PyObject *cycle = PyTuple_New(s.best_len);
    if (cycle == NULL)
        return NULL;
    for (int i = 0; i < s.best_len; i++) {
        PyObject *v = PyLong_FromLong(s.best[i]);
        if (v == NULL) {
            Py_DECREF(cycle);
            return NULL;
        }
        PyTuple_SET_ITEM(cycle, i, v);
    }
    return Py_BuildValue("(iN)", s.best_len, cycle);
}

/* Extend a path of `len` vertices ending at v; left: the component's
 * vertices off the path. */
__attribute__((noinline)) static void longest_path_rec(const uint64_t *adj, int v, uint64_t left, int len,
                             int *best)
{
    if (len > *best)
        *best = len;
    int reach = len + popcount(left);
    for (uint64_t step = adj[v] & left; step && reach > *best; step &= step - 1) {
        uint64_t low = step & (~step + 1);
        longest_path_rec(adj, lowest_bit(low), left ^ low, len + 1, best);
    }
}

static PyObject *max_path_order(PyObject *self, PyObject *const *args,
                                Py_ssize_t nargs)
{
    uint64_t adj[MAXROWS], comps[MAXROWS];
    int n;
    if (check_nargs("max_path_order", nargs, 1) || parse_rows(args[0], adj, &n))
        return NULL;
    if (n == 0)
        return PyErr_Format(PyExc_ValueError, "empty graph has no paths");
    int best = 1, ncomps = components(adj, all_vertices(n), comps);
    for (int c = 0; c < ncomps; c++)
        for (uint64_t starts = comps[c]; starts; starts &= starts - 1) {
            int start = lowest_bit(starts);
            longest_path_rec(adj, start, comps[c] & ~((uint64_t)1 << start), 1, &best);
        }
    return PyLong_FromLong(best);
}

/* -- Perron entry order -----------------------------------------------------
 * The sign of x_u - x_v for the Perron vector x of Q(G), certified from the
 * top pair of a cyclic Jacobi eigensolve by the rule of
 * _sweep_py._certified_order, which states the Davis-Kahan argument. Only
 * the bound on the second eigenvalue differs: there it is eigh's second
 * value, here the second largest diagonal entry theta_2 of the rotated
 * matrix plus the Frobenius norm omega of its off-diagonal part (Weyl: each
 * eigenvalue lies within omega of the sorted diagonal). That bound holds
 * after every sweep, not only at convergence, so the rule may certify the
 * sign after any sweep, and the sweeps left are skipped. The rotations are
 * backward stable, so the rounding they add is within the rule's slack. */

#define PERRON_MAXN 16 /* perron_order decides on graphs of at most this order */
#define PERRON_MARGIN 1e-9 /* a Perron entry order must clear its bound by this */
#define JACOBI_SWEEPS 30

/* The three functions below are built at -O2, not at the -O3 of the rest:
 * at -O3 gcc 12 unrolls and vectorises their loops, which raises the
 * compiler's peak memory on the first import from 52 to 59 MB (53 MB at
 * -O2) and gains about a tenth of perron_order's own time, about a
 * microsecond a call. */
#define PERRON_OPT __attribute__((noinline, optimize("O2")))

/* (x, y) <- (c x - s y, s x + c y) on n entries spaced stride apart. */
PERRON_OPT static void rotate(int n, double *x, double *y, int stride, double c, double s)
{
    for (int k = 0; k < n * stride; k += stride) {
        double xk = x[k], yk = y[k];
        x[k] = c * xk - s * yk;
        y[k] = s * xk + c * yk;
    }
}

/* The rule of _sweep_py._certified_order on the Jacobi state: y is the
 * column of the accumulated rotations vec at the largest diagonal entry of
 * the rotated matrix a, and lambda_2 <= theta2 + omega, with omega^2 = off2
 * the squared Frobenius norm of a's off-diagonal part. Weyl's bound holds at
 * every sweep, so the rule is sound on the state of any sweep. */
PERRON_OPT static int perron_certify(int n, const uint64_t *adj, const int *degs,
                                     double qnorm2, double (*a)[PERRON_MAXN],
                                     double (*vec)[PERRON_MAXN], double off2, int u, int v)
{
    double y[PERRON_MAXN];
    int top = 0;
    for (int i = 1; i < n; i++)
        if (a[i][i] > a[top][top])
            top = i;
    double theta2 = -INFINITY, yy = 0.0, sum = 0.0;
    for (int i = 0; i < n; i++) {
        if (i != top && a[i][i] > theta2)
            theta2 = a[i][i];
        y[i] = vec[i][top];
        yy += y[i] * y[i];
        sum += y[i];
    }
    double slack = 1e-12 * (1.0 + sqrt(qnorm2)), scale = (sum < 0 ? -1.0 : 1.0) / sqrt(yy);
    double qy[PERRON_MAXN], rho = 0.0, rr = 0.0;
    for (int i = 0; i < n; i++)
        y[i] *= scale;
    for (int i = 0; i < n; i++) {
        qy[i] = degs[i] * y[i];
        for (uint64_t row = adj[i]; row; row &= row - 1)
            qy[i] += y[lowest_bit(row)];
        rho += y[i] * qy[i];
    }
    for (int i = 0; i < n; i++)
        rr += (qy[i] - rho * y[i]) * (qy[i] - rho * y[i]);
    double delta = rho - (theta2 + sqrt(off2) + slack);
    if (!(delta > 0))
        return 0;
    double eta = sqrt(2.0) * (sqrt(rr) + slack) / delta;
    if (!(eta * sqrt((double)n) < 1))
        return 0;
    double d = y[u] - y[v];
    if (!(fabs(d) > 2 * eta + PERRON_MARGIN))
        return 0;
    return d > 0 ? 1 : -1;
}

/* The certified sign of x_u - x_v (0 on doubt) for a connected graph of
 * n <= PERRON_MAXN vertices. Cyclic Jacobi on Q rotates each nonzero
 * off-diagonal entry to zero (Golub and Van Loan, Matrix Computations,
 * sec. 8.5) and tries perron_certify after every sweep: the first sign it
 * certifies is returned, on the Perron shift's pairs most often after two
 * or three sweeps (convergence takes five or six). Otherwise the sweeps
 * run until the off-diagonal part is below 1e-13 |Q|_F or JACOBI_SWEEPS
 * have run, and the certificate is tried once more on that state. */
PERRON_OPT static int perron_sign(int n, const uint64_t *adj, int u, int v)
{
    double a[PERRON_MAXN][PERRON_MAXN], vec[PERRON_MAXN][PERRON_MAXN];
    double qnorm2 = 0.0, off2;
    int degs[PERRON_MAXN];
    for (int i = 0; i < n; i++) {
        degs[i] = popcount(adj[i]);
        qnorm2 += (double)degs[i] * degs[i] + degs[i];
        for (int j = 0; j < n; j++) {
            a[i][j] = i == j ? degs[i] : (double)(adj[i] >> j & 1);
            vec[i][j] = i == j;
        }
    }
    for (int sweep = 0;; sweep++) {
        off2 = 0.0;
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
                if (i != j)
                    off2 += a[i][j] * a[i][j];
        if (off2 <= 1e-26 * qnorm2 || sweep == JACOBI_SWEEPS)
            break;
        /* before the first sweep y is a unit vector, which never certifies */
        int sign = sweep ? perron_certify(n, adj, degs, qnorm2, a, vec, off2, u, v) : 0;
        if (sign)
            return sign;
        for (int p = 0; p < n - 1; p++)
            for (int r = p + 1; r < n; r++) {
                if (a[p][r] == 0.0)
                    continue;
                double tau = (a[r][r] - a[p][p]) / (2.0 * a[p][r]);
                double t = (tau >= 0 ? 1.0 : -1.0) / (fabs(tau) + sqrt(1.0 + tau * tau));
                double c = 1.0 / sqrt(1.0 + t * t), s = t * c;
                rotate(n, &a[0][p], &a[0][r], PERRON_MAXN, c, s); /* a <- a J */
                rotate(n, &vec[0][p], &vec[0][r], PERRON_MAXN, c, s); /* vec <- vec J */
                rotate(n, a[p], a[r], 1, c, s); /* a <- J' a */
                a[p][r] = a[r][p] = 0.0;
            }
    }
    return perron_certify(n, adj, degs, qnorm2, a, vec, off2, u, v);
}

static PyObject *perron_order(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t adj[MAXROWS], comps[MAXROWS];
    int n;
    long long u, v;
    if (check_nargs("perron_order", nargs, 3) || parse_rows(args[0], adj, &n) ||
        parse_int(args[1], "u", 0, n - 1, 0, &u) || parse_int(args[2], "v", 0, n - 1, 0, &v))
        return NULL;
    if (u == v)
        return PyErr_Format(PyExc_ValueError, "need u != v, got %lld twice", u);
    if (n > PERRON_MAXN || components(adj, all_vertices(n), comps) > 1)
        return PyLong_FromLong(0);
    return PyLong_FromLong(perron_sign(n, adj, (int)u, (int)v));
}

/* -- float index --------------------------------------------------------------
 * The index q, the largest eigenvalue of Q = A + D, of each graph of a list,
 * from its adjacency rows. Householder reflections reduce Q to a symmetric
 * tridiagonal T (Golub and Van Loan, Matrix Computations, sec. 8.3.1), a
 * backward stable reduction: T is exactly similar to Q + E with |E| a small
 * multiple of n eps |Q|. T's top eigenvalue is then bracketed between the
 * degree bounds Delta + 1 <= q <= 2 Delta (Delta the largest degree; q = 0
 * without an edge) by Sturm counts: the number of T's eigenvalues below x is
 * the number of negative pivots of T - xI = LDL' (Sylvester's inertia), by
 * the recurrence of Barth, Martin and Wilkinson (Numer. Math. 9, 1967) in
 * ratio form, a pivot below pivmin in size taken as -pivmin, as LAPACK's
 * dstebz does. Each count is exact for a tridiagonal matrix within a few
 * ulps of T entrywise, so the value is eigvalsh's to rounding. The two
 * solver functions are not inlined, like the recursive searches above,
 * which keeps about 0.3 MB off the compiler's peak memory on the first
 * import. */

/* Reduce the symmetric n x n matrix a, n >= 2, row-major with stride n, of
 * which only the lower triangle is read and updated, to T: diagonal
 * d[0..n), off-diagonal e[0..n-1). Step k reflects column k below the
 * diagonal onto e[k] times the first unit vector with H = I - tau v v'
 * (LAPACK's dlarfg) and applies H to the trailing block A22 as a rank-two
 * update, A22 - v w' - w v' with p = tau A22 v and w = p - (tau / 2) (p'v) v
 * (dsytd2). */
__attribute__((noinline)) static void tridiagonalize(int n, double *a, double *d, double *e)
{
    double v[MAXROWS], p[MAXROWS];
    for (int k = 0; k < n - 2; k++) {
        double alpha = a[(k + 1) * n + k], sigma = 0.0;
        for (int i = k + 2; i < n; i++)
            sigma += a[i * n + k] * a[i * n + k];
        d[k] = a[k * n + k];
        e[k] = alpha;
        if (sigma == 0.0) /* the column is reduced already */
            continue;
        double mu = sqrt(alpha * alpha + sigma), beta = alpha > 0 ? -mu : mu;
        double tau = (beta - alpha) / beta, scale = 1.0 / (alpha - beta), pv = 0.0;
        e[k] = beta;
        v[k + 1] = 1.0;
        for (int i = k + 2; i < n; i++)
            v[i] = a[i * n + k] * scale;
        for (int i = k + 1; i < n; i++)
            p[i] = 0.0;
        for (int i = k + 1; i < n; i++) { /* p = A22 v, one pass over the lower triangle */
            const double *row = a + i * n;
            double s = row[i] * v[i];
            for (int j = k + 1; j < i; j++) {
                s += row[j] * v[j];
                p[j] += row[j] * v[i];
            }
            p[i] += s;
        }
        for (int i = k + 1; i < n; i++) {
            p[i] *= tau;
            pv += p[i] * v[i];
        }
        for (int i = k + 1; i < n; i++) /* p becomes w */
            p[i] -= 0.5 * tau * pv * v[i];
        for (int i = k + 1; i < n; i++) {
            double *row = a + i * n;
            for (int j = k + 1; j <= i; j++)
                row[j] -= v[i] * p[j] + p[i] * v[j];
        }
    }
    d[n - 2] = a[(n - 2) * n + n - 2];
    d[n - 1] = a[(n - 1) * n + n - 1];
    e[n - 2] = a[(n - 1) * n + n - 2];
}

/* The number of eigenvalues below x of the tridiagonal matrix with diagonal
 * d[0..n) and squared off-diagonal e2[0..n-1), and in *dx the Newton
 * correction f / f' of f(x) = det(T - xI), the product of the pivots p_i:
 * f' / f is the sum of p_i' / p_i, with p_0' = -1 and p_i' = -1 +
 * e2[i-1] p_(i-1)' / p_(i-1)^2. */
static int eigenvalues_below(int n, const double *d, const double *e2, double pivmin,
                             double x, double *dx)
{
    double pivot = d[0] - x;
    pivot = fabs(pivot) < pivmin ? -pivmin : pivot;
    double ratio = -1.0 / pivot, sum = ratio; /* p_i' / p_i */
    int count = pivot < 0.0;
    for (int i = 1; i < n; i++) {
        double r = e2[i - 1] / pivot;
        pivot = d[i] - x - r;
        pivot = fabs(pivot) < pivmin ? -pivmin : pivot;
        count += pivot < 0.0;
        ratio = (r * ratio - 1.0) / pivot;
        sum += ratio;
    }
    /* a pivot within rounding of 0 can make the sum NaN (inf - inf): read
     * as no correction, whose confirming count costs one step at worst */
    *dx = isnan(sum) ? 0.0 : 1.0 / sum;
    return count;
}

#define NEWTON_COUNTS 60 /* Sturm counts that may take a Newton step */

/* The index of the connected graph on the vertex mask comp, of largest
 * degree top, that is not a star: the stars are the graphs at the lower
 * degree bound Delta + 1, so here it is strict, and comp has at least three
 * vertices. Q is shifted by -Delta, which is exact and halves its norm and
 * with it the rounding of the reduction, so that the top eigenvalue of the
 * tridiagonal form lies in (1, Delta], and is simple (Perron and
 * Frobenius). The bracket [lo, hi] shrinks by one Sturm count a step, at a
 * point chosen as rtsafe chooses it (Numerical Recipes, sec. 9.4): the
 * Newton step from hi, which stays above a simple top root and
 * converges to it quadratically, when it lands inside the bracket and is
 * under half the step before; else the midpoint. A Newton step under tol,
 * about an ulp of the index, is lengthened by tol to land below the root;
 * a Newton step that overshoots by rounding is followed by a point tol
 * above it. Once the bracket is 2 tol wide, the Newton estimate from hi
 * is returned when it lies in the bracket, else the midpoint. A component
 * takes 9.8 counts on average on the atlas (at most 17) and 13.1 on random
 * graphs of up to 64 vertices (at most 26, on a path); after NEWTON_COUNTS
 * only bisection runs, which bounds every component's counts. */
__attribute__((noinline)) static double connected_index(const uint64_t *adj, uint64_t comp,
                                                        int top)
{
    double a[MAXROWS * MAXROWS], d[MAXROWS], e[MAXROWS];
    int vs[MAXROWS], m = 0;
    for (uint64_t left = comp; left; left &= left - 1)
        vs[m++] = lowest_bit(left);
    for (int i = 0; i < m; i++) {
        for (int j = 0; j < i; j++)
            a[i * m + j] = (double)(adj[vs[i]] >> vs[j] & 1);
        a[i * m + i] = popcount(adj[vs[i]]) - top;
    }
    tridiagonalize(m, a, d, e);
    double pivmin = 1.0;
    for (int i = 0; i < m - 1; i++) {
        e[i] *= e[i];
        if (e[i] > pivmin)
            pivmin = e[i];
    }
    pivmin *= DBL_MIN; /* LAPACK's dstebz: the safe minimum times the largest e^2 */
    double tol = 2.0 * DBL_EPSILON * top, lo = 1.0, hi = top, x = hi, step = hi - lo, dx;
    double root = NAN; /* the Newton estimate from hi */
    for (int newton = 0, counts = 1;; counts++) {
        int above = eigenvalues_below(m, d, e, pivmin, x, &dx) == m;
        if (above)
            hi = x, root = x - dx;
        else
            lo = x;
        if (hi - lo <= 2.0 * tol)
            return (root >= lo && root <= hi ? root : 0.5 * (lo + hi)) + top;
        double next = x - dx - (fabs(dx) < tol ? tol : 0.0);
        if (above && counts < NEWTON_COUNTS && next > lo && next < hi &&
            fabs(dx) < 0.5 * step)
            newton = 1;
        else if (!above && newton)
            next = x + tol, newton = 0;
        else
            next = 0.5 * (lo + hi), newton = 0;
        step = fabs(next - x);
        x = next;
    }
}

/* The index of the graph with the rows adj[0..n): the largest of its
 * components' indices. With Delta the largest degree, q >= Delta + 1 on a
 * graph with an edge. A component of m vertices and largest degree Delta_c
 * has its index in [Delta_c + 1, 2 Delta_c], computed values included, and
 * at Delta_c + 1 = m when it is a star (m - 1 edges at one vertex), so only
 * the components with 2 Delta_c > Delta + 1 that are not stars are solved. */
static double graph_index(int n, const uint64_t *adj)
{
    uint64_t comps[MAXROWS];
    int top = 0, count = components(adj, all_vertices(n), comps);
    for (int v = 0; v < n; v++)
        top = popcount(adj[v]) > top ? popcount(adj[v]) : top;
    double q = top ? top + 1.0 : 0.0;
    for (int c = 0; c < count; c++) {
        int comp_top = 0, twice_edges = 0, m = popcount(comps[c]);
        for (uint64_t left = comps[c]; left; left &= left - 1) {
            int deg = popcount(adj[lowest_bit(left)]);
            twice_edges += deg;
            comp_top = deg > comp_top ? deg : comp_top;
        }
        if (2 * comp_top > top + 1 && !(comp_top == m - 1 && twice_edges == 2 * comp_top))
            q = fmax(q, connected_index(adj, comps[c], comp_top));
    }
    return q;
}

/* q_indices(rows_list): the index of each graph, a list of floats in input
 * order. rows_list is copied into a tuple first, so that Python code run by
 * reading one graph's rows cannot change the list under the loop; each
 * graph's rows go through parse_rows and need at least one vertex. */
static PyObject *q_indices(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_nargs("q_indices", nargs, 1))
        return NULL;
    PyObject *seq = PySequence_Fast(args[0], "rows_list must be a sequence");
    PyObject *graphs = seq ? PySequence_Tuple(seq) : NULL;
    Py_XDECREF(seq);
    if (graphs == NULL)
        return NULL;
    Py_ssize_t count = PyTuple_GET_SIZE(graphs);
    PyObject *out = PyList_New(count);
    for (Py_ssize_t t = 0; out != NULL && t < count; t++) {
        uint64_t adj[MAXROWS];
        int n;
        PyObject *q = NULL;
        if (parse_rows(PyTuple_GET_ITEM(graphs, t), adj, &n) == 0) {
            if (n == 0)
                PyErr_Format(PyExc_ValueError, "graph %zd has no vertices", t);
            else
                q = PyFloat_FromDouble(graph_index(n, adj));
        }
        if (q == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, t, q);
    }
    Py_DECREF(graphs);
    return out;
}

/* -- sorted sweep and classification --------------------------------------- */

static const long long factorial[MAXN + 1] = {
    1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800, 39916800,
};

/* One classify pass: its range, cuts and test, the weighted counts so far,
 * the leftover masks (a malloc'd buffer of cap masks, len used, that the
 * caller frees) and the graph the search holds: the rows and degrees of the
 * vertices placed so far, and the partial degrees of the others. */
typedef struct {
    int n;
    uint64_t lo, hi;
    double lo_cut, hi_cut;
    detector test;
    long k;
    long long no_isolated, hits;
    uint64_t *rest;
    size_t len, cap;
    uint64_t adj[MAXN];
    int degs[MAXN];
} sorted_sweep;

/* n! / prod_d m_d! for the sorted degrees degs[0..n), m_d the length of the
 * run of degree d: the number of arrangements of these degrees over the
 * vertices. Each intermediate quotient is an integer. */
static long long arrangements(int n, const int *degs)
{
    long long weight = factorial[n];
    int start = 0;
    for (int i = 1; i <= n; i++)
        if (i == n || degs[i] != degs[start]) {
            weight /= factorial[i - start];
            start = i;
        }
    return weight;
}

/* The sorted graph of mask, held in s: counted with its weight in
 * s->no_isolated; dropped when its degree bounds or power iterate put its
 * index below lo_cut; counted with its weight in s->hits when it is above
 * hi_cut and passes the test; else appended to s->rest. Returns 0, or -1
 * when the buffer cannot grow. */
static int classify_leaf(sorted_sweep *s, uint64_t mask)
{
    int n = s->n;
    const uint64_t *adj = s->adj;
    const int *degs = s->degs;
    long long weight = arrangements(n, degs);
    s->no_isolated += weight;
    if (degree_skip(n, adj, degs, s->lo_cut))
        return 0;
    int side = q_side(n, adj, degs, s->lo_cut, s->hi_cut);
    if (side < 0)
        return 0;
    if (side > 0 && s->test != NULL && s->test(n, adj, s->k)) {
        s->hits += weight;
        return 0;
    }
    if (s->len == s->cap) {
        s->cap = s->cap ? 2 * s->cap : 1024;
        uint64_t *grown = realloc(s->rest, s->cap * sizeof *s->rest);
        if (grown == NULL)
            return -1;
        s->rest = grown;
    }
    s->rest[s->len++] = mask;
    return 0;
}

/* Place row j under rows j+1..n-1, whose bits are prefix: try each value r
 * of the row, ascending, whose subtree [prefix + r 2^C(j,2), + 2^C(j,2))
 * meets [lo, hi). Once the row is set d(j) is final: r is pruned when d(j)
 * is below d(j + 1) (below 1 for j = n - 1), or when some vertex i < j can
 * no longer reach d(j), as it gains at most j - 1 more edges, one from each
 * other vertex below j. Below row 0 the mask is complete. Leaves come in
 * ascending mask order. Returns 0, or -1 when the buffer cannot grow. */
static int place_row(sorted_sweep *s, int j, uint64_t prefix)
{
    int shift = j * (j - 1) / 2, more = j - 1;
    uint64_t r = s->lo > prefix ? (s->lo - prefix) >> shift : 0;
    uint64_t end = ((s->hi - prefix - 1) >> shift) + 1;
    if (end > (uint64_t)1 << j)
        end = (uint64_t)1 << j;
    int partial = s->degs[j], floor = j + 1 < s->n ? s->degs[j + 1] : 1;
    for (; r < end; r++) {
        int d = partial + popcount(r), reach = d >= floor;
        for (int i = 0; i < j && reach; i++)
            reach = s->degs[i] + (int)(r >> i & 1) + more >= d;
        if (!reach)
            continue;
        s->adj[j] ^= r;
        s->degs[j] = d;
        for (uint64_t b = r; b; b &= b - 1) {
            s->adj[lowest_bit(b)] ^= (uint64_t)1 << j;
            s->degs[lowest_bit(b)]++;
        }
        uint64_t base = prefix | r << shift;
        int failed = j == 0 ? classify_leaf(s, base) : place_row(s, j - 1, base);
        for (uint64_t b = r; b; b &= b - 1) {
            s->adj[lowest_bit(b)] ^= (uint64_t)1 << j;
            s->degs[lowest_bit(b)]--;
        }
        s->adj[j] ^= r;
        if (failed)
            return -1;
    }
    s->degs[j] = partial;
    return 0;
}

static PyObject *classify(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    sorted_sweep s = {0};
    if (check_nargs("classify", nargs, 6) || parse_range(args, &s.n, &s.lo, &s.hi) ||
        parse_cuts(args[3], args[4], &s.lo_cut, &s.hi_cut))
        return NULL;
    PyObject *test = args[5];
    if (test != Py_None) {
        long long k;
        if (!PyTuple_Check(test) || PyTuple_GET_SIZE(test) != 2 ||
            !PyUnicode_Check(PyTuple_GET_ITEM(test, 0)))
            return PyErr_Format(PyExc_TypeError,
                                "test must be a (name, k) tuple or None, got %R", test);
        PyObject *name = PyTuple_GET_ITEM(test, 0);
        if (parse_int(PyTuple_GET_ITEM(test, 1), "k", 1, LONG_MAX, 1, &k))
            return NULL;
        s.k = (long)k;
        if (PyUnicode_CompareWithASCIIString(name, "apex_has_config") == 0)
            s.test = has_apex;
        else if (PyUnicode_CompareWithASCIIString(name, "chorded_has") == 0)
            s.test = has_chorded;
        else
            return PyErr_Format(PyExc_ValueError, "no kernel test %R", test);
    }
    /* the pass touches no Python object and no mutable static, so it runs
     * without the GIL and concurrently */
    int failed = 0;
    Py_BEGIN_ALLOW_THREADS
    if (s.lo < s.hi)
        failed = place_row(&s, s.n - 1, 0);
    Py_END_ALLOW_THREADS
    PyObject *rest = failed ? PyErr_NoMemory() : PyList_New((Py_ssize_t)s.len);
    for (size_t i = 0; rest != NULL && i < s.len; i++) {
        PyObject *m = PyLong_FromUnsignedLongLong(s.rest[i]);
        if (m == NULL)
            Py_CLEAR(rest);
        else
            PyList_SET_ITEM(rest, (Py_ssize_t)i, m);
    }
    free(s.rest);
    return rest ? Py_BuildValue("(LLN)", s.no_isolated, s.hits, rest) : NULL;
}

/* -- degree skips of labeled masks ------------------------------------------ */

/* Of the labeled masks, the graphs without isolated vertices that
 * degree_skip drops at cut: how many, and those, in draw order, whose
 * Collatz-Wielandt bound U = max_v (Qd)_v / d_v at the degree vector d
 * reaches L*, the first largest Rayleigh bound d'Qd / d'd among them by
 * float quotient, (Qd)_v = d_v^2 + the sum of v's neighbour degrees. U and
 * L* are compared as fractions, by cross-multiplication. See
 * _sweep_py.degree_skips. */
static PyObject *degree_skips(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n, degs[MAXN];
    uint64_t adj[MAXN];
    double cut, best = 0.0;
    long long best_dqd = 0, best_dd = 1, order, mask;
    if (check_nargs("degree_skips", nargs, 3) || parse_int(args[0], "n", 1, MAXN, 0, &order) ||
        parse_double(args[2], &cut))
        return NULL;
    n = (int)order;
    if (isnan(cut))
        return PyErr_Format(PyExc_ValueError, "cut is NaN");
    if (!PyList_Check(args[1]))
        return not_a_list("masks", args[1]);
    /* ints only: reading one runs no Python code that could change the list */
    Py_ssize_t count = PyList_GET_SIZE(args[1]), skipped = 0, candidates = 0;
    typedef struct { uint64_t mask; long long num, den; } skip; /* U = num / den */
    skip *skips = malloc(count ? count * sizeof *skips : 1);
    if (skips == NULL)
        return PyErr_NoMemory();
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *item = PyList_GET_ITEM(args[1], i);
        if (!PyLong_Check(item)) {
            PyErr_Format(PyExc_TypeError, "mask %zd is not an int: %R", i, item);
            goto fail;
        }
        if (parse_int(item, "mask", 0, mask_count(n) - 1, 0, &mask))
            goto fail;
        /* row j of the mask, its bits [C(j,2), C(j+1,2)), holds the edges
         * from j down to 0..j-1 */
        adj[0] = 0;
        for (int j = 1; j < n; j++) {
            uint64_t r = mask >> (j * (j - 1) / 2) & (((uint64_t)1 << j) - 1);
            for (adj[j] = r; r; r &= r - 1)
                adj[lowest_bit(r)] |= (uint64_t)1 << j;
        }
        int isolated = 0;
        for (int v = 0; v < n; v++)
            isolated |= (degs[v] = popcount(adj[v])) == 0;
        if (isolated || !degree_skip(n, adj, degs, cut))
            continue;
        long long dqd = 0, dd = 0, num = 0, den = 1;
        for (int v = 0; v < n; v++) {
            long long qd = (long long)degs[v] * degs[v];
            for (uint64_t nb = adj[v]; nb; nb &= nb - 1)
                qd += degs[lowest_bit(nb)];
            dqd += degs[v] * qd;
            dd += (long long)degs[v] * degs[v];
            if (qd * den > num * degs[v]) {
                num = qd;
                den = degs[v];
            }
        }
        if (skipped == 0 || (double)dqd / dd > best) {
            best = (double)dqd / dd;
            best_dqd = dqd;
            best_dd = dd;
        }
        skips[skipped++] = (skip){mask, num, den};
    }
    for (Py_ssize_t i = 0; i < skipped; i++) /* U >= L*, in place */
        if (skips[i].num * best_dd >= best_dqd * skips[i].den)
            skips[candidates++] = skips[i];
    PyObject *out = PyList_New(candidates);
    for (Py_ssize_t i = 0; out != NULL && i < candidates; i++) {
        PyObject *m = PyLong_FromUnsignedLongLong(skips[i].mask);
        if (m == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, i, m);
    }
    free(skips);
    return out ? Py_BuildValue("(nN)", skipped, out) : NULL;
fail:
    free(skips);
    return NULL;
}

/* -- the property suite's random graphs -------------------------------------- */

/* The rows adj[0..n) as a tuple of ints. */
static PyObject *rows_tuple(int n, const uint64_t *adj)
{
    PyObject *rows = PyTuple_New(n);
    for (int v = 0; rows != NULL && v < n; v++) {
        PyObject *row = PyLong_FromUnsignedLongLong(adj[v]);
        if (row == NULL)
            Py_CLEAR(rows);
        else
            PyTuple_SET_ITEM(rows, v, row);
    }
    return rows;
}

/* slot_rows(n, slots): the rows of the graph on n vertices whose edges are
 * the listed edge slots, a list of ints in [0, C(n,2)) in index_pairs order:
 * slot b is the pair (i, j), i < j, with b = C(j,2) + i. */
static PyObject *slot_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long n, b;
    if (check_nargs("slot_rows", nargs, 2) || parse_int(args[0], "n", 0, MAXROWS, 0, &n))
        return NULL;
    if (!PyList_Check(args[1]))
        return not_a_list("slots", args[1]);
    /* ints only: reading one runs no Python code that could change the list */
    uint64_t adj[MAXROWS] = {0};
    for (Py_ssize_t k = 0; k < PyList_GET_SIZE(args[1]); k++) {
        PyObject *item = PyList_GET_ITEM(args[1], k);
        if (!PyLong_Check(item))
            return PyErr_Format(PyExc_TypeError, "slot %zd is not an int: %R", k, item);
        if (parse_int(item, "slot", 0, n * (n - 1) / 2 - 1, 0, &b))
            return NULL;
        int j = 1;
        while (j * (j + 1) / 2 <= b)
            j++;
        int i = (int)(b - j * (j - 1) / 2);
        adj[i] |= (uint64_t)1 << j;
        adj[j] |= (uint64_t)1 << i;
    }
    return rows_tuple((int)n, adj);
}

#define SAMPLE_MAXN (MAXROWS * (MAXROWS - 1) / 2) /* the edge slots of 64 vertices */

/* A draw from [0, n), n >= 1, by CPython's Random._randbelow_with_getrandbits:
 * getrandbits(n.bit_length()) until the value is below n, into *out.
 * TypeError for a value that is not an int, ValueError for one outside
 * [0, 2^bits); an error getrandbits raises propagates. */
static int randbelow(PyObject *getrandbits, long long n, long long *out)
{
    int bits = 64 - __builtin_clzll((unsigned long long)n);
    PyObject *arg = PyLong_FromLong(bits);
    if (arg == NULL)
        return -1;
    for (;;) {
        PyObject *r = PyObject_CallOneArg(getrandbits, arg);
        if (r == NULL)
            break;
        if (!PyLong_Check(r)) {
            PyErr_Format(PyExc_TypeError, "getrandbits must return an int, got %R", r);
            Py_DECREF(r);
            break;
        }
        int overflow;
        *out = PyLong_AsLongLongAndOverflow(r, &overflow);
        if (overflow || *out < 0 || *out >> bits) {
            PyErr_Format(PyExc_ValueError, "getrandbits(%d) returned a value outside "
                         "[0, 2^%d)", bits, bits);
            Py_DECREF(r);
            break;
        }
        Py_DECREF(r);
        if (*out < n) {
            Py_DECREF(arg);
            return 0;
        }
    }
    Py_DECREF(arg);
    return -1;
}

/* sample_range(getrandbits, n, k): Random.sample(range(n), k) of the
 * generator whose bound getrandbits method this is, n in [0, SAMPLE_MAXN]
 * and k in [0, n], by CPython's algorithm with the same randbelow draws, so
 * the sample and the generator's state afterwards are those of the call
 * (_sweep_py.sample_range). CPython keeps a pool of the n values when n is
 * at most setsize = 21, plus 4^ceil(log_4(3k)) for k > 5, else a set of the
 * values drawn; 3k is never a power of 4, so that ceiling is the least m
 * with 4^m > 3k, found here in integers. */
static PyObject *sample_range(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long n, k, j;
    if (check_nargs("sample_range", nargs, 3))
        return NULL;
    PyObject *getrandbits = args[0];
    if (!PyCallable_Check(getrandbits))
        return PyErr_Format(PyExc_TypeError, "getrandbits must be callable, got %R",
                            getrandbits);
    if (parse_int(args[1], "n", 0, SAMPLE_MAXN, 0, &n) || parse_int(args[2], "k", 0, n, 0, &k))
        return NULL;
    long long setsize = 21, table = 1;
    if (k > 5) {
        while (table <= 3 * k)
            table *= 4;
        setsize += table;
    }
    PyObject *result = PyList_New(k);
    if (result == NULL)
        return NULL;
    int pool[SAMPLE_MAXN];
    uint64_t selected[(SAMPLE_MAXN + 63) / 64] = {0};
    for (int i = 0; i < n; i++)
        pool[i] = i;
    for (long long i = 0; i < k; i++) {
        long long value;
        if (n <= setsize) { /* the pool holds the values not drawn in [0, n - i) */
            if (randbelow(getrandbits, n - i, &j))
                goto fail;
            value = pool[j];
            pool[j] = pool[n - i - 1];
        } else {
            do {
                if (randbelow(getrandbits, n, &j))
                    goto fail;
            } while (selected[j / 64] >> (j % 64) & 1);
            selected[j / 64] |= (uint64_t)1 << (j % 64);
            value = j;
        }
        PyObject *item = PyLong_FromLongLong(value);
        if (item == NULL)
            goto fail;
        PyList_SET_ITEM(result, i, item);
    }
    return result;
fail:
    Py_DECREF(result);
    return NULL;
}

/* int.to_bytes and "little", looked up once at import. */
static PyObject *int_to_bytes, *little;

/* getrandbits(8 size) as a bytes object of its size bytes, least
 * significant first: TypeError for a value that is not an int, ValueError
 * for one outside [0, 2^(8 size)); an error getrandbits raises propagates.
 * int.to_bytes, not a subclass's own, reads the value. */
static PyObject *random_bytes(PyObject *getrandbits, Py_ssize_t size)
{
    PyObject *bits = PyLong_FromSsize_t(8 * size);
    PyObject *r = bits ? PyObject_CallOneArg(getrandbits, bits) : NULL;
    Py_XDECREF(bits);
    if (r == NULL)
        return NULL;
    if (!PyLong_Check(r)) {
        PyErr_Format(PyExc_TypeError, "getrandbits must return an int, got %R", r);
        Py_DECREF(r);
        return NULL;
    }
    PyObject *args[3] = {r, PyLong_FromSsize_t(size), little};
    PyObject *bytes = args[1] ? PyObject_Vectorcall(int_to_bytes, args, 3, NULL) : NULL;
    Py_XDECREF(args[1]);
    Py_DECREF(r);
    if (bytes == NULL && PyErr_ExceptionMatches(PyExc_OverflowError)) /* negative, or wide */
        PyErr_Format(PyExc_ValueError, "getrandbits(%zd) returned a value outside [0, 2^%zd)",
                     8 * size, 8 * size);
    return bytes;
}

/* The 32-bit word of buf at byte offset at, least significant byte first. */
static uint32_t word_at(const unsigned char *buf, int at)
{
    return (uint32_t)buf[at] | (uint32_t)buf[at + 1] << 8 | (uint32_t)buf[at + 2] << 16 |
           (uint32_t)buf[at + 3] << 24;
}

/* sample_rows(getrandbits, n_lo, n_hi, strata): the rows of the random graph
 * of properties._sample, drawn by the generator whose bound getrandbits
 * method this is with the draws of its Python loop (_sweep_py.sample_rows),
 * so the graph and the generator's state afterwards are the loop's. The
 * order is n_lo + randbelow(n_hi - n_lo + 1), as randint(n_lo, n_hi) draws
 * it, 0 <= n_lo <= n_hi <= 64; the edge probability p is
 * strata[randbelow(len(strata))], as choice(strata) draws it, from a
 * nonempty tuple of reals read as doubles. Then each edge slot, in
 * index_pairs order, takes one random() value and is an edge when the value
 * is below p. random() makes its double from two 32-bit outputs, a then b,
 * as ((a >> 5) 2^26 + (b >> 6)) / 2^53, and getrandbits(64 slots) lays the
 * outputs out least significant first, so one such call holds every slot's
 * pair: slot t's are the low and high words of its bits [64t, 64t + 64). */
static PyObject *sample_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    long long n_lo, n_hi, n, k;
    double p;
    if (check_nargs("sample_rows", nargs, 4))
        return NULL;
    PyObject *getrandbits = args[0], *strata = args[3];
    if (!PyCallable_Check(getrandbits))
        return PyErr_Format(PyExc_TypeError, "getrandbits must be callable, got %R",
                            getrandbits);
    if (parse_int(args[1], "n_lo", 0, MAXROWS, 0, &n_lo) ||
        parse_int(args[2], "n_hi", n_lo, MAXROWS, 0, &n_hi))
        return NULL;
    if (!PyTuple_Check(strata) || PyTuple_GET_SIZE(strata) == 0)
        return PyErr_Format(PyExc_TypeError, "strata must be a nonempty tuple of reals, "
                            "got %R", strata);
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(strata); i++)
        if (parse_double(PyTuple_GET_ITEM(strata, i), &p))
            return NULL;
    if (randbelow(getrandbits, n_hi - n_lo + 1, &n) ||
        randbelow(getrandbits, PyTuple_GET_SIZE(strata), &k) ||
        parse_double(PyTuple_GET_ITEM(strata, k), &p))
        return NULL;
    n += n_lo;
    int slots = (int)(n * (n - 1) / 2);
    uint64_t adj[MAXROWS] = {0};
    PyObject *bytes = NULL;
    if (slots && (bytes = random_bytes(getrandbits, 8 * slots)) == NULL)
        return NULL;
    const unsigned char *bits = bytes ? (const unsigned char *)PyBytes_AS_STRING(bytes) : NULL;
    for (int j = 1, t = 0; j < n; j++)
        for (int i = 0; i < j; i++, t++) {
            double x = ((word_at(bits, 8 * t) >> 5) * 67108864.0 +
                        (word_at(bits, 8 * t + 4) >> 6)) * (1.0 / 9007199254740992.0);
            if (x < p) {
                adj[i] |= (uint64_t)1 << j;
                adj[j] |= (uint64_t)1 << i;
            }
        }
    Py_XDECREF(bytes);
    return rows_tuple((int)n, adj);
}

/* -- structural claims ---------------------------------------------------------
 * structural_violations(rows, caps): the checks that
 * _sweep_py.structural_violations states, over every apex z of the graph:
 * the apex partition (Z0, the neighbours of z with no neighbour among z's
 * neighbours; Z+, its other neighbours; W, every vertex off z and its
 * neighbourhood), the components of G[Z+] and the catalog type of each
 * (_sweep_py.classify_component), then for each w in W the claim-1 caps
 * against each catalog component and claim 2. caps is a tuple of NCAPS
 * ints of at least 0, in the order of cap_names (properties.DEFAULT_CLAIM_CAPS);
 * a cap above MAXROWS reads as MAXROWS, which no degree exceeds. */

enum { BIG_STAR_CENTER, DOUBLE_STAR_CAP, STAR_PLUS_CAP, C4_PLUS_CAP, K4_CAP, NCAPS };
static const char *const cap_names[NCAPS] = {"big_star_center", "double_star", "star_plus",
                                             "c4_plus", "k4"};

/* A catalog component of m vertices (s = m - 1 leaves for a star or a star
 * plus one edge, m - 2 in all for a double star). center: the least vertex
 * joined to every other one, for a star and a star plus one edge; leaves:
 * a double star's leaves, or the pendants of a star plus one edge; deg3:
 * the degree-3 vertices of a C4 plus a chord. */
typedef struct {
    uint64_t mask, leaves, deg3;
    enum { STAR, DOUBLE_STAR, STAR_PLUS, C4, C4_PLUS, K4 } kind;
    int m, center;
} component;

/* The catalog type of the connected subgraph induced on comp into *c, as
 * _sweep_py.classify_component finds it; 0 when it is outside the catalog. */
static int catalog_type(const uint64_t *adj, uint64_t comp, component *c)
{
    int m = popcount(comp), e = 0;
    uint64_t deg1 = 0, deg2 = 0, deg3 = 0, top = 0; /* degree 1, 2, 3 and m - 1 in comp */
    for (uint64_t t = comp; t; t &= t - 1) {
        int v = lowest_bit(t), d = popcount(adj[v] & comp);
        uint64_t bit = (uint64_t)1 << v;
        e += d;
        if (d == 1)
            deg1 |= bit;
        if (d == 2)
            deg2 |= bit;
        if (d == 3)
            deg3 |= bit;
        if (d == m - 1)
            top |= bit;
    }
    e /= 2;
    *c = (component){.mask = comp, .m = m, .center = top ? lowest_bit(top) : -1};
    if (e == m - 1) { /* a tree: a star, or a double star with its centers joined */
        uint64_t centers = comp & ~deg1;
        c->kind = top ? STAR : DOUBLE_STAR;
        c->leaves = deg1;
        return top || (popcount(centers) == 2 && (adj[lowest_bit(centers)] & centers));
    }
    if (e == m) { /* unicyclic: the triangle, C4, or a star plus an edge between leaves */
        c->kind = m == 4 && deg2 == comp ? C4 : STAR_PLUS;
        c->leaves = deg1;
        return m == 3 || c->kind == C4 ||
               (top && popcount(deg2) == 2 && (adj[lowest_bit(deg2)] & deg2));
    }
    c->kind = e == 5 ? C4_PLUS : K4;
    c->deg3 = deg3;
    return m == 4 && (e == 5 || e == 6);
}

/* Whether w, of adjacency row `row`, breaks a claim-1 cap against the
 * catalog component c. */
static int claim1_violated(uint64_t row, const component *c, const long long *caps)
{
    uint64_t nbr = row & c->mask;
    int d = popcount(nbr);
    if (d == 0)
        return 0;
    switch (c->kind) {
    case STAR: /* a big star whose center w reaches */
        return c->m - 1 >= 3 && (nbr >> c->center & 1) && d > caps[BIG_STAR_CENTER];
    case DOUBLE_STAR:
        return c->m - 2 >= 3 && (d > caps[DOUBLE_STAR_CAP] || popcount(nbr & c->leaves) > 1);
    case STAR_PLUS:
        return c->m - 1 >= 3 && (d > caps[STAR_PLUS_CAP] || popcount(nbr & c->leaves) > 1 ||
                                 ((nbr >> c->center & 1) && d != 1));
    case C4_PLUS: /* two contacts must be the degree-two pair */
        return d > caps[C4_PLUS_CAP] || (d == 2 && (nbr & c->deg3));
    case K4:
        return d > caps[K4_CAP];
    default: /* C4 carries no cap */
        return 0;
    }
}

/* Whether w, of adjacency row `row`, breaks claim 2 against the catalog
 * components comps[0..count) of an apex whose isolated class is z0. */
static int claim2_violated(uint64_t row, const component *comps, int count, uint64_t z0)
{
    const component *nonstar = NULL;
    int hits = 0;
    for (int i = 0; i < count; i++)
        if (row & comps[i].mask) {
            hits++;
            if (comps[i].kind != STAR && nonstar == NULL)
                nonstar = &comps[i];
        }
    if (nonstar == NULL)
        return 0;
    if (hits > 1) /* neighbours in a second component beside a non-star one */
        return 1;
    if (!(row & z0))
        return 0;
    switch (nonstar->kind) { /* an isolated-class neighbour next to ... */
    case C4:
    case C4_PLUS:
    case K4: /* ... a quad-bearing component */
        return 1;
    case STAR_PLUS: /* ... an off-center contact with a big star plus an edge */
        return nonstar->m - 1 >= 3 && !(row >> nonstar->center & 1);
    case DOUBLE_STAR: /* ... a double-star leaf contact */
        return (row & nonstar->leaves) != 0;
    default:
        return 0;
    }
}

static PyObject *structural_violations(PyObject *self, PyObject *const *args,
                                       Py_ssize_t nargs)
{
    uint64_t adj[MAXROWS], masks[MAXROWS];
    component comps[MAXROWS];
    long long caps[NCAPS], cap_viol = 0, catalog_viol = 0;
    int n;
    if (check_nargs("structural_violations", nargs, 2) || parse_rows(args[0], adj, &n))
        return NULL;
    if (!PyTuple_Check(args[1]) || PyTuple_GET_SIZE(args[1]) != NCAPS)
        return PyErr_Format(PyExc_TypeError, "caps must be a tuple of %d ints, got %R", NCAPS,
                            args[1]);
    for (int i = 0; i < NCAPS; i++)
        if (parse_int(PyTuple_GET_ITEM(args[1], i), cap_names[i], 0, MAXROWS, 1, &caps[i]))
            return NULL;
    for (int z = 0; z < n; z++) {
        uint64_t zbits = adj[z], z0 = 0;
        for (uint64_t t = zbits; t; t &= t - 1)
            if (!(adj[lowest_bit(t)] & zbits))
                z0 |= t & (~t + 1);
        int count = 0, found = components(adj, zbits & ~z0, masks);
        for (int i = 0; i < found; i++) {
            if (catalog_type(adj, masks[i], &comps[count]))
                count++;
            else
                catalog_viol++;
        }
        for (uint64_t w = all_vertices(n) & ~zbits & ~((uint64_t)1 << z); w; w &= w - 1) {
            uint64_t row = adj[lowest_bit(w)];
            for (int i = 0; i < count; i++)
                cap_viol += claim1_violated(row, &comps[i], caps);
            cap_viol += claim2_violated(row, comps, count, z0);
        }
    }
    return Py_BuildValue("(LL)", cap_viol, catalog_viol);
}

/* -- module ---------------------------------------------------------------- */

static PyMethodDef methods[] = {
    {"apex_has_config", (PyCFunction)(void (*)(void))apex_has_config, METH_FASTCALL,
     "apex_has_config(rows, k) -> bool\n\n"
     "Whether some cycle has k chords at a common vertex."},
    {"chorded_has", (PyCFunction)(void (*)(void))chorded_has, METH_FASTCALL,
     "chorded_has(rows, min_chords) -> bool\n\n"
     "Whether some cycle carries at least min_chords chords."},
    {"classify", (PyCFunction)(void (*)(void))classify, METH_FASTCALL,
     "classify(n, lo, hi, lo_cut, hi_cut, test) -> (no_isolated, hits, rest)\n\n"
     "Sort the degree-sorted edge bitmasks in [lo, hi) by index against two\n"
     "cuts, with weighted counts; test is (name, k) or None. The pass\n"
     "releases the GIL. See _sweep_py.classify."},
    {"component_count", (PyCFunction)(void (*)(void))component_count, METH_FASTCALL,
     "component_count(rows) -> int\n\nThe number of connected components."},
    {"degree_skips", (PyCFunction)(void (*)(void))degree_skips, METH_FASTCALL,
     "degree_skips(n, masks, cut) -> (skipped, candidates)\n\n"
     "Count the labeled masks classify's degree filter skips at cut, and\n"
     "list those that can hold their largest index; see _sweep_py."},
    {"eta_check", (PyCFunction)(void (*)(void))eta_check, METH_FASTCALL,
     "eta_check(rows) -> (violated, num, den)\n\n"
     "The counting form's verdict and the largest eta as num / den; see\n"
     "_sweep_py.eta_check."},
    {"longest_cycle", (PyCFunction)(void (*)(void))longest_cycle, METH_FASTCALL,
     "longest_cycle(rows) -> (length, cycle) or None\n\n"
     "The first longest cycle in search order; see chords.longest_cycle."},
    {"max_path_order", (PyCFunction)(void (*)(void))max_path_order, METH_FASTCALL,
     "max_path_order(rows) -> int\n\n"
     "Most vertices on any path; see chords.max_path_order."},
    {"perron_order", (PyCFunction)(void (*)(void))perron_order, METH_FASTCALL,
     "perron_order(rows, u, v) -> 1, -1 or 0\n\n"
     "The certified sign of x_u - x_v for the Perron vector x of Q, or 0;\n"
     "see _sweep_py.perron_order."},
    {"q_indices", (PyCFunction)(void (*)(void))q_indices, METH_FASTCALL,
     "q_indices(rows_list) -> list\n\n"
     "The index q of each graph, from its adjacency rows, in input order:\n"
     "a Householder tridiagonal form of Q, then Sturm counts bracket its top\n"
     "eigenvalue; see _sweep_py.q_indices."},
    {"sample_range", (PyCFunction)(void (*)(void))sample_range, METH_FASTCALL,
     "sample_range(getrandbits, n, k) -> list\n\n"
     "Random.sample(range(n), k) of the generator whose getrandbits this is,\n"
     "by the same draws; see _sweep_py.sample_range."},
    {"sample_rows", (PyCFunction)(void (*)(void))sample_rows, METH_FASTCALL,
     "sample_rows(getrandbits, n_lo, n_hi, strata) -> rows\n\n"
     "The rows of properties._sample's random graph, by the generator whose\n"
     "getrandbits this is, with the same draws; see _sweep_py.sample_rows."},
    {"slot_rows", (PyCFunction)(void (*)(void))slot_rows, METH_FASTCALL,
     "slot_rows(n, slots) -> rows\n\n"
     "The rows of the graph on n vertices whose edges are the listed slots\n"
     "in index_pairs order."},
    {"structural_violations", (PyCFunction)(void (*)(void))structural_violations,
     METH_FASTCALL,
     "structural_violations(rows, caps) -> (cap_violations, catalog_violations)\n\n"
     "The structural claims' violations over every apex; see _sweep_py."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_sweep",
    .m_doc = "Compiled sweep kernels; the pure-Python twin is _sweep_py.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__sweep(void)
{
    if (int_to_bytes == NULL &&
        (int_to_bytes = PyObject_GetAttrString((PyObject *)&PyLong_Type, "to_bytes")) == NULL)
        return NULL;
    if (little == NULL && (little = PyUnicode_InternFromString("little")) == NULL)
        return NULL;
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && (PyModule_AddObjectRef(m, "IS_COMPILED", Py_True) < 0 ||
                      PyModule_AddIntMacro(m, MAXROWS) < 0))
        Py_CLEAR(m);
    return m;
}
