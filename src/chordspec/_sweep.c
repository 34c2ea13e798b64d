/* Compiled sweep kernels: one pass over an edge-bitmask graph range that
 * sorts each graph by its signless Laplacian index against two cuts and
 * tests the ones above them for a chord configuration, the chord tests on
 * one graph, the longest-cycle and longest-path searches of the property
 * suite, and the certified Perron entry order of its Perron shift.
 *
 * Same interface and soundness contract as the pure-Python twin _sweep_py:
 * classify drops a mask only when its index is provably below lo_cut, and
 * counts a hit only when the index is provably above hi_cut and the graph
 * passes the test (never, when the test is None; kernels.sweep_range is
 * that pass with both cuts at one floor). Degree bounds go first, then one
 * power iterate on Q + I with a strictly positive x: the Collatz-Wielandt
 * ratio max_i (Mx)_i / x_i bounds the top eigenvalue from above, the
 * Rayleigh quotient from below.
 *
 * Only classify takes edge bitmasks, to name its range: bit b is the pair
 * (i, j), i < j, in the order (0,1), (0,2), ... (graphs.index_pairs) of the
 * slot table slot_i/slot_j. The sweep holds each graph as adjacency rows
 * (vertex bitmasks) only, flipping through that table the slots in which a
 * mask differs from the one before. Every per-graph call takes adjacency
 * rows too, for graphs of up to MAXROWS vertices.
 *
 * classify's pass runs without the GIL, so threads can sweep ranges at once.
 *
 * kernels.py compiles this file on first import.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 11 /* edge bitmasks fit 64 bits up to n = 11; sweeps use n <= 8 */
#define MAXROWS 64 /* adjacency rows fit 64 bits */
#define MAXB 55 /* MAXN * (MAXN - 1) / 2 edge slots */
#define CW_ITERATIONS 200
#define CUT_MARGIN 1e-9 /* a bound must clear its cut by this much */

static int popcount(uint64_t x) { return __builtin_popcountll(x); }

static int lowest_bit(uint64_t x) { return __builtin_ctzll(x); }

/* Edge slot b is the pair (slot_i[b], slot_j[b]); the first C(n,2) slots
 * are those of order n. Filled once, in PyInit__sweep. */
static int slot_i[MAXB], slot_j[MAXB];

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

/* -- argument checks --------------------------------------------------------
 * A sweep's n lies in 1..MAXN and its range in 0 <= lo <= hi <= 2^C(n,2),
 * rows are those of a simple graph and chord counts are ints >= 1; anything
 * else raises ValueError (TypeError for a wrong type), as in _sweep_py. */

static int parse_n(PyObject *arg, int *n)
{
    int overflow;
    long v = PyLong_AsLongAndOverflow(arg, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < 1 || v > MAXN) {
        PyErr_Format(PyExc_ValueError, "kernels support 1..%d vertices, got %R",
                     MAXN, arg);
        return -1;
    }
    *n = (int)v;
    return 0;
}

/* An integer in [0, limit] (inclusive) into *out, else ValueError. */
static int parse_bounded(PyObject *arg, uint64_t limit, const char *what,
                         uint64_t *out)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(arg, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < 0 || (uint64_t)v > limit) {
        PyErr_Format(PyExc_ValueError, "%s %R outside [0, %llu]", what, arg,
                     (unsigned long long)limit);
        return -1;
    }
    *out = (uint64_t)v;
    return 0;
}

static uint64_t mask_count(int n) { return (uint64_t)1 << (n * (n - 1) / 2); }

/* The n, lo and hi of a sweep over [lo, hi), 0 <= lo <= hi <= 2^C(n,2). */
static int parse_range(PyObject *const *args, int *n, uint64_t *lo, uint64_t *hi)
{
    if (parse_n(args[0], n) || parse_bounded(args[1], mask_count(*n), "lo", lo) ||
        parse_bounded(args[2], mask_count(*n), "hi", hi))
        return -1;
    if (*lo > *hi) {
        PyErr_Format(PyExc_ValueError, "empty range: lo %llu > hi %llu",
                     (unsigned long long)*lo, (unsigned long long)*hi);
        return -1;
    }
    return 0;
}

/* A chord count of at least 1, as the python searchers require; a count too
 * large for a long exceeds every graph's chords and is read as LONG_MAX. */
static int parse_positive(PyObject *arg, const char *what, long *out)
{
    int overflow;
    long v = PyLong_AsLongAndOverflow(arg, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow < 0 || (!overflow && v < 1)) {
        PyErr_Format(PyExc_ValueError, "need %s >= 1, got %R", what, arg);
        return -1;
    }
    *out = overflow ? LONG_MAX : v;
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
    uint64_t full = n < 64 ? ((uint64_t)1 << n) - 1 : ~(uint64_t)0;
    for (int root = 0; root < n; root++) {
        uint64_t allowed = full & ~(((uint64_t)2 << root) - 1);
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
    long k;
    if (check_nargs(name, nargs, 2) || parse_rows(args[0], adj, &n) ||
        parse_positive(args[1], what, &k))
        return NULL;
    return PyBool_FromLong(test(n, adj, k));
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

/* The vertex masks of the connected components, ordered by least vertex;
 * returns their number. */
static int components(int n, const uint64_t *adj, uint64_t *comps)
{
    uint64_t left = n < 64 ? ((uint64_t)1 << n) - 1 : ~(uint64_t)0;
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
    int ncomps = components(n, adj, comps);
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
    int best = 1, ncomps = components(n, adj, comps);
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
 * matrix plus the Frobenius norm omega of its off-diagonal part when the
 * sweeps stop (Weyl: each eigenvalue lies within omega of the sorted
 * diagonal). The rotations are backward stable, so the rounding they add is
 * within the rule's slack. */

#define PERRON_MAXN 16 /* perron_order decides on graphs of at most this order */
#define PERRON_MARGIN 1e-9 /* a Perron entry order must clear its bound by this */
#define JACOBI_SWEEPS 30

/* The two functions below are built at -O2, not at the -O3 of the rest:
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

/* The certified sign of x_u - x_v (0 on doubt) for a connected graph of
 * n <= PERRON_MAXN vertices. Cyclic Jacobi on Q rotates each nonzero
 * off-diagonal entry to zero (Golub and Van Loan, Matrix Computations,
 * sec. 8.5) until the off-diagonal part is below 1e-13 |Q|_F or
 * JACOBI_SWEEPS sweeps have run; y is the column of the accumulated
 * rotations at the largest diagonal entry. */
PERRON_OPT static int perron_sign(int n, const uint64_t *adj, int u, int v)
{
    double a[PERRON_MAXN][PERRON_MAXN], vec[PERRON_MAXN][PERRON_MAXN], y[PERRON_MAXN];
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
    /* the rule of _sweep_py._certified_order, with lambda_2 <= theta2 + omega */
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

/* A vertex of a graph on n vertices into *out, else ValueError (TypeError
 * for an argument that is not an int). */
static int parse_vertex(PyObject *arg, int n, const char *what, int *out)
{
    int overflow;
    long x = PyLong_AsLongAndOverflow(arg, &overflow);
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (overflow || x < 0 || x >= n) {
        PyErr_Format(PyExc_ValueError, "%s = %R is not a vertex of a graph on %d vertices",
                     what, arg, n);
        return -1;
    }
    *out = (int)x;
    return 0;
}

static PyObject *perron_order(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    uint64_t adj[MAXROWS], comps[MAXROWS];
    int n, u, v;
    if (check_nargs("perron_order", nargs, 3) || parse_rows(args[0], adj, &n) ||
        parse_vertex(args[1], n, "u", &u) || parse_vertex(args[2], n, "v", &v))
        return NULL;
    if (u == v)
        return PyErr_Format(PyExc_ValueError, "need u != v, got %d twice", u);
    if (n > PERRON_MAXN || components(n, adj, comps) > 1)
        return PyLong_FromLong(0);
    return PyLong_FromLong(perron_sign(n, adj, u, v));
}

/* -- sweep and classification ---------------------------------------------- */

/* One pass over the masks in [lo, hi): masks with an isolated vertex are
 * skipped and the others counted in *no_isolated; a mask whose degree
 * bounds or power iterate put its index below lo_cut is dropped, one above
 * hi_cut whose graph passes test (never, when test is NULL) is counted in
 * *hits, and every other mask goes into *rest, ascending, a malloc'd buffer
 * of *len masks that the caller frees. Every stage reads adj, the rows of
 * the current mask: the first mask flips all of lo's bits, each later one
 * the trailing bits that changed (two on average). Touches no Python object
 * and no mutable static, so it runs without the GIL and concurrently.
 * Returns 0, or -1 when the buffer cannot grow. */
static int sweep(int n, uint64_t lo, uint64_t hi, double lo_cut, double hi_cut,
                 detector test, long k, long long *no_isolated, long long *hits,
                 uint64_t **rest, size_t *len)
{
    uint64_t adj[MAXN] = {0}, held = 0; /* adj: the rows of mask held */
    int degs[MAXN];
    size_t cap = 0;

    *no_isolated = *hits = 0;
    *rest = NULL;
    *len = 0;
    for (uint64_t mask = lo; mask < hi; mask++) {
        for (uint64_t flip = mask ^ held; flip; flip &= flip - 1) {
            int b = lowest_bit(flip);
            adj[slot_i[b]] ^= (uint64_t)1 << slot_j[b];
            adj[slot_j[b]] ^= (uint64_t)1 << slot_i[b];
        }
        held = mask;
        int dmin = n, dmax = 0;
        for (int i = 0; i < n; i++) {
            degs[i] = popcount(adj[i]);
            if (degs[i] < dmin)
                dmin = degs[i];
            if (degs[i] > dmax)
                dmax = degs[i];
        }
        if (dmin == 0)
            continue;
        ++*no_isolated;
        if (2.0 * dmax < lo_cut) /* q <= 2 max degree */
            continue;
        int esum = 0; /* q <= max over edges ij of d(i) + d(j) */
        for (int i = 0; i < n; i++) /* each edge once, from its lower end */
            for (uint64_t up = adj[i] & ~(((uint64_t)2 << i) - 1); up; up &= up - 1) {
                int d = degs[i] + degs[lowest_bit(up)];
                if (d > esum)
                    esum = d;
            }
        if (esum < lo_cut)
            continue;
        int side = q_side(n, adj, degs, lo_cut, hi_cut);
        if (side < 0)
            continue;
        if (side > 0 && test != NULL && test(n, adj, k)) {
            ++*hits;
            continue;
        }
        if (*len == cap) {
            cap = cap ? 2 * cap : 1024;
            uint64_t *grown = realloc(*rest, cap * sizeof **rest);
            if (grown == NULL)
                return -1;
            *rest = grown;
        }
        (*rest)[(*len)++] = mask;
    }
    return 0;
}

static PyObject *classify(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    uint64_t lo, hi;
    const char *name;
    PyObject *karg;
    long k = 0;
    long long no_isolated, hits;
    double lo_cut, hi_cut;
    detector test = NULL;
    if (check_nargs("classify", nargs, 6) || parse_range(args, &n, &lo, &hi) ||
        parse_cuts(args[3], args[4], &lo_cut, &hi_cut))
        return NULL;
    if (args[5] != Py_None) {
        if (!PyTuple_Check(args[5]))
            return PyErr_Format(PyExc_TypeError,
                                "test must be a (name, k) tuple or None, got %R", args[5]);
        if (!PyArg_ParseTuple(args[5], "sO:classify", &name, &karg) ||
            parse_positive(karg, "k", &k))
            return NULL;
        if (strcmp(name, "apex_has_config") == 0)
            test = has_apex;
        else if (strcmp(name, "chorded_has") == 0)
            test = has_chorded;
        else
            return PyErr_Format(PyExc_ValueError, "no kernel test %R", args[5]);
    }
    uint64_t *masks;
    size_t len;
    int failed;
    Py_BEGIN_ALLOW_THREADS
    failed = sweep(n, lo, hi, lo_cut, hi_cut, test, k, &no_isolated, &hits, &masks, &len);
    Py_END_ALLOW_THREADS
    PyObject *rest = failed ? PyErr_NoMemory() : PyList_New((Py_ssize_t)len);
    for (size_t i = 0; rest != NULL && i < len; i++) {
        PyObject *m = PyLong_FromUnsignedLongLong(masks[i]);
        if (m == NULL)
            Py_CLEAR(rest);
        else
            PyList_SET_ITEM(rest, (Py_ssize_t)i, m);
    }
    free(masks);
    return rest ? Py_BuildValue("(LLN)", no_isolated, hits, rest) : NULL;
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
     "Sort the edge bitmasks in [lo, hi) by index against two cuts; test is\n"
     "(name, k) or None. The pass releases the GIL. See _sweep_py.classify."},
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
    for (int j = 1, b = 0; j < MAXN; j++)
        for (int i = 0; i < j; i++, b++) {
            slot_i[b] = i;
            slot_j[b] = j;
        }
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddObjectRef(m, "IS_COMPILED", Py_True) < 0)
        Py_CLEAR(m);
    return m;
}
