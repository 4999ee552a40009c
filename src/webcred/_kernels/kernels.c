/* Compiled twins of the kernels in pure.py, called through compiled.py.
 * SplitMix64 and every float expression mirror pure.py, so both paths walk
 * the same random streams and build the same trees; build with
 * -ffp-contract=off, as FMA would change rounding.  Both entry points return
 * 0, -1 for an index out of range or -2 when memory runs out. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

static uint64_t next_u64(uint64_t *state) {
    uint64_t x = *state += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* Dual coordinate descent for the L1-loss linear SVM (Hsieh et al., ICML
 * 2008) on n CSR rows plus a constant bias feature 1, with the shrinking of
 * pure.svm_fit: a pass shuffles and visits the active prefix of order, a
 * row at a bound whose gradient lies outside the last pass's
 * [pg_min_old, pg_max_old] is swapped behind it (a bound inside tol shrinks
 * nothing), and only a full pass with max |PG| < tol converges.  w, alpha
 * and out come zeroed; out receives the bias, the passes run and 1 if
 * converged.  Named apart from the svm_fit of older builds, which took a
 * 15th argument, so that compiled.py never binds one of those. */
int linear_svm_fit(const int64_t *indptr, const int32_t *indices,
                   const double *data, const double *y, int64_t n, int64_t nnz,
                   int64_t dim, double C, double tol, int64_t max_epochs,
                   uint64_t state, double *w, double *alpha, double *out) {
    double wb = 0.0, *qii = malloc((n + 1) * (sizeof(double) + sizeof(int64_t)));
    if (qii == NULL)
        return -2;
    int64_t *order = (int64_t *)(qii + n), active = n;
    double pg_max_old = INFINITY, pg_min_old = -INFINITY;
    for (int64_t i = 0; i < n; i++) {
        double s = 0.0;
        if (indptr[i] < 0 || indptr[i] > indptr[i + 1] || indptr[i + 1] > nnz)
            return free(qii), -1;
        for (int64_t k = indptr[i]; k < indptr[i + 1]; k++) {
            if (indices[k] < 0 || indices[k] >= dim)
                return free(qii), -1;
            s += data[k] * data[k];
        }
        qii[i] = s + 1.0;
        order[i] = i;
    }
    for (int64_t epoch = 0; epoch < max_epochs; epoch++) {
        for (int64_t i = active - 1; i > 0; i--) { /* as rng.SplitMix64.shuffle */
            int64_t j = (int64_t)(next_u64(&state) % (uint64_t)(i + 1)), t = order[i];
            order[i] = order[j];
            order[j] = t;
        }
        double pg_max = -INFINITY, pg_min = INFINITY;
        for (int64_t pos = 0; pos < active;) {
            int64_t i = order[pos], lo = indptr[i], hi = indptr[i + 1];
            double g = 0.0, a = alpha[i], pg = 0.0;
            for (int64_t k = lo; k < hi; k++)
                g += data[k] * w[indices[k]];
            g = y[i] * (g + wb) - 1.0;
            if (a <= 0.0 ? g > pg_max_old : a >= C && g < pg_min_old) {
                order[pos] = order[--active];
                order[active] = i;
                continue;
            }
            pg = a <= 0.0 ? (g < 0.0 ? g : 0.0) : a >= C ? (g > 0.0 ? g : 0.0) : g;
            pg_max = pg > pg_max ? pg : pg_max;
            pg_min = pg < pg_min ? pg : pg_min;
            pos++;
            if (pg == 0.0)
                continue;
            double a_new = a - g / qii[i];
            a_new = a_new < 0.0 ? 0.0 : (a_new > C ? C : a_new);
            double d = (a_new - a) * y[i];
            if (d != 0.0) {
                for (int64_t k = lo; k < hi; k++)
                    w[indices[k]] += d * data[k];
                wb += d;
                alpha[i] = a_new;
            }
        }
        out[1] = (double)(epoch + 1);
        if ((pg_max > -pg_min ? pg_max : -pg_min) < tol) {
            if (active == n) {
                out[2] = 1.0;
                break;
            }
            active = n;
            pg_max_old = INFINITY, pg_min_old = -INFINITY;
            continue;
        }
        pg_max_old = pg_max >= tol ? pg_max : INFINITY;
        pg_min_old = pg_min <= -tol ? pg_min : -INFINITY;
    }
    out[0] = wb;
    free(qii);
    return 0;
}

/* Sorts v[lo..hi] with lab alongside: quicksort with insertion sort below
 * 16 elements, recursing into the smaller side and looping on the larger. */
static void sort_pairs(double *v, int8_t *lab, int64_t lo, int64_t hi) {
    while (lo < hi) {
        if (hi - lo < 16) {
            for (int64_t i = lo + 1, j; i <= hi; i++) {
                double tv = v[i];
                int8_t tl = lab[i];
                for (j = i - 1; j >= lo && v[j] > tv; j--)
                    v[j + 1] = v[j], lab[j + 1] = lab[j];
                v[j + 1] = tv, lab[j + 1] = tl;
            }
            return;
        }
        double pivot = v[lo + ((hi - lo) >> 1)];
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (v[i] < pivot)
                i++;
            while (v[j] > pivot)
                j--;
            if (i <= j) {
                double tv = v[i]; v[i] = v[j]; v[j] = tv;
                int8_t tl = lab[i]; lab[i++] = lab[j]; lab[j--] = tl;
            }
        }
        if (j - lo < hi - i)
            sort_pairs(v, lab, lo, j), lo = i;
        else
            sort_pairs(v, lab, i, hi), hi = j;
    }
}

/* Best Gini split of the m rows `rows` of the row-major n_rows x n_cols
 * matrix X over features `feats`, with labels y, using the scratch arrays v
 * and lab of m entries.  out receives the feature (-1 if no split exists),
 * the threshold and the weighted Gini. */
static void best_split(const double *X, int64_t n_cols, const int32_t *rows,
                       int64_t m, const int32_t *feats, int64_t n_feats,
                       const int8_t *y, double *v, int8_t *lab, double *out) {
    int64_t total1 = 0;
    out[0] = -1.0, out[1] = 0.0, out[2] = INFINITY;
    if (m < 2)
        return;
    for (int64_t i = 0; i < m; i++)
        total1 += y[rows[i]];
    for (int64_t fi = 0; fi < n_feats; fi++) {
        int64_t f = feats[fi], cum1 = 0;
        double feat_score = INFINITY, feat_thr = 0.0;
        for (int64_t i = 0; i < m; i++) {
            v[i] = X[rows[i] * n_cols + f];
            lab[i] = y[rows[i]];
        }
        sort_pairs(v, lab, 0, m - 1);
        for (int64_t i = 0; i < m - 1; i++) {
            cum1 += lab[i];
            if (v[i] == v[i + 1])
                continue;
            int64_t nl = i + 1, c1l = cum1, c0l = nl - c1l;
            int64_t nr = m - nl, c1r = total1 - c1l, c0r = nr - c1r;
            double p0l = (double)c0l / (double)nl, p1l = (double)c1l / (double)nl;
            double p0r = (double)c0r / (double)nr, p1r = (double)c1r / (double)nr;
            double gini_l = 1.0 - p0l * p0l - p1l * p1l;
            double gini_r = 1.0 - p0r * p0r - p1r * p1r;
            double weighted = ((double)nl * gini_l + (double)nr * gini_r) / (double)m;
            if (weighted < feat_score) {
                double thr = (v[i] + v[i + 1]) / 2.0;
                feat_score = weighted;
                feat_thr = thr == v[i + 1] ? v[i] : thr;
            }
        }
        if (feat_score < out[2])
            out[0] = (double)f, out[1] = feat_thr, out[2] = feat_score;
    }
}

/* Best Gini split of each of n_nodes tree nodes: node i holds the rows
 * rows[row_ptr[i] .. row_ptr[i + 1]) of the row-major n_rows x n_cols
 * matrix X and the n_feats candidate features feats[i * n_feats ..], with
 * n_y 0/1 labels y.  out receives 3 doubles per node, as best_split. */
int node_best_splits(const double *X, int64_t n_rows, int64_t n_cols,
                     const int32_t *rows, const int64_t *row_ptr, int64_t n_nodes,
                     const int32_t *feats, int64_t n_feats, const int8_t *y,
                     int64_t n_y, double *out) {
    int64_t width = 0;
    for (int64_t i = 0; i < n_nodes; i++) {
        int64_t m = row_ptr[i + 1] - row_ptr[i];
        width = m > width ? m : width;
    }
    for (int64_t k = 0; k < row_ptr[n_nodes]; k++)
        if (rows[k] < 0 || rows[k] >= n_rows || rows[k] >= n_y)
            return -1;
    for (int64_t k = 0; k < n_nodes * n_feats; k++)
        if (feats[k] < 0 || feats[k] >= n_cols)
            return -1;
    double *v = width < 2 ? NULL : malloc(width * (sizeof(double) + sizeof(int8_t)));
    if (v == NULL && width >= 2)
        return -2;
    int8_t *lab = v == NULL ? NULL : (int8_t *)(v + width);
    for (int64_t i = 0; i < n_nodes; i++)
        best_split(X, n_cols, rows + row_ptr[i], row_ptr[i + 1] - row_ptr[i],
                   feats + i * n_feats, n_feats, y, v, lab, out + 3 * i);
    free(v);
    return 0;
}
