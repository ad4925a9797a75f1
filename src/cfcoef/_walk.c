/* The constrained walk of cfcoef.search._constrained_walk over the listed
   rows of a chunk, in one call.

   A step-for-step port of _opening_climb and of the walk's main loop: each
   float comes from the same operations in the same order, and each square
   from libm pow, as Python's ** 2 forms it, so the node counts, incumbents
   and coefficient vectors are bit for bit those of the Python walk.  Build
   with -O2 -ffp-contract=off -fno-builtin: the first flag keeps x*y + z from
   fusing into one rounding, the second keeps pow(x, 2.0) from becoming x*x,
   which differs from libm's pow in the last bit now and then.

   Coefficients are held as doubles, which are exact below 2**53.  A row
   whose walk reaches an entry of 2**53 or more in magnitude (as a centre
   that is not finite does) gets status 1 and no other output: the Python
   walk reruns it with Python integers, and raises Python's errors. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define LIMIT 9007199254740992.0 /* 2**53 */

/* _round_nearest: the nearest integer, exact .5 ties toward zero */
static double round_nearest(double x)
{
    double r = floor(x + 0.5);
    if (r - x == 0.5 && r > 0)
        r -= 1;
    return r;
}

/* _opening_climb: the hand-over level and, in *nodes, its count; -1 hands back */
static int64_t opening_climb(int64_t n, const double *t, const double *f, const double *q,
                             int64_t *nodes)
{
    double q0 = q[0];
    *nodes = 1;
    for (int64_t j = 1; j < n; j++) {
        if (q[j] < q0) {
            double dj = t[j - 1] * t[j] / f[j];
            double aj = round_nearest(dj);
            if (!(fabs(aj) < LIMIT))
                return -1;
            if (aj <= 1)
                aj = 1;
            if (q[j] + q[j - 1] * pow(aj - dj, 2.0) < q0 || 4.0 * q[j] < q0)
                return j;
            *nodes += 3;
        } else {
            *nodes += 1;
        }
    }
    return n;
}

/* One row's walk, writing a[:n] of each incumbent to best; returns the status.
   p and a hold n + 1 entries, d, sig, s and flag n. */
static int walk_row(int64_t n, const double *t, const double *f, const double *q, int shrink,
                    double *p, double *a, double *d, double *sig, int64_t *s, char *flag,
                    int64_t *best, int8_t *moved, int64_t *nodes, double *last)
{
    int64_t k = opening_climb(n, t, f, q, nodes);
    double beta2 = q[0];
    *moved = 0;
    if (k < 0)
        return 1;
    if (k < n) {
        for (int64_t i = 0; i < n; i++) {
            p[i] = a[i] = d[i] = sig[i] = 0.0;
            s[i] = flag[i] = 1;
        }
        p[n] = a[n] = 0.0;
        a[k] = 1.0;
        double delta = q[k];
        for (;;) {
            ++*nodes;
            double alpha = sig[k] + delta;
            double ak;
            if (alpha < beta2) {
                if (k > 0) {
                    p[k] = p[k + 1] + t[k] * a[k];
                    k--;
                    sig[k] = alpha;
                    double dk = t[k] * p[k + 1] / f[k + 1];
                    d[k] = dk;
                    ak = round_nearest(dk);
                    if (!(fabs(ak) < LIMIT))
                        return 1;
                    if (ak <= a[k + 1]) {
                        ak = a[k + 1];
                        flag[k] = 1;
                        s[k] = 1;
                    } else {
                        flag[k] = 0;
                        s[k] = dk >= ak ? 1 : -1;
                    }
                    a[k] = ak;
                    delta = q[k] * pow(ak - dk, 2.0);
                    continue;
                }
                if (shrink) {
                    beta2 = alpha;
                    *moved = 1;
                    for (int64_t i = 0; i < n; i++)
                        best[i] = (int64_t)a[i];
                }
            } else if (k < n - 1) {
                k++;
            } else {
                break;
            }
            ak = a[k] + (double)s[k];
            if (!(fabs(ak) < LIMIT))
                return 1;
            a[k] = ak;
            if (ak == a[k + 1]) {
                flag[k] = 1;
                s[k] = -s[k] - (s[k] >= 0 ? 1 : -1);
            } else if (flag[k]) {
                s[k] = 1;
            } else {
                s[k] = -s[k] - (s[k] >= 0 ? 1 : -1);
            }
            delta = q[k] * pow(ak - d[k], 2.0);
        }
    }
    *last = beta2;
    if (!*moved)
        for (int64_t i = 0; i < n; i++)
            best[i] = i == 0;
    return 0;
}

/* Walk rows rows[0..count-1] of the chunk's (m, n) t, (m, n + 1) f and
   (m, n) q, all C-ordered, with the radius shrinking if shrink.  Output r
   is that of row rows[r]: status[r], and where it is 0, the last
   incumbent's a[:n] in best[r*n..], moved[r] = 1 unless that is the first
   unit vector, the radius tests in nodes[r] and the last incumbent's
   squared radius in last[r].  Every row hands back if the work arrays
   cannot be had. */
void cf_walk_rows(int64_t n, int64_t count, const int64_t *rows, const double *t,
                  const double *f, const double *q, int shrink, int64_t *best, int8_t *moved,
                  int64_t *nodes, double *last, int8_t *status)
{
    double *work = malloc((4 * n + 2) * sizeof(double));
    int64_t *s = malloc(n * sizeof(int64_t));
    char *flag = malloc(n);
    for (int64_t r = 0; r < count; r++) {
        int64_t i = rows[r];
        status[r] = !(work && s && flag) ||
                    walk_row(n, t + i * n, f + i * (n + 1), q + i * n, shrink, work,
                             work + n + 1, work + 2 * n + 2, work + 3 * n + 2, s, flag,
                             best + r * n, moved + r, nodes + r, last + r);
    }
    free(work);
    free(s);
    free(flag);
}
