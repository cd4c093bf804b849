/* The integration step of tripler.dynamics, over M ensemble members.
 *
 * Each member is stepped exactly as the Python runners dynamics._run_rk4
 * and dynamics._run_etd1 step one trajectory, which stay the definition:
 * every operation below is the one CPython 3.11 performs for the Python
 * expression it is written under (a float operand of complex arithmetic
 * becomes x + 0j, products are a.re*b.re - a.im*b.im and
 * a.re*b.im + a.im*b.re, x**2 and x**3 are formed as CPython's c_powu
 * forms them), in the same order, so each member is bit for bit the
 * Python runner's trajectory.  That needs IEEE double arithmetic with no contraction into
 * fused multiply-adds and no builtin folding of libm calls:
 *
 *     gcc -O2 -ffp-contract=off -fno-builtin -shared -fPIC
 *
 * Where Python raises (an infinite power, OverflowError; sin or cos of an
 * infinity, ValueError) the member stops and reports an overflow.
 */

#include <math.h>
#include <stdint.h>

typedef struct {
    double re, im;
} cplx;

/* The constants of one run, in this order (built in dynamics._run_kernel). */
typedef struct {
    double d1, d2, al1, al2, ax2, g1, g2;   /* steady._Coefficients */
    cplx iat, iat3, idrive;
    double dt;
    double s1, s2, em1, em2, ex1, ex2, near1, near2;   /* ETD1 only */
    double tiny;                                       /* dynamics._TINY_Z */
} coefficients;

enum { RUNS = 0, HIT_CEILING = 1, OVERFLOWED = 2 };

static const cplx c_1 = {1.0, 0.0};
static const cplx c_i = {0.0, 1.0};    /* 1j */

/* a float operand of complex arithmetic */
static inline cplx c_of(double x) { cplx r = {x, 0.0}; return r; }

static inline cplx c_sum(cplx a, cplx b)
{
    cplx r = {a.re + b.re, a.im + b.im};
    return r;
}

static inline cplx c_diff(cplx a, cplx b)
{
    cplx r = {a.re - b.re, a.im - b.im};
    return r;
}

static inline cplx c_prod(cplx a, cplx b)
{
    cplx r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

static inline cplx c_conj(cplx a) { cplx r = {a.re, -a.im}; return r; }

/* CPython's _Py_c_quot; b is never zero here (see step_etd1) */
static cplx c_quot(cplx a, cplx b)
{
    cplx r;
    const double abs_breal = b.re < 0 ? -b.re : b.re;
    const double abs_bimag = b.im < 0 ? -b.im : b.im;
    if (abs_breal >= abs_bimag) {
        if (abs_breal == 0.0) {
            r.re = r.im = 0.0;
        } else {
            const double ratio = b.im / b.re;
            const double denom = b.re + b.im * ratio;
            r.re = (a.re + a.im * ratio) / denom;
            r.im = (a.im - a.re * ratio) / denom;
        }
    } else if (abs_bimag >= abs_breal) {
        const double ratio = b.re / b.im;
        const double denom = b.re * ratio + b.im;
        r.re = (a.re * ratio + a.im) / denom;
        r.im = (a.im * ratio - a.re) / denom;
    } else {
        r.re = r.im = NAN;
    }
    return r;
}

/* CPython's _Py_c_abs, without its error, which |e| <= 3 never meets */
static double c_abs(cplx z)
{
    if (!isfinite(z.re) || !isfinite(z.im)) {
        if (isinf(z.re))
            return fabs(z.re);
        if (isinf(z.im))
            return fabs(z.im);
        return NAN;
    }
    return hypot(z.re, z.im);
}

/* Python's x**2 and x**3: CPython's c_powu starts from r = 1 + 0j, takes
 * r*x for the exponent's low bit and then r times x*x.  Nonzero where
 * Python raises OverflowError, that is, where a part is infinite. */
static inline int overflowed(cplx z) { return isinf(z.re) || isinf(z.im); }

static inline int c_square(cplx x, cplx *out)
{
    *out = c_prod(c_1, c_prod(x, x));
    return overflowed(*out);
}

static inline int c_cube(cplx x, cplx *out)
{
    *out = c_prod(c_prod(c_1, x), c_prod(x, x));
    return overflowed(*out);
}

/* steady._rates_and_flow; nonzero on overflow.  Inlined into each of its
 * five calls, which gcc -O2 would not do, to save a third of an RK4 step */
static inline __attribute__((always_inline)) int
rates_and_flow(const coefficients *k, cplx a1, cplx a2, cplx *l1, cplx *l2,
               cplx *f1, cplx *f2)
{
    cplx p2, p3;
    double n1 = a1.re * a1.re + a1.im * a1.im;
    double n2 = a2.re * a2.re + a2.im * a2.im;
    *l1 = c_diff(c_prod(c_i, c_of(k->d1 + k->al1 * n1 + k->ax2 * n2)),
                 c_of(k->g1));
    *l2 = c_diff(c_prod(c_i, c_of(k->d2 + k->al2 * n2 + k->ax2 * n1)),
                 c_of(k->g2));
    if (c_square(c_conj(a1), &p2) || c_cube(a1, &p3))
        return 1;
    *f1 = c_sum(c_prod(*l1, a1), c_prod(c_prod(k->iat, p2), a2));
    *f2 = c_diff(c_sum(c_prod(*l2, a2), c_prod(k->iat3, p3)), k->idrive);
    return 0;
}

/* one RK4 step of dynamics._run_rk4; nonzero on overflow */
static int step_rk4(const coefficients *k, cplx *a1, cplx *a2)
{
    cplx l1, l2, k1a, k1b, k2a, k2b, k3a, k3b, k4a, k4b;
    const cplx half = c_of(0.5 * k->dt), whole = c_of(k->dt);
    const cplx sixth = c_of(k->dt / 6.0), two = c_of(2.0);
    if (rates_and_flow(k, *a1, *a2, &l1, &l2, &k1a, &k1b)
        || rates_and_flow(k, c_sum(*a1, c_prod(half, k1a)),
                          c_sum(*a2, c_prod(half, k1b)), &l1, &l2, &k2a, &k2b)
        || rates_and_flow(k, c_sum(*a1, c_prod(half, k2a)),
                          c_sum(*a2, c_prod(half, k2b)), &l1, &l2, &k3a, &k3b)
        || rates_and_flow(k, c_sum(*a1, c_prod(whole, k3a)),
                          c_sum(*a2, c_prod(whole, k3b)), &l1, &l2, &k4a, &k4b))
        return 1;
    *a1 = c_sum(*a1, c_prod(sixth, c_sum(c_sum(c_sum(k1a, c_prod(two, k2a)),
                                               c_prod(two, k3a)), k4a)));
    *a2 = c_sum(*a2, c_prod(sixth, c_sum(c_sum(c_sum(k1b, c_prod(two, k2b)),
                                               c_prod(two, k3b)), k4b)));
    return 0;
}

/* one ETD1 step of dynamics._run_etd1 with the normals x[0..3]; nonzero on
 * overflow */
static int step_etd1(const coefficients *k, cplx *a1, cplx *a2,
                     const double *x)
{
    cplx l1, l2, f1, f2, e1, e2;
    double y1, y2, h1, h2;
    const double dt = k->dt;
    if (rates_and_flow(k, *a1, *a2, &l1, &l2, &f1, &f2))
        return 1;
    y1 = l1.im * dt;
    y2 = l2.im * dt;
    if (isinf(y1) || isinf(y2))         /* math.sin raises ValueError */
        return 1;
    h1 = sin(0.5 * y1);
    h2 = sin(0.5 * y2);
    e1 = c_sum(c_of(k->em1 * cos(y1) - 2.0 * h1 * h1),
               c_prod(c_i, c_of(k->ex1 * sin(y1))));
    e2 = c_sum(c_of(k->em2 * cos(y2) - 2.0 * h2 * h2),
               c_prod(c_i, c_of(k->ex2 * sin(y2))));
    /* L = 0 needs Gamma = 0, where near is set and e = 0 takes dt */
    f1 = c_prod(f1, k->near1 != 0.0 && c_abs(e1) < k->tiny ? c_of(dt)
                                                           : c_quot(e1, l1));
    f2 = c_prod(f2, k->near2 != 0.0 && c_abs(e2) < k->tiny ? c_of(dt)
                                                           : c_quot(e2, l2));
    *a1 = c_sum(c_sum(*a1, f1),
                c_prod(c_of(k->s1), c_sum(c_of(x[0]), c_prod(c_i, c_of(x[1])))));
    *a2 = c_sum(c_sum(*a2, f2),
                c_prod(c_of(k->s2), c_sum(c_of(x[2]), c_prod(c_i, c_of(x[3])))));
    return 0;
}

/* dynamics._check_finite of one member */
static int beyond(cplx a1, cplx a2, double ceiling)
{
    double t1 = hypot(a1.re, a1.im), t2 = hypot(a2.re, a2.im);
    return !isfinite(t1) || !isfinite(t2) || t1 > ceiling || t2 > ceiling;
}

/* Steps `todo` more steps, from step `step` of `n_steps`, of every member
 * j0 <= j < j1 that has not stopped.  Every array holds all m members, so
 * calls on disjoint member ranges may run at once on the same arrays.
 *
 * state      (m, 2) complex: a1, a2 of each member, updated in place
 * out1, out2 (n_steps / store_every, m) complex: after step s, with s a
 *            multiple of store_every, row s / store_every - 1 takes it
 * draws      ETD1 only: (m, chunk, 4) normals, row i of member j feeding
 *            its step `step + i + 1`
 * fail       (m, 2): each member's stop, RUNS while it runs, else
 *            HIT_CEILING or OVERFLOWED and the step count the Python
 *            runner reports
 *
 * The ceiling is checked after each step that is a multiple of
 * check_every, and after the last.  Returns the number of members of the
 * range that stopped in this call.
 */
int64_t tripler_step(int64_t etd1, const coefficients *k, int64_t m,
                     int64_t j0, int64_t j1, cplx *state, int64_t step,
                     int64_t todo, int64_t n_steps, int64_t check_every,
                     int64_t store_every, cplx *out1, cplx *out2,
                     const double *draws, int64_t chunk, double ceiling,
                     int64_t *fail)
{
    int64_t stopped = 0;
    for (int64_t j = j0; j < j1; j++) {
        cplx a1 = state[2 * j], a2 = state[2 * j + 1];
        const double *x = etd1 ? draws + 4 * chunk * j : 0;
        /* the next row to store, and the steps to it and to the next
         * check, counted down in place of a division per step */
        int64_t row = step / store_every;
        int64_t to_store = store_every - step % store_every;
        int64_t to_check = check_every - step % check_every;
        if (fail[2 * j] != RUNS)
            continue;
        for (int64_t s = step + 1; s <= step + todo; s++) {
            if (etd1 ? step_etd1(k, &a1, &a2, x + 4 * (s - step - 1))
                     : step_rk4(k, &a1, &a2)) {
                fail[2 * j] = OVERFLOWED;
                /* _run_etd1 counts completed steps, _run_rk4 the current */
                fail[2 * j + 1] = etd1 ? s - 1 : s;
                break;
            }
            if (--to_store == 0) {
                out1[row * m + j] = a1;
                out2[row * m + j] = a2;
                row++;
                to_store = store_every;
            }
            if (--to_check == 0)
                to_check = check_every;
            if ((to_check == check_every || s == n_steps)
                && beyond(a1, a2, ceiling)) {
                fail[2 * j] = HIT_CEILING;
                fail[2 * j + 1] = s;
                break;
            }
        }
        state[2 * j] = a1;
        state[2 * j + 1] = a2;
        stopped += fail[2 * j] != RUNS;
    }
    return stopped;
}
