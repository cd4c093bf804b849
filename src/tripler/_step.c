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
 * Both schemes step two members at once, one in each lane of a 16-byte
 * GCC vector of doubles (SSE2 on x86-64, NEON on aarch64, both in the base
 * instruction set, so no flag asks for them).  The bits still hold: a
 * vector operation is the scalar IEEE operation in each lane, the
 * operations come in the scalar order, and the flags forbid contraction in
 * vectors as in scalars.  Only libm (sin, cos, hypot) and CPython's
 * branching complex quotient run lane by lane, over the lanes in use.  A
 * lone member (an odd count) rides in both lanes, and lane 1 is discarded.
 *
 * Where Python raises (an infinite power, OverflowError; sin or cos of an
 * infinity, ValueError) the member stops and reports an overflow.
 */

#include <math.h>
#include <stdint.h>

typedef struct {
    double re, im;
} cplx;

/* two lanes of doubles, and a lane mask (all bits set in a true lane) */
typedef double lanes __attribute__((vector_size(16)));
typedef int64_t mask __attribute__((vector_size(16)));

/* the complex numbers of two members, lane by lane */
typedef struct {
    lanes re, im;
} cplx2;

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

/* CPython's _Py_c_quot; b is never zero here (see etd1_factor).  Inlined:
 * out of line, its result came back in two registers that the caller
 * stored and read back as one 16-byte vector, a failed store forwarding
 * that took about 40% of the ETD1 step's time */
static inline __attribute__((always_inline)) cplx c_quot(cplx a, cplx b)
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

/* CPython's _Py_c_abs, without its error, which |e| <= 3 never meets;
 * inlined as c_quot is */
static inline __attribute__((always_inline)) double c_abs(cplx z)
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

/* z in both lanes, and lane l of z */
static inline cplx2 both(cplx z)
{
    cplx2 r = {{z.re, z.re}, {z.im, z.im}};
    return r;
}

static inline cplx lane(cplx2 z, int l)
{
    cplx r = {z.re[l], z.im[l]};
    return r;
}

/* a where over is set, else b, lane by lane */
static inline cplx2 keep(mask over, cplx2 a, cplx2 b)
{
    cplx2 r = {(lanes)(((mask)a.re & over) | ((mask)b.re & ~over)),
               (lanes)(((mask)a.im & over) | ((mask)b.im & ~over))};
    return r;
}

/* the complex operations of two members, lane by lane */
static inline cplx2 c2_of(lanes x)
{
    cplx2 r = {x, {0.0, 0.0}};
    return r;
}

static inline cplx2 c2_sum(cplx2 a, cplx2 b)
{
    cplx2 r = {a.re + b.re, a.im + b.im};
    return r;
}

static inline cplx2 c2_diff(cplx2 a, cplx2 b)
{
    cplx2 r = {a.re - b.re, a.im - b.im};
    return r;
}

static inline cplx2 c2_prod(cplx2 a, cplx2 b)
{
    cplx2 r = {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
    return r;
}

static inline cplx2 c2_conj(cplx2 a)
{
    cplx2 r = {a.re, -a.im};
    return r;
}

/* Python's x**2 and x**3: CPython's c_powu starts from r = 1 + 0j, takes
 * r*x for the exponent's low bit and then r times x*x.  The mask is set in
 * the lanes where Python raises OverflowError, that is, where a part is
 * infinite. */
static inline mask infinite(cplx2 z)
{
    return (z.re == INFINITY) | (z.re == -INFINITY) | (z.im == INFINITY)
           | (z.im == -INFINITY);
}

static inline mask c2_square(cplx2 x, cplx2 *out)
{
    *out = c2_prod(both(c_1), c2_prod(x, x));
    return infinite(*out);
}

static inline mask c2_cube(cplx2 x, cplx2 *out)
{
    *out = c2_prod(c2_prod(both(c_1), x), c2_prod(x, x));
    return infinite(*out);
}

/* steady._rates_and_flow of two members; the mask is set in the lanes that
 * overflow, whose outputs mean nothing.  Inlined into each of its five
 * calls, which gcc -O2 would not do, to save a third of an RK4 step */
static inline __attribute__((always_inline)) mask
rates_and_flow(const coefficients *k, cplx2 a1, cplx2 a2, cplx2 *l1,
               cplx2 *l2, cplx2 *f1, cplx2 *f2)
{
    cplx2 p2, p3;
    const cplx2 i = both(c_i);
    const lanes n1 = a1.re * a1.re + a1.im * a1.im;
    const lanes n2 = a2.re * a2.re + a2.im * a2.im;
    mask over;
    *l1 = c2_diff(c2_prod(i, c2_of(k->d1 + k->al1 * n1 + k->ax2 * n2)),
                  both(c_of(k->g1)));
    *l2 = c2_diff(c2_prod(i, c2_of(k->d2 + k->al2 * n2 + k->ax2 * n1)),
                  both(c_of(k->g2)));
    over = c2_square(c2_conj(a1), &p2) | c2_cube(a1, &p3);
    *f1 = c2_sum(c2_prod(*l1, a1), c2_prod(c2_prod(both(k->iat), p2), a2));
    *f2 = c2_diff(c2_sum(c2_prod(*l2, a2), c2_prod(both(k->iat3), p3)),
                  both(k->idrive));
    return over;
}

/* one RK4 step of dynamics._run_rk4 of two members; the mask is set in the
 * lanes that overflow */
static inline mask step_rk4(const coefficients *k, cplx2 *a1, cplx2 *a2)
{
    cplx2 l1, l2, k1a, k1b, k2a, k2b, k3a, k3b, k4a, k4b;
    const cplx2 half = both(c_of(0.5 * k->dt)), whole = both(c_of(k->dt));
    const cplx2 sixth = both(c_of(k->dt / 6.0)), two = both(c_of(2.0));
    mask over = rates_and_flow(k, *a1, *a2, &l1, &l2, &k1a, &k1b);
    over |= rates_and_flow(k, c2_sum(*a1, c2_prod(half, k1a)),
                           c2_sum(*a2, c2_prod(half, k1b)), &l1, &l2, &k2a,
                           &k2b);
    over |= rates_and_flow(k, c2_sum(*a1, c2_prod(half, k2a)),
                           c2_sum(*a2, c2_prod(half, k2b)), &l1, &l2, &k3a,
                           &k3b);
    over |= rates_and_flow(k, c2_sum(*a1, c2_prod(whole, k3a)),
                           c2_sum(*a2, c2_prod(whole, k3b)), &l1, &l2, &k4a,
                           &k4b);
    *a1 = c2_sum(*a1, c2_prod(sixth, c2_sum(c2_sum(c2_sum(
        k1a, c2_prod(two, k2a)), c2_prod(two, k3a)), k4a)));
    *a2 = c2_sum(*a2, c2_prod(sixth, c2_sum(c2_sum(c2_sum(
        k1b, c2_prod(two, k2b)), c2_prod(two, k3b)), k4b)));
    return over;
}

/* expm1(L*dt)/L of one mode in one lane, from y = Im(L)*dt, as
 * dynamics._run_etd1 forms it.  Inlined, as c_quot is: out of line, it
 * made the step of a lone member about 8% slower */
static inline __attribute__((always_inline)) cplx
etd1_factor(const coefficients *k, cplx l, double y, double em, double ex,
            double near)
{
    const double h = sin(0.5 * y), re = em * cos(y) - 2.0 * h * h;
    const double im = ex * sin(y);
    /* complex(re, 0.0) + 1j * complex(im, 0.0): CPython's product and sum,
     * its exact 1.0*im and 1.0*0.0 written as im and 0.0 */
    const cplx e = {re + (0.0 * im - 0.0), 0.0 + (0.0 * 0.0 + im)};
    /* L = 0 needs Gamma = 0, where near is set and e = 0 takes dt */
    return near != 0.0 && c_abs(e) < k->tiny ? c_of(k->dt) : c_quot(e, l);
}

/* one ETD1 step of dynamics._run_etd1 of two members, n of them in use,
 * with the normals x[l][0..3] of lane l; the mask is set in the lanes that
 * overflow, where the flow does or the rate is infinite (math.sin raises
 * ValueError) */
static inline mask step_etd1(const coefficients *k, int n, cplx2 *a1,
                             cplx2 *a2, const double *const x[2])
{
    cplx2 l1, l2, f1, f2;
    mask over = rates_and_flow(k, *a1, *a2, &l1, &l2, &f1, &f2);
    /* the rates of both modes as one cplx2, so `infinite` tests both */
    const cplx2 y = {l1.im * k->dt, l2.im * k->dt};
    const cplx2 i = both(c_i);
    const lanes x0 = {x[0][0], x[1][0]}, x1 = {x[0][1], x[1][1]};
    const lanes x2 = {x[0][2], x[1][2]}, x3 = {x[0][3], x[1][3]};
    /* the factors of the lanes in use, 0 in a lone member's lane 1 */
    cplx g1[2] = {{0.0, 0.0}, {0.0, 0.0}}, g2[2] = {{0.0, 0.0}, {0.0, 0.0}};
    over |= infinite(y);
    for (int l = 0; l < n; l++) {
        g1[l] = etd1_factor(k, lane(l1, l), y.re[l], k->em1, k->ex1,
                            k->near1);
        g2[l] = etd1_factor(k, lane(l2, l), y.im[l], k->em2, k->ex2,
                            k->near2);
    }
    f1 = c2_prod(f1, (cplx2){{g1[0].re, g1[1].re}, {g1[0].im, g1[1].im}});
    f2 = c2_prod(f2, (cplx2){{g2[0].re, g2[1].re}, {g2[0].im, g2[1].im}});
    *a1 = c2_sum(c2_sum(*a1, f1), c2_prod(both(c_of(k->s1)),
                 c2_sum(c2_of(x0), c2_prod(i, c2_of(x1)))));
    *a2 = c2_sum(c2_sum(*a2, f2), c2_prod(both(c_of(k->s2)),
                 c2_sum(c2_of(x2), c2_prod(i, c2_of(x3)))));
    return over;
}

/* dynamics._check_finite of one member */
static int beyond(cplx a1, cplx a2, double ceiling)
{
    double t1 = hypot(a1.re, a1.im), t2 = hypot(a2.re, a2.im);
    return !isfinite(t1) || !isfinite(t2) || t1 > ceiling || t2 > ceiling;
}

/* the arguments of one tripler_step call (see there) */
typedef struct {
    const coefficients *k;
    int64_t m, step, todo, n_steps, check_every, store_every;
    cplx *state, *out1, *out2;
    const double *draws;
    int64_t chunk;
    double ceiling;
    int64_t *fail;
} call;

/* ETD1 (etd1 nonzero) or RK4 of members j[0] and j[1] (j[1] == j[0] for
 * a lone member) to the end of the call, or to the step at which either
 * stops.  An overflowed member keeps its state from before that step and
 * stores nothing of it, as its Python runner raises there.  Returns how
 * many of them stopped.  Inlined into one copy per scheme, where etd1 is a
 * constant, so RK4's loop does not test it. */
static inline __attribute__((always_inline)) int64_t
run_pair(const call *c, const int64_t j[2], const int etd1)
{
    /* a copy, which no store through out1 or out2 can alias, so that the
     * constants are not read again after each store */
    const coefficients k = *c->k;
    const int n = j[1] == j[0] ? 1 : 2;
    const cplx *s0 = c->state + 2 * j[0], *s1 = c->state + 2 * j[1];
    cplx2 a1 = {{s0[0].re, s1[0].re}, {s0[0].im, s1[0].im}};
    cplx2 a2 = {{s0[1].re, s1[1].re}, {s0[1].im, s1[1].im}};
    int64_t row = c->step / c->store_every;
    int64_t to_store = c->store_every - c->step % c->store_every;
    int64_t to_check = c->check_every - c->step % c->check_every;
    int64_t stopped = 0;
    for (int64_t s = c->step + 1; s <= c->step + c->todo && !stopped; s++) {
        cplx2 b1 = a1, b2 = a2;
        mask over;
        if (etd1) {
            const int64_t i = s - c->step - 1;    /* the draws' row */
            const double *const x[2] = {c->draws + 4 * (c->chunk * j[0] + i),
                                        c->draws + 4 * (c->chunk * j[1] + i)};
            over = step_etd1(&k, n, &b1, &b2, x);
        } else {
            over = step_rk4(&k, &b1, &b2);
        }
        if (over[0] | over[1]) {
            b1 = keep(over, a1, b1);
            b2 = keep(over, a2, b2);
        }
        a1 = b1;
        a2 = b2;
        if (--to_store == 0) {
            for (int l = 0; l < n; l++)
                if (!over[l]) {
                    c->out1[row * c->m + j[l]] = lane(a1, l);
                    c->out2[row * c->m + j[l]] = lane(a2, l);
                }
            row++;
            to_store = c->store_every;
        }
        if (--to_check == 0)
            to_check = c->check_every;
        for (int l = 0; l < n; l++) {
            int stop = over[l] ? OVERFLOWED : RUNS;
            if (!stop && (to_check == c->check_every || s == c->n_steps)
                && beyond(lane(a1, l), lane(a2, l), c->ceiling))
                stop = HIT_CEILING;
            if (stop) {
                c->fail[2 * j[l]] = stop;
                /* _run_etd1 counts completed steps, _run_rk4 the current */
                c->fail[2 * j[l] + 1] = etd1 && over[l] ? s - 1 : s;
                stopped++;
            }
        }
    }
    for (int l = 0; l < n; l++) {
        c->state[2 * j[l]] = lane(a1, l);
        c->state[2 * j[l] + 1] = lane(a2, l);
    }
    return stopped;
}

static int64_t rk4_pair(const call *c, const int64_t j[2])
{
    return run_pair(c, j, 0);
}

static int64_t etd1_pair(const call *c, const int64_t j[2])
{
    return run_pair(c, j, 1);
}

/* Steps `todo` more steps, from step `step` of `n_steps`, of every member
 * j0 <= j < j1 that has not stopped, two members at a time in the order of
 * j, by ETD1 if etd1 is nonzero, else by RK4.  Every array holds all m
 * members, so calls on disjoint member ranges may run at once on the same
 * arrays.
 *
 * state      (m, 2) complex: a1, a2 of each member, updated in place to
 *            its last completed step
 * out1, out2 (n_steps / store_every, m) complex: after step s, with s a
 *            multiple of store_every, row s / store_every - 1 takes it
 * draws      ETD1 only: (m, chunk, 4) normals, row i of member j feeding
 *            its step `step + i + 1`
 * fail       (m, 2): each member's stop, RUNS while it runs, else
 *            HIT_CEILING or OVERFLOWED and the step count the Python
 *            runner reports
 *
 * The ceiling is checked after each step that is a multiple of
 * check_every, and after the last.  A stop ends its pair at that step
 * (its partner could only stop later: an ETD1 overflow at the next step,
 * recorded at this one, would tie only a ceiling stop, and dynamics
 * checks the ETD1 ceiling only at a call's last step), and both members
 * are recorded if both stop there.  Returns the number of members that
 * stopped in this call.
 */
int64_t tripler_step(int64_t etd1, const coefficients *k, int64_t m,
                     int64_t j0, int64_t j1, cplx *state, int64_t step,
                     int64_t todo, int64_t n_steps, int64_t check_every,
                     int64_t store_every, cplx *out1, cplx *out2,
                     const double *draws, int64_t chunk, double ceiling,
                     int64_t *fail)
{
    const call c = {k, m, step, todo, n_steps, check_every, store_every,
                    state, out1, out2, draws, chunk, ceiling, fail};
    int64_t (*const run)(const call *, const int64_t *) =
        etd1 ? etd1_pair : rk4_pair;
    int64_t stopped = 0, pair[2], n = 0;
    for (int64_t j = j0; j < j1; j++) {
        if (fail[2 * j] != RUNS)
            continue;
        pair[n++] = j;
        if (n == 2) {
            stopped += run(&c, pair);
            n = 0;
        }
    }
    if (n == 1) {
        pair[1] = pair[0];
        stopped += run(&c, pair);
    }
    return stopped;
}
