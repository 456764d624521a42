/* The fp32 lane loops of Aie.Vec.

   Kernel bodies spend most of a cgsim run in these ops.  In OCaml each
   fp32 lane costs a loop step plus a C call to round the result to
   single precision, and under the -opaque dev build nothing unrolls or
   vectorises that loop.  Here a lane is a few instructions.

   The OCaml side runs every check first (lane counts, aliasing, the
   scalar lane, the select mask) and passes the lane count [n], so the
   loops index without bounds checks.  The one check left here is the
   shuffle's per-lane index test: the stub returns the first bad lane,
   or -1, after writing the lanes before it.

   Bit-for-bit contract with the OCaml loops these replaced:

   - every arithmetic result is rounded with (double)(float), the cast
     Cgsim.Value.round_f32 performs;
   - a NaN result carries the NaN the OCaml loops produced on x86-64,
     where the left operand's NaN wins: the left operand of an add,
     subtract or multiply, and in fmac the product over the
     accumulator (ocamlopt computed acc + a*b as a*b + [acc], with acc
     as the memory operand).  C leaves the operand order of + and * to
     the compiler, so the loops compute plainly and fix a NaN lane up
     with [left_nan];
   - fmac_scalar rounds its scalar first and keeps it as the first
     multiplicand, so it is bit for bit fmac over the scalar's splat;
   - this file is built with -ffp-contract=off: GCC's default would
     fuse acc + a*b into one FMA wherever the target has one (aarch64
     always, x86-64 from -march=haswell), and a fused result differs;
   - max and min are x >= y ? x : y and x <= y ? x : y, so a NaN in
     either lane gives the second operand (libm's fmax differs);
   - lane-wise ops read lane i of every operand before writing lane i
     of dst, so dst may be one of their operands.  Two OCaml arrays are
     either the same block or disjoint, so no other overlap can occur.

   Float arrays must be flat (FLAT_FLOAT_ARRAY, the default, which
   cgsim_stubs.c relies on too).  No stub allocates, raises or triggers
   the GC, hence the [@@noalloc] on every external in vec.ml. */

#include <caml/mlvalues.h>
#include <math.h>
#include <string.h>

#ifndef FLAT_FLOAT_ARRAY
#error "Aie.Vec's lane loops need flat float arrays (FLAT_FLOAT_ARRAY)"
#endif

#define LANES(v) ((double *)(v))

static inline double r32(double x) { return (double)(float)x; }

/* [r] is x op y.  When it is NaN, x86-64 returns the left operand's NaN
   if there is one, else the right's (quieted; the final r32 quiets
   anyway), else a NaN of its own, whatever the order. */
static inline double left_nan(double x, double y, double r)
{
  return isnan(x) ? x : isnan(y) ? y : r;
}

value aie_fsplat(value vdst, value vn, double s)
{
  double *d = LANES(vdst);
  intnat n = Long_val(vn);
  s = r32(s);
  for (intnat i = 0; i < n; i++) d[i] = s;
  return Val_unit;
}

value aie_fsplat_byte(value vdst, value vn, value vs)
{
  return aie_fsplat(vdst, vn, Double_val(vs));
}

/* x op y rounded to f32, with the NaN of [left_nan]. */
#define ROUNDED(fn, op)                                                 \
  static inline double fn(double x, double y)                           \
  {                                                                     \
    double r = x op y;                                                  \
    if (isnan(r)) r = left_nan(x, y, r);                                \
    return r32(r);                                                      \
  }

ROUNDED(add, +)
ROUNDED(sub, -)
ROUNDED(mul, *)

#define LANEWISE(name, lane)                                            \
  value name(value vdst, value va, value vb, value vn)                  \
  {                                                                     \
    double *d = LANES(vdst);                                            \
    const double *a = LANES(va), *b = LANES(vb);                        \
    intnat n = Long_val(vn);                                            \
    for (intnat i = 0; i < n; i++) {                                    \
      double x = a[i], y = b[i];                                        \
      d[i] = (lane);                                                    \
    }                                                                   \
    return Val_unit;                                                    \
  }

LANEWISE(aie_fadd, add(x, y))
LANEWISE(aie_fsub, sub(x, y))
LANEWISE(aie_fmul, mul(x, y))
LANEWISE(aie_fmax, x >= y ? x : y)
LANEWISE(aie_fmin, x <= y ? x : y)

/* acc + x*y, with the product's NaN ahead of the accumulator's. */
static inline double mac(double acc, double x, double y)
{
  double p = x * y, r = acc + p;
  if (isnan(r)) r = left_nan(left_nan(x, y, p), acc, r);
  return r32(r);
}

value aie_fmac(value vdst, value vacc, value va, value vb, value vn)
{
  double *d = LANES(vdst);
  const double *acc = LANES(vacc), *a = LANES(va), *b = LANES(vb);
  intnat n = Long_val(vn);
  for (intnat i = 0; i < n; i++) d[i] = mac(acc[i], a[i], b[i]);
  return Val_unit;
}

value aie_fmac_scalar(value vdst, value vacc, double s, value vb, value vn)
{
  double *d = LANES(vdst);
  const double *acc = LANES(vacc), *b = LANES(vb);
  intnat n = Long_val(vn);
  s = r32(s);
  for (intnat i = 0; i < n; i++) d[i] = mac(acc[i], s, b[i]);
  return Val_unit;
}

value aie_fmac_scalar_byte(value vdst, value vacc, value vs, value vb, value vn)
{
  return aie_fmac_scalar(vdst, vacc, Double_val(vs), vb, vn);
}

/* [vidx] is an int array of [n] lanes, [vv] has [vlen] lanes. */
value aie_fshuffle(value vdst, value vv, value vidx, value vn, value vlen)
{
  double *d = LANES(vdst);
  const double *v = LANES(vv);
  intnat n = Long_val(vn), len = Long_val(vlen);
  for (intnat i = 0; i < n; i++) {
    intnat j = Long_val(Field(vidx, i));
    if (j < 0 || j >= len) return Val_long(i);
    d[i] = v[j];
  }
  return Val_long(-1);
}

/* [vmask] is a bool array of [n] lanes. */
value aie_fselect(value vdst, value vmask, value va, value vb, value vn)
{
  double *d = LANES(vdst);
  const double *a = LANES(va), *b = LANES(vb);
  intnat n = Long_val(vn);
  for (intnat i = 0; i < n; i++) d[i] = Bool_val(Field(vmask, i)) ? a[i] : b[i];
  return Val_unit;
}

/* The halving tree Intrinsics.fpsum charges: each level adds the upper
   half of the live lanes onto the lower half, an odd middle lane
   carrying over. */
value aie_fsum(value vdst, value vv, value vn)
{
  double *d = LANES(vdst);
  intnat n = Long_val(vn);
  if (vdst != vv) memcpy(d, LANES(vv), (size_t)n * sizeof(double));
  for (intnat w = n; w > 1;) {
    intnat h = (w + 1) / 2;
    for (intnat i = 0; i < w - h; i++) d[i] = add(d[i], d[i + h]);
    w = h;
  }
  return Val_unit;
}
