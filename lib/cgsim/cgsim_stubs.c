/* Memcpy-class primitives for the unboxed data plane.

   Two things live here, both chosen because the pure-OCaml spelling
   allocates or refuses to vectorize:

   - f32 rounding: OCaml has no float32, so rounding through
     Int32.bits_of_float boxes an Int32 per element.  The C cast
     double->float->double is the same IEEE operation with no
     allocation, and the [@unboxed] external keeps the argument and
     result in FP registers.

   - segment copies between OCaml native arrays and bigarray rings:
     the monomorphic OCaml loops are already inline loads/stores, but
     the C versions compile to memcpy (f64) or a vectorized convert
     loop (f32, int), which is what pushes a block hop under the
     2 ns/element budget.

   Argument order, as declared in ring.ml: stores into the ring are
   (ba, src, soff, idx, len), loads out of it are (ba, dst, idx, doff,
   len).

   Layout assumptions, all guaranteed by the runtime this builds
   against: float arrays are flat (FLAT_FLOAT_ARRAY is the default),
   int array fields are tagged longs, bigarrays expose their payload
   via Caml_ba_data_val.  No stub allocates, raises, or triggers the
   GC, hence the [@@noalloc] on every external. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <string.h>

double cgsim_round_f32(double x) { return (double)(float)x; }

value cgsim_round_f32_byte(value x)
{
  return caml_copy_double((double)(float)Double_val(x));
}

/* float array segment -> float32 ring */
value cgsim_floats_to_f32(value vba, value vsrc, value vsoff, value vidx, value vlen)
{
  float *ba = (float *)Caml_ba_data_val(vba) + Long_val(vidx);
  const double *src = (const double *)vsrc + Long_val(vsoff);
  intnat len = Long_val(vlen);
  for (intnat i = 0; i < len; i++) ba[i] = (float)src[i];
  return Val_unit;
}

/* float32 ring -> float array segment */
value cgsim_f32_to_floats(value vba, value vdst, value vidx, value vdoff, value vlen)
{
  const float *ba = (const float *)Caml_ba_data_val(vba) + Long_val(vidx);
  double *dst = (double *)vdst + Long_val(vdoff);
  intnat len = Long_val(vlen);
  for (intnat i = 0; i < len; i++) dst[i] = (double)ba[i];
  return Val_unit;
}

/* float array segment -> float64 ring (straight memcpy) */
value cgsim_floats_to_f64(value vba, value vsrc, value vsoff, value vidx, value vlen)
{
  double *ba = (double *)Caml_ba_data_val(vba) + Long_val(vidx);
  const double *src = (const double *)vsrc + Long_val(vsoff);
  memcpy(ba, src, (size_t)Long_val(vlen) * sizeof(double));
  return Val_unit;
}

/* float64 ring -> float array segment (straight memcpy) */
value cgsim_f64_to_floats(value vba, value vdst, value vidx, value vdoff, value vlen)
{
  const double *ba = (const double *)Caml_ba_data_val(vba) + Long_val(vidx);
  double *dst = (double *)vdst + Long_val(vdoff);
  memcpy(dst, ba, (size_t)Long_val(vlen) * sizeof(double));
  return Val_unit;
}

/* int array segment -> int ring (untag per element) */
value cgsim_ints_to_iba(value vba, value vsrc, value vsoff, value vidx, value vlen)
{
  intnat *ba = (intnat *)Caml_ba_data_val(vba) + Long_val(vidx);
  const value *src = (const value *)vsrc + Long_val(vsoff);
  intnat len = Long_val(vlen);
  for (intnat i = 0; i < len; i++) ba[i] = Long_val(src[i]);
  return Val_unit;
}

/* int ring -> int array segment (retag per element) */
value cgsim_iba_to_ints(value vba, value vdst, value vidx, value vdoff, value vlen)
{
  const intnat *ba = (const intnat *)Caml_ba_data_val(vba) + Long_val(vidx);
  value *dst = (value *)vdst + Long_val(vdoff);
  intnat len = Long_val(vlen);
  for (intnat i = 0; i < len; i++) dst[i] = Val_long(ba[i]);
  return Val_unit;
}

/* int array segment -> int ring with an inclusive range check; returns
   the first offending source offset, or -1 if the whole segment
   landed.  The check rides the copy loop so a clean segment still runs
   at memcpy-class speed, and a violation is reported before the caller
   publishes the segment. */
value cgsim_ints_to_iba_checked(value vba, value vsrc, value vsoff, value vidx,
                                value vlen, value vlo, value vhi)
{
  intnat *ba = (intnat *)Caml_ba_data_val(vba) + Long_val(vidx);
  const value *src = (const value *)vsrc + Long_val(vsoff);
  intnat len = Long_val(vlen);
  intnat lo = Long_val(vlo), hi = Long_val(vhi);
  for (intnat i = 0; i < len; i++) {
    intnat v = Long_val(src[i]);
    if (v < lo || v > hi) return Val_long(Long_val(vsoff) + i);
    ba[i] = v;
  }
  return Val_long(-1);
}

value cgsim_ints_to_iba_checked_byte(value *argv, int argn)
{
  (void)argn;
  return cgsim_ints_to_iba_checked(argv[0], argv[1], argv[2], argv[3],
                                   argv[4], argv[5], argv[6]);
}
