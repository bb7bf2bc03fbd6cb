/* splitmix64 core of Draconis_sim.Rng.

   The generator state is the 8-byte payload of an OCaml [bytes] value,
   so a draw updates it in place.  The native entry points take and
   return unboxed 64-bit values and never allocate: an OCaml function
   returning an [int64] or a [float] across a module boundary would box
   its result on every draw.  The [_byte] entry points serve the
   bytecode compiler, which always boxes. */

#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static inline uint64_t mix64(uint64_t z)
{
  z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
  z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
  return z ^ (z >> 31);
}

static inline uint64_t next(value state)
{
  uint64_t *s = (uint64_t *)Bytes_val(state);
  *s += UINT64_C(0x9E3779B97F4A7C15);
  return mix64(*s);
}

int64_t draconis_rng_mix(int64_t z) { return (int64_t)mix64((uint64_t)z); }

value draconis_rng_mix_byte(value z)
{
  return caml_copy_int64(draconis_rng_mix(Int64_val(z)));
}

int64_t draconis_rng_next(value state) { return (int64_t)next(state); }

value draconis_rng_next_byte(value state)
{
  return caml_copy_int64(draconis_rng_next(state));
}

/* 53 random bits into [0, 1). */
double draconis_rng_float(value state)
{
  return (double)(next(state) >> 11) * 0x1.0p-53;
}

value draconis_rng_float_byte(value state)
{
  return caml_copy_double(draconis_rng_float(state));
}
