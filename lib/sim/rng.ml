(* The state is the 8-byte payload of a [bytes]; the splitmix64 step
   lives in rng_stubs.c so draws neither box the state nor their
   result. *)
type t = Bytes.t

external mix : (int64[@unboxed]) -> (int64[@unboxed])
  = "draconis_rng_mix_byte" "draconis_rng_mix"
[@@noalloc]

external next : t -> (int64[@unboxed]) = "draconis_rng_next_byte" "draconis_rng_next"
[@@noalloc]

external float : t -> (float[@unboxed]) = "draconis_rng_float_byte" "draconis_rng_float"
[@@noalloc]

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))
let bits64 t = next t
let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^63,
     so bias is negligible for simulation purposes. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let bool t = Int64.logand (next t) 1L = 1L
