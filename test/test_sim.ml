(* Tests for Time, Rng, Dist, and the Engine event loop. *)

open Draconis_sim

(* -- Time ------------------------------------------------------------------ *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Time.ms 1);
  Alcotest.(check int) "s" 1_000_000_000 (Time.s 1);
  Alcotest.(check int) "us_f rounds" 1_500 (Time.us_f 1.5);
  Alcotest.(check (float 1e-9)) "to_us" 2.5 (Time.to_us 2_500);
  Alcotest.(check (float 1e-9)) "to_s" 1.0 (Time.to_s (Time.s 1))

let test_time_pp () =
  let render t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "ns" "42ns" (render 42);
  Alcotest.(check string) "us" "4.20us" (render 4_200);
  Alcotest.(check string) "ms" "3.50ms" (render 3_500_000);
  Alcotest.(check string) "s" "2.000s" (render (Time.s 2))

(* -- Rng -------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent in
  Alcotest.(check bool) "split differs from parent" false
    (Rng.bits64 parent = Rng.bits64 child)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create ~seed:13 in
  for _ = 1 to 1_000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

(* Each draw kind, rendered the way [Rng_golden] records it. *)
let golden_draw = function
  | "bits64" -> fun g -> Printf.sprintf "%Lx" (Rng.bits64 g)
  | "int" -> fun g -> string_of_int (Rng.int g 1_000_000)
  | "float" -> fun g -> Printf.sprintf "%h" (Rng.float g)
  | "bool" -> fun g -> if Rng.bool g then "1" else "0"
  | "split" -> fun g -> Printf.sprintf "%Lx" (Rng.bits64 (Rng.split g))
  | kind -> Alcotest.failf "unknown golden draw %S" kind

let test_rng_golden_stream () =
  List.iter
    (fun (kind, seed, expected) ->
      let expected =
        String.split_on_char ' ' (String.concat " " (String.split_on_char '\n' expected))
        |> List.filter (( <> ) "")
      in
      Alcotest.(check int) "64 outputs pinned" 64 (List.length expected);
      let draw = golden_draw kind in
      let g = Rng.create ~seed in
      List.iteri
        (fun i want ->
          Alcotest.(check string) (Printf.sprintf "%s seed=%d #%d" kind seed i) want (draw g))
        expected)
    Rng_golden.streams

let test_rng_draws_allocate_nothing () =
  let g = Rng.create ~seed:5 in
  let ints = ref 0 and floats = ref 0.0 in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ints := !ints + Rng.int g 1_000;
    floats := !floats +. Rng.float g
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over 10k int and float draws" 0.0
    (after -. before);
  (* Keep the draws live: the sums of 10k uniform draws sit near half
     their range. *)
  Alcotest.(check bool) "int draws used" true (!ints > 4_000_000 && !ints < 6_000_000);
  Alcotest.(check bool) "float draws used" true (!floats > 4_000.0 && !floats < 6_000.0)

let prop_rng_int_covers =
  QCheck.Test.make ~name:"Rng.int eventually hits every residue" ~count:20
    QCheck.(int_range 2 8)
    (fun bound ->
      let rng = Rng.create ~seed:bound in
      let seen = Array.make bound false in
      for _ = 1 to 1_000 do
        seen.(Rng.int rng bound) <- true
      done;
      Array.for_all Fun.id seen)

(* -- Dist -------------------------------------------------------------------- *)

let test_dist_constant () =
  let rng = Rng.create ~seed:1 in
  Alcotest.(check int) "constant" 42 (Dist.constant 42 rng)

let test_dist_uniform_bounds () =
  let rng = Rng.create ~seed:2 in
  let dist = Dist.uniform ~lo:10 ~hi:20 in
  for _ = 1 to 500 do
    let v = dist rng in
    if v < 10 || v > 20 then Alcotest.fail "uniform out of bounds"
  done

let test_dist_exponential_mean () =
  let rng = Rng.create ~seed:3 in
  let mean = Dist.mean_estimate (Dist.exponential ~mean:250_000) rng ~n:50_000 in
  Alcotest.(check bool) "mean within 5%" true (abs_float (mean -. 250_000.) < 12_500.)

let test_dist_bimodal_mix () =
  let rng = Rng.create ~seed:4 in
  let dist = Dist.bimodal (100, 0.5) 500 in
  let short = ref 0 in
  for _ = 1 to 10_000 do
    if dist rng = 100 then incr short
  done;
  Alcotest.(check bool) "roughly half short" true (abs (!short - 5_000) < 400)

let test_dist_pareto_min () =
  let rng = Rng.create ~seed:5 in
  let dist = Dist.pareto ~scale:1_000 ~alpha:1.5 in
  for _ = 1 to 1_000 do
    if dist rng < 1_000 then Alcotest.fail "pareto below scale"
  done

let prop_dist_nonnegative =
  QCheck.Test.make ~name:"all distributions sample non-negative durations"
    ~count:100
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 5))
    (fun (mean, pick) ->
      let rng = Rng.create ~seed:(mean + pick) in
      let dist =
        match pick with
        | 0 -> Dist.constant mean
        | 1 -> Dist.uniform ~lo:0 ~hi:mean
        | 2 -> Dist.exponential ~mean
        | 3 -> Dist.lognormal ~mu:(log (float_of_int mean)) ~sigma:1.0
        | 4 -> Dist.pareto ~scale:(max 1 mean) ~alpha:1.2
        | _ -> Dist.scale 0.5 (Dist.constant mean)
      in
      let ok = ref true in
      for _ = 1 to 50 do
        if dist rng < 0 then ok := false
      done;
      !ok)

(* -- Engine ------------------------------------------------------------------ *)

let test_engine_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule engine ~after:30 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule engine ~after:10 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule engine ~after:20 (fun () -> log := 2 :: !log));
  Engine.run engine;
  Alcotest.(check (list int)) "timestamp order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 30 (Engine.now engine)

let test_engine_fifo_ties () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule engine ~after:10 (fun () -> log := i :: !log))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "ties in submission order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_nested_schedule () =
  let engine = Engine.create () in
  let fired = ref [] in
  ignore
    (Engine.schedule engine ~after:5 (fun () ->
         fired := `Outer :: !fired;
         ignore (Engine.schedule engine ~after:5 (fun () -> fired := `Inner :: !fired))));
  Engine.run engine;
  Alcotest.(check int) "both fired" 2 (List.length !fired);
  Alcotest.(check int) "clock" 10 (Engine.now engine)

let test_engine_until () =
  let engine = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule engine ~after:(i * 10) (fun () -> incr count))
  done;
  Engine.run ~until:50 engine;
  Alcotest.(check int) "events up to 50 only" 5 !count;
  Alcotest.(check int) "clock clamped to until" 50 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "rest run" 10 !count

let test_engine_until_advances_clock_when_empty () =
  let engine = Engine.create () in
  Engine.run ~until:1_000 engine;
  Alcotest.(check int) "clock advanced to until" 1_000 (Engine.now engine)

let test_engine_until_advances_past_horizon_queue () =
  (* Regression: queued events strictly beyond the horizon must not keep
     the clock from reaching [until], even when this call executes
     nothing at all. *)
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~after:100 ignore);
  Engine.run ~until:50 engine;
  Alcotest.(check int) "clock at horizon, future event queued" 50 (Engine.now engine);
  Engine.run ~until:60 engine;
  Alcotest.(check int) "zero-event call still advances" 60 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "queued event still fires" 100 (Engine.now engine)

let test_engine_until_max_events_past_horizon () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule engine ~after:10 (fun () -> incr fired));
  ignore (Engine.schedule engine ~after:100 (fun () -> incr fired));
  (* The budget runs out, but all remaining work lies beyond the
     horizon, so the clock must still land on [until]. *)
  Engine.run ~until:50 ~max_events:1 engine;
  Alcotest.(check int) "one event ran" 1 !fired;
  Alcotest.(check int) "clock at horizon" 50 (Engine.now engine);
  (* With work still due before the horizon, an exhausted budget leaves
     the clock at the last executed event instead. *)
  let engine2 = Engine.create () in
  ignore (Engine.schedule engine2 ~after:10 ignore);
  ignore (Engine.schedule engine2 ~after:20 ignore);
  Engine.run ~until:50 ~max_events:1 engine2;
  Alcotest.(check int) "clock at last executed event" 10 (Engine.now engine2)

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let handle = Engine.schedule engine ~after:10 (fun () -> fired := true) in
  Engine.cancel engine handle;
  Alcotest.(check bool) "marked cancelled" true (Engine.cancelled engine handle);
  Engine.run engine;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_engine_stale_cancel_is_safe () =
  (* A handle whose event already fired must stay inert even after its
     pooled slot has been recycled by newer events. *)
  let engine = Engine.create () in
  let stale = Engine.schedule engine ~after:1 ignore in
  Engine.run engine;
  let fired = ref 0 in
  (* Enough fresh events to cycle the freelist through the old slot. *)
  let fresh =
    List.init 64 (fun i -> Engine.schedule engine ~after:(10 + i) (fun () -> incr fired))
  in
  Engine.cancel engine stale;
  Alcotest.(check bool) "stale handle not cancelled" false
    (Engine.cancelled engine stale);
  Engine.run engine;
  Alcotest.(check int) "no fresh event lost to the stale cancel"
    (List.length fresh) !fired

let test_engine_past_raises () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~after:10 (fun () -> ()));
  Engine.run engine;
  (match Engine.schedule_at engine ~at:5 (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scheduling in the past must raise");
  match Engine.schedule engine ~after:(-1) (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay must raise"

let test_engine_every () =
  let engine = Engine.create () in
  let count = ref 0 in
  Engine.every engine ~interval:10 ~until:55 (fun () -> incr count);
  Engine.run engine;
  Alcotest.(check int) "periodic fires floor(55/10) times" 5 !count

let test_engine_max_events () =
  let engine = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule engine ~after:i (fun () -> incr count))
  done;
  Engine.run ~max_events:3 engine;
  Alcotest.(check int) "bounded" 3 !count

let prop_engine_executes_all =
  QCheck.Test.make ~name:"engine executes every scheduled event exactly once"
    ~count:100
    QCheck.(list (int_range 0 10_000))
    (fun delays ->
      let engine = Engine.create () in
      let count = ref 0 in
      List.iter
        (fun d -> ignore (Engine.schedule engine ~after:d (fun () -> incr count)))
        delays;
      Engine.run engine;
      !count = List.length delays && Engine.executed engine = List.length delays)

let suite =
  [
    Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "time pretty-printing" `Quick test_time_pp;
    Alcotest.test_case "rng determinism" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng golden stream" `Quick test_rng_golden_stream;
    Alcotest.test_case "rng draws allocate nothing" `Quick test_rng_draws_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_rng_int_covers;
    Alcotest.test_case "dist constant" `Quick test_dist_constant;
    Alcotest.test_case "dist uniform bounds" `Quick test_dist_uniform_bounds;
    Alcotest.test_case "dist exponential mean" `Quick test_dist_exponential_mean;
    Alcotest.test_case "dist bimodal mix" `Quick test_dist_bimodal_mix;
    Alcotest.test_case "dist pareto minimum" `Quick test_dist_pareto_min;
    QCheck_alcotest.to_alcotest prop_dist_nonnegative;
    Alcotest.test_case "engine timestamp order" `Quick test_engine_order;
    Alcotest.test_case "engine FIFO on ties" `Quick test_engine_fifo_ties;
    Alcotest.test_case "engine nested scheduling" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine run ~until" `Quick test_engine_until;
    Alcotest.test_case "engine until advances empty clock" `Quick
      test_engine_until_advances_clock_when_empty;
    Alcotest.test_case "engine until advances past-horizon queue" `Quick
      test_engine_until_advances_past_horizon_queue;
    Alcotest.test_case "engine until with exhausted max_events" `Quick
      test_engine_until_max_events_past_horizon;
    Alcotest.test_case "engine cancellation" `Quick test_engine_cancel;
    Alcotest.test_case "engine stale cancel is inert" `Quick
      test_engine_stale_cancel_is_safe;
    Alcotest.test_case "engine rejects past/negative" `Quick test_engine_past_raises;
    Alcotest.test_case "engine periodic events" `Quick test_engine_every;
    Alcotest.test_case "engine max_events" `Quick test_engine_max_events;
    QCheck_alcotest.to_alcotest prop_engine_executes_all;
  ]
