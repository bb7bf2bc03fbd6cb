(* Outside-in tracing of one repetition.  Every span is recorded from the
   benchmark's own code, around a call into a layer's public entry
   point: the installed switch program, the submit/stage entry points,
   each [run_until], and the barrier-window executor handed to
   [Cluster.run].  Nothing inside the simulator is instrumented.

   Per-traversal switch spans and per-window executor spans number in
   the millions, so they are folded into (count, total ns, minor words)
   accumulators; only the coarse spans (setup, each run_until, finish)
   are kept individually, in memory, and written out when the run
   ends. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns /. 1e9

type acc = { mutable count : int; mutable ns : int; mutable words : int }

let acc () = { count = 0; ns = 0; words = 0 }

type span = { id : int; parent : int; name : string; start_ns : int; stop_ns : int }

(* The only sharded workload runs a 2-lane team: the coordinating domain
   is lane 0 and the team's helper domain is lane 1. *)
let lanes = 2

type t = {
  rep : int;
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  switch : acc;  (* one entry per switch-program traversal *)
  submit : acc;  (* submit (live) or stage (pre-staged) calls *)
  run : acc;  (* control run_until calls *)
  windows : acc;  (* barrier windows fanned out by the executor *)
  lane_busy : int array;  (* ns of thunk time per lane *)
  window_lane : int array;  (* scratch: per-lane thunk ns of one window *)
  mutable barrier_wait_ns : int;
}

let main_domain = Domain.self ()

let create ~rep =
  {
    rep;
    spans = [];
    next_id = 1;
    switch = acc ();
    submit = acc ();
    run = acc ();
    windows = acc ();
    lane_busy = Array.make lanes 0;
    window_lane = Array.make lanes 0;
    barrier_wait_ns = 0;
  }

(* Span 0 is the whole repetition; every other span is its child. *)
let add_span t name start_ns stop_ns =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.spans <- { id; parent = 0; name; start_ns; stop_ns } :: t.spans

let close_rep t start_ns stop_ns =
  t.spans <- { id = 0; parent = -1; name = "rep"; start_ns; stop_ns } :: t.spans

let timed acc f =
  let t0 = now_ns () in
  let r = f () in
  acc.count <- acc.count + 1;
  acc.ns <- acc.ns + (now_ns () - t0);
  r

(* The switch program runs on whichever lane executes the switch LP, so
   the per-domain minor-word counter is read on the same domain on both
   sides of the call. *)
let wrap_program t program ctx pkt =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let out = program ctx pkt in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let a = t.switch in
  a.count <- a.count + 1;
  a.ns <- a.ns + (t1 - t0);
  a.words <- a.words + int_of_float (w1 -. w0);
  out

(* Wraps a barrier-window executor: each window's wall span, each
   thunk's time on the lane that ran it, and the barrier wait (window
   wall time minus the slowest lane's thunk time). *)
let wrap_executor t (run : (unit -> unit) array -> unit) thunks =
  Array.fill t.window_lane 0 lanes 0;
  let timed_thunks =
    Array.map
      (fun thunk () ->
        let t0 = now_ns () in
        thunk ();
        let d = now_ns () - t0 in
        let l = if Domain.self () = main_domain then 0 else 1 in
        t.window_lane.(l) <- t.window_lane.(l) + d)
      thunks
  in
  let t0 = now_ns () in
  run timed_thunks;
  let wall = now_ns () - t0 in
  let slowest = ref 0 in
  Array.iteri
    (fun l d ->
      t.lane_busy.(l) <- t.lane_busy.(l) + d;
      if d > !slowest then slowest := d)
    t.window_lane;
  t.windows.count <- t.windows.count + 1;
  t.windows.ns <- t.windows.ns + wall;
  t.barrier_wait_ns <- t.barrier_wait_ns + (wall - !slowest)

let span_json s =
  Printf.sprintf
    "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_ns\": %d, \"dur_ns\": %d}" s.id
    s.parent s.name s.start_ns (s.stop_ns - s.start_ns)

let acc_json name a =
  Printf.sprintf "%S: {\"count\": %d, \"total_ns\": %d, \"minor_words\": %d}" name a.count
    a.ns a.words

let to_json t =
  Printf.sprintf
    "{\"rep\": %d, \"spans\": [%s], \"aggregates\": {%s, %s, %s, %s}, \
     \"lane_busy_ns\": [%s], \"barrier_wait_ns\": %d}"
    t.rep
    (String.concat ", " (List.rev_map span_json t.spans))
    (acc_json "switch_program" t.switch)
    (acc_json "submit" t.submit) (acc_json "run_until" t.run)
    (acc_json "window" t.windows)
    (String.concat ", " (Array.to_list (Array.map string_of_int t.lane_busy)))
    t.barrier_wait_ns
