(* Draconis simulator benchmark.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload on the real Cluster data path, repeating it (a
   fresh cluster per repetition, same seed) for about S host seconds,
   and checks every repetition's simulated outcome.  With --trace 0 it
   prints the end-to-end metrics; with --trace 1 a separate, traced set
   of repetitions gives the per-layer metrics.  The last line of stdout
   is one JSON object: {"correct", "attempted", "failed", "metrics"}.
   The exit code is non-zero when any correctness check fails.

   "Host" numbers are wall-clock seconds of the machine running the
   simulator; "sim" numbers are simulated time. *)

open Draconis_sim
open Draconis
module H = Draconis_harness
module Systems = H.Systems
module Pool = H.Pool
module Pipeline = Draconis_p4.Pipeline
module Fabric = Draconis_net.Fabric
module Obs = Draconis_obs
module W = Workloads

(* A second seed, never used while tuning the benchmark, for re-checking
   a claimed gain (README.md, "Seeds"). *)
let held_out_seed = 271_828

(* The highest percentile reported needs ten samples beyond it. *)
let p999_min_samples = 10_000

let drain_step = Time.us 10

(* Set-up takes milliseconds, so a run samples it separately, a fixed
   number of times after the measured repeats: mixing in the repeats'
   own set-ups would make the median depend on how many repeats fit in
   the run, and they start from a different heap. *)
let setup_samples = 15

(* The telemetry-on probe re-runs queue-heavy's configuration for this
   long in every traced run (README.md, "obs"). *)
let obs_probe_horizon = Time.ms 100
let obs_probe_rounds = 3

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "median of nothing"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ---------- driving one cluster ---------- *)

type executor = Team | Inline

let lanes w = match w.W.shards with None -> 1 | Some n -> max 1 (min n (Pool.jobs ()))

(* The same barrier-window control as [Systems] builds for a sharded
   cluster, but with an executor the benchmark chooses: a traced team,
   or none at all (inline, the deterministic reference). *)
let sharded_control (running : Systems.running) cluster sync ?executor ~close () =
  let now () =
    Array.fold_left (fun acc lp -> max acc (Engine.now (Lp.engine lp))) Time.zero
      (Sync.lps sync)
  in
  let run_until until = Cluster.run ?executor cluster ~until in
  {
    running.control with
    run_until;
    now;
    finish = (fun () -> run_until (now () + (2 * Sync.lookahead sync)));
    close;
  }

type setup = {
  cluster : Cluster.t;
  control : Systems.control;
  staged : bool;
  setup_ns : int;
}

(* Build and start the cluster and hand it the whole workload: live
   submissions scheduled on the engine, or the pre-staged replay on a
   sharded cluster.  This is exactly what setup_s times. *)
let setup w ~seed ~executor ~(tr : Layers.t option) =
  let t0 = Layers.now_ns () in
  let cluster, running =
    Systems.draconis_cluster
      ~policy_of:(fun _ -> w.W.policy)
      ~queue_capacity:w.W.queue_capacity ~pipeline_config:w.W.pipeline_config
      ?shards:w.W.shards (W.spec seed)
  in
  let control =
    match (Cluster.sync cluster, executor, tr) with
    | None, _, _ | Some _, Team, None -> running.control
    | Some sync, _, _ ->
      running.control.close ();
      let team =
        match executor with
        | Team -> Some (Pool.Team.create ~size:(lanes w))
        | Inline -> None
      in
      let executor =
        Option.map
          (fun team ->
            let run = Pool.Team.run team in
            match tr with Some tr -> Layers.wrap_executor tr run | None -> run)
          team
      in
      sharded_control running cluster sync ?executor
        ~close:(fun () -> Option.iter Pool.Team.shutdown team)
        ()
  in
  Option.iter
    (fun tr ->
      Pipeline.set_program (Cluster.pipeline cluster)
        (Layers.wrap_program tr (Switch_program.program (Cluster.program cluster))))
    tr;
  let timed f =
    match tr with None -> f | Some tr -> fun x -> Layers.timed tr.submit (fun () -> f x)
  in
  let rng = Rng.create ~seed:(H.Runner.workload_seed ()) in
  (match running.control.stage with
  | None -> W.driver w running.engine rng ~submit:(timed running.submit)
  | Some stage ->
    let staging = Engine.create () in
    W.driver w staging rng
      ~submit:(timed (fun tasks -> stage ~at:(Engine.now staging) tasks));
    Engine.run ~until:w.W.horizon staging);
  let setup_ns = Layers.now_ns () - t0 in
  Option.iter (fun tr -> Layers.add_span tr "setup" t0 (t0 + setup_ns)) tr;
  { cluster; control; staged = Option.is_some running.control.stage; setup_ns }

(* ---------- one repetition ---------- *)

type rep = {
  run_wall_s : float;
  drained : bool;
  fingerprint : string;
  submitted : int;
  started : int;
  completed : int;
  rejected : int;
  abandoned : int;
  resubmitted : int;
  bounces : int;
  events : int;
  sched_count : int;
  p50 : int;
  p99 : int;
  p999 : int;
  delivered : int;
  lost : int;
  traversals : int;
  recirculated : int;
  recirc_dropped : int;
  emitted : int;
  assignments : int;
  noops : int;
  swaps : int;
  resubmissions : int;
  repairs : int;
  rejected_tasks : int;
  renumbers : int;
  rank_clamps : int;
  exec_busy_frac : float;
  windows : int;
  lp_posted : int;
  minor_words : float;
  minor_collections : int;
  major_collections : int;
  staged : bool;
  pifo_backend : bool;
  layers : Layers.t option;
}

let gc_now () =
  Gc.minor ();
  Gc.quick_stat ()

let run_rep w ~seed ~executor ~trace ~rep ~force_undrained =
  Gc.full_major ();
  let tr = if trace then Some (Layers.create ~rep) else None in
  let t_rep0 = Layers.now_ns () in
  let s = setup w ~seed ~executor ~tr in
  let gc0 = gc_now () in
  let t_run0 = Layers.now_ns () in
  let run_until until =
    match tr with
    | None -> s.control.run_until until
    | Some tr ->
      let t0 = Layers.now_ns () in
      Layers.timed tr.run (fun () -> s.control.run_until until);
      Layers.add_span tr "run_until" t0 (Layers.now_ns ())
  in
  run_until w.W.horizon;
  (* Drain like the experiment runner, up to four horizons past the end
     of submissions, but in steps of [drain_step] rather than 1 ms: the
     run then stops within 10 us of the last completion, instead of
     polling idly for a seed-dependent part of a millisecond. *)
  let deadline = if force_undrained then w.W.horizon else 5 * w.W.horizon in
  let rec drain () =
    if Cluster.outstanding s.cluster = 0 then true
    else if s.control.now () >= deadline then false
    else begin
      run_until (min deadline (s.control.now () + drain_step));
      drain ()
    end
  in
  let drained = drain () in
  let t_fin0 = Layers.now_ns () in
  s.control.finish ();
  let t_run1 = Layers.now_ns () in
  Option.iter
    (fun tr ->
      Layers.add_span tr "finish" t_fin0 t_run1;
      Layers.close_rep tr t_rep0 t_run1)
    tr;
  let sim_end = s.control.now () in
  (* Joins the team's lanes, so the GC counters below include every
     domain that ran part of this repetition. *)
  s.control.close ();
  let gc1 = gc_now () in
  let c = s.cluster in
  let m = Cluster.metrics c in
  let delays = Metrics.scheduling_delay m in
  let sched_count = Draconis_stats.Sampler.count delays in
  let pct p = if sched_count = 0 then 0 else Draconis_stats.Sampler.percentile delays p in
  let p50 = pct 50.0 and p99 = pct 99.0 and p999 = pct 99.9 in
  let pipeline = Cluster.pipeline c and program = Cluster.program c in
  let clients = Cluster.clients c in
  let client_sum f = Array.fold_left (fun acc cl -> acc + f cl) 0 clients in
  let busy_ns =
    Array.fold_left (fun acc wk -> acc + Worker.busy_time wk) 0 (Cluster.workers c)
  in
  let pifo = Switch_program.pifo program in
  let events = Cluster.events c in
  let submitted = Metrics.submitted m and completed = Metrics.completed m in
  let swaps = Metrics.swaps m and recirculations = Metrics.recirculations m in
  {
    run_wall_s = Layers.seconds (t_run1 - t_run0);
    drained;
    fingerprint =
      Printf.sprintf
        "submitted=%d completed=%d sched_p50=%d sched_p99=%d sched_p999=%d swaps=%d \
         recirculations=%d events=%d"
        submitted completed p50 p99 p999 swaps recirculations events;
    submitted;
    started = Metrics.started m;
    completed;
    rejected = Metrics.rejected m;
    abandoned = Metrics.abandoned m;
    resubmitted = client_sum Client.resubmitted;
    bounces = client_sum Client.queue_full_bounces;
    events;
    sched_count;
    p50;
    p99;
    p999;
    delivered = Fabric.delivered (Cluster.fabric c);
    lost = Fabric.lost (Cluster.fabric c);
    traversals = Pipeline.processed pipeline;
    recirculated = Pipeline.recirculated pipeline;
    recirc_dropped = Pipeline.recirc_dropped pipeline;
    emitted = Pipeline.emitted pipeline;
    assignments = Switch_program.assignments program;
    noops = Switch_program.noops program;
    swaps = Switch_program.swaps program;
    resubmissions = Switch_program.resubmissions program;
    repairs = Switch_program.repairs_launched program;
    rejected_tasks = Switch_program.rejected_tasks program;
    renumbers = Option.fold ~none:0 ~some:Draconis_pifo.Pifo.renumbers pifo;
    rank_clamps = Option.fold ~none:0 ~some:Draconis_pifo.Pifo.rank_clamps pifo;
    exec_busy_frac = ratio (fi busy_ns) (fi (Cluster.total_executors c) *. fi sim_end);
    windows = Option.fold ~none:0 ~some:Sync.windows (Cluster.sync c);
    lp_posted =
      Option.fold ~none:0
        ~some:(fun sync ->
          Array.fold_left (fun acc lp -> acc + Lp.posted lp) 0 (Sync.lps sync))
        (Cluster.sync c);
    minor_words = gc1.minor_words -. gc0.minor_words;
    minor_collections = gc1.minor_collections - gc0.minor_collections;
    major_collections = gc1.major_collections - gc0.major_collections;
    staged = s.staged;
    pifo_backend = Option.is_some pifo;
    layers = tr;
  }

(* One set-up sample: build, start and feed a cluster, then drop it. *)
let setup_only w ~seed =
  Gc.full_major ();
  let s = setup w ~seed ~executor:Team ~tr:None in
  s.control.close ();
  Layers.seconds s.setup_ns

(* Repeat [f] for about [budget] seconds, at least [min] times. *)
let repeat ~budget ~min f =
  let t0 = Layers.now_ns () in
  let rec go acc n =
    let elapsed = Layers.seconds (Layers.now_ns () - t0) in
    let per_rep = if n = 0 then 0.0 else elapsed /. fi n in
    if n >= min && elapsed +. per_rep > budget then List.rev acc
    else go (f n :: acc) (n + 1)
  in
  go [] 0

(* ---------- correctness gate ---------- *)

let errors = ref []
let fail fmt = Printf.ksprintf (fun msg -> errors := msg :: !errors) fmt

let check_rep w ~smoke ~label r =
  if not r.drained then
    fail "%s: not drained (%d tasks outstanding)" label
      (r.submitted - r.completed - r.abandoned);
  (* A bounced task is retried by its client, so a rejection is not a
     terminal outcome: every task either completes once or is abandoned. *)
  if r.completed + r.abandoned <> r.submitted then
    fail "%s: completed %d + abandoned %d <> submitted %d" label r.completed r.abandoned
      r.submitted;
  if r.sched_count <> r.started then
    fail "%s: %d scheduling-delay samples for %d started tasks" label r.sched_count
      r.started;
  if W.is_fcfs w && (r.rejected <> 0 || r.bounces <> 0) then
    fail "%s: FCFS run rejected %d tasks (%d bounces)" label r.rejected r.bounces;
  if r.sched_count < p999_min_samples && not smoke then
    fail "%s: %d samples cannot support p99.9 (need %d)" label r.sched_count
      p999_min_samples

let check_same ~what reference reps =
  List.iteri
    (fun i r ->
      if r.fingerprint <> reference.fingerprint then
        fail "%s %d diverged:\n  %s\n  expected %s" what i r.fingerprint
          reference.fingerprint)
    reps

(* ---------- output ---------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let json_number v = Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
              x.unit_)
          metrics))

let print_metrics title metrics =
  Printf.printf "== %s\n" title;
  List.iter (fun x -> Printf.printf "  %-36s %18.6g %s\n" x.name x.value x.unit_) metrics

let us ns = fi ns /. 1e3

let end_to_end ~reps ~setups =
  let r0 = List.hd reps in
  let per f = median (List.map f reps) in
  let started r = fi r.started in
  let top_heap = (Gc.quick_stat ()).top_heap_words in
  [
    m "setup_s" "s" (median setups);
    m "run_wall_s" "s" (per (fun r -> r.run_wall_s));
    m "decisions_per_s" "1/s" (per (fun r -> started r /. r.run_wall_s));
    m "events_per_decision" "events" (ratio (fi r0.events) (started r0));
    m "minor_words_per_decision" "words" (per (fun r -> r.minor_words /. started r));
    m "peak_heap_mb" "MB" (fi (top_heap * (Sys.word_size / 8)) /. 1048576.0);
    m "sim_sched_p50_us" "us" (us r0.p50);
    m "sim_sched_p99_us" "us" (us r0.p99);
    m "sim_sched_p999_us" "us" (us r0.p999);
  ]

let layer_of_rep ~lanes (r : rep) =
  let tr = Option.get r.layers in
  let decisions = fi r.started in
  let run_ns = tr.run.ns in
  (* Submissions made inside run_until (live feeding) are its children;
     pre-staged submissions happen during set-up. *)
  let submit_in_run = if r.staged then 0 else tr.submit.ns in
  let residual_ns = run_ns - tr.switch.ns - submit_in_run in
  let busy_total = Array.fold_left ( + ) 0 tr.lane_busy in
  let busy_max = Array.fold_left max 0 tr.lane_busy in
  let sharded = r.windows > 0 in
  [
    m "sim.events" "count" (fi r.events);
    m "sim.sched_samples" "count" (fi r.sched_count);
    m "sim.run_ns_per_event" "ns/event" (ratio (fi run_ns) (fi r.events));
    m "sim.minor_words_per_event" "words/event" (ratio r.minor_words (fi r.events));
    m "net.delivered" "count" (fi r.delivered);
    m "net.delivered_per_decision" "count/decision" (ratio (fi r.delivered) decisions);
    m "net.lost" "count" (fi r.lost);
    m "p4.traversals" "count" (fi r.traversals);
    m "p4.traversals_per_decision" "count/decision" (ratio (fi r.traversals) decisions);
    m "p4.recirculated" "count" (fi r.recirculated);
    m "p4.recirc_fraction" "ratio" (ratio (fi r.recirculated) (fi r.traversals));
    m "p4.recirc_dropped" "count" (fi r.recirc_dropped);
    m "p4.emitted" "count" (fi r.emitted);
    m "switch.self_s" "s" (Layers.seconds tr.switch.ns);
    m "switch.ns_per_traversal" "ns/traversal"
      (ratio (fi tr.switch.ns) (fi tr.switch.count));
    m "switch.minor_words_per_traversal" "words/traversal"
      (ratio (fi tr.switch.words) (fi tr.switch.count));
    m "switch.wall_share" "ratio" (ratio (fi tr.switch.ns) (fi run_ns));
    m "switch.assignments" "count" (fi r.assignments);
    m "switch.noops" "count" (fi r.noops);
    m "switch.swaps" "count" (fi r.swaps);
    m "switch.resubmissions" "count" (fi r.resubmissions);
    m "switch.repairs_launched" "count" (fi r.repairs);
    m "switch.rejected_tasks" "count" (fi r.rejected_tasks);
    m "switch.useful_ratio" "ratio"
      (ratio (fi r.assignments) (fi (r.assignments + r.noops)));
    m "pifo.recirc_per_decision" "count/decision"
      (if r.pifo_backend then ratio (fi r.recirculated) decisions else 0.0);
    m "pifo.renumbers" "count" (fi r.renumbers);
    m "pifo.rank_clamps" "count" (fi r.rank_clamps);
    m "host.submit_s" "s" (Layers.seconds tr.submit.ns);
    m "host.resubmitted" "count" (fi r.resubmitted);
    m "host.abandoned" "count" (fi r.abandoned);
    m "host.queue_full_bounces" "count" (fi r.bounces);
    m "exec.busy_frac" "ratio" r.exec_busy_frac;
    m "host.residual_s" "s" (Layers.seconds residual_ns);
    m "host.residual_ns_per_event" "ns/event"
      (ratio (fi residual_ns) (fi (r.events - r.traversals)));
    m "sync.windows" "count" (fi r.windows);
    m "sync.events_per_window" "events" (ratio (fi r.events) (fi r.windows));
    m "sync.lane0_busy_s" "s" (Layers.seconds tr.lane_busy.(0));
    m "sync.lane1_busy_s" "s" (Layers.seconds tr.lane_busy.(1));
    m "sync.barrier_wait_s" "s" (Layers.seconds tr.barrier_wait_ns);
    m "sync.coordinator_s" "s"
      (if sharded then Layers.seconds (run_ns - tr.windows.ns) else 0.0);
    m "sync.lane_imbalance" "ratio"
      (if sharded then ratio (fi busy_max) (fi busy_total /. fi lanes) else 0.0);
    m "sync.parallel_efficiency" "ratio"
      (if sharded then ratio (fi busy_total) (fi lanes *. fi tr.windows.ns) else 0.0);
    m "lp.posted_per_decision" "count/decision" (ratio (fi r.lp_posted) decisions);
    m "gc.minor_collections_per_decision" "count/decision"
      (ratio (fi r.minor_collections) decisions);
    m "gc.major_collections" "count" (fi r.major_collections);
  ]

(* Re-run queue-heavy's configuration through the experiment runner with
   telemetry off, with the Sink on, and with the Sink and INT on: what a
   user pays for --trace-out / --int-out.  The simulated outcome must not
   move. *)
let obs_probe ~seed =
  let w = { W.queue_heavy with horizon = obs_probe_horizon } in
  let timed_run () =
    Gc.full_major ();
    let running =
      Systems.draconis ~policy_of:(fun _ -> w.policy) ~queue_capacity:w.queue_capacity
        ~pipeline_config:w.pipeline_config (W.spec seed)
    in
    let t0 = Layers.now_ns () in
    let o =
      H.Runner.run running ~driver:(W.driver w) ~load_tps:w.rate_tps ~horizon:w.horizon ()
    in
    let wall = Layers.now_ns () - t0 in
    ignore (Obs.Sink.drain ());
    (fi wall, o)
  in
  (* Interleaved rounds, so a slow spell on the host hits all three. *)
  let rounds =
    List.init obs_probe_rounds (fun _ ->
        let off = timed_run () in
        Obs.Sink.enable ();
        let sink = timed_run () in
        Obs.Int_telemetry.enable ();
        let int_ = timed_run () in
        Obs.Int_telemetry.disable ();
        Obs.Sink.disable ();
        (off, sink, int_))
  in
  let key (o : H.Runner.outcome) =
    (o.submitted, o.completed, o.sched_p50, o.sched_p99, o.drained)
  in
  List.iter
    (fun ((_, off), (_, sink), (_, int_)) ->
      if not off.H.Runner.drained then fail "obs probe: not drained";
      if key sink <> key off then fail "obs probe: the Sink changed the simulated outcome";
      if key int_ <> key off then fail "obs probe: INT changed the simulated outcome")
    rounds;
  let on_ratio pick =
    median (List.map (fun (((off, _), _, _) as r) -> fst (pick r) /. off) rounds)
  in
  [
    m "obs.sink_on_ratio" "ratio" (on_ratio (fun (_, sink, _) -> sink));
    m "obs.int_on_ratio" "ratio" (on_ratio (fun (_, _, int_) -> int_));
  ]

(* ---------- main ---------- *)

type opts = {
  workload : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (* horizon overridden: too few samples for p99.9 *)
  force_undrained : bool;
  commit : string;
  out_dir : string option;
}

let usage =
  "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--horizon-ms MS] \
   [--force-undrained] [--commit ID] [--out DIR]"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let horizon_ms = ref None and force_undrained = ref false and commit = ref "unknown" in
  let out_dir = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S host seconds to measure");
      ("--trace", Arg.Int (fun n -> trace := Some n), "0|1 end-to-end or per-layer run");
      ( "--horizon-ms",
        Arg.Int (fun n -> horizon_ms := Some n),
        "MS shorter horizon (smoke tests)" );
      ("--force-undrained", Arg.Set force_undrained, " cut every run off at the horizon");
      ("--commit", Arg.Set_string commit, "ID commit being measured (report header)");
      ( "--out",
        Arg.String (fun d -> out_dir := Some d),
        "DIR write the traced run's spans here" );
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let need what = function Some v -> v | None -> raise (Arg.Bad ("missing " ^ what)) in
  let seconds = need "--seconds" !seconds in
  if not (seconds > 0.0) then raise (Arg.Bad "--seconds must be positive");
  let trace =
    match need "--trace" !trace with
    | 0 -> false
    | 1 -> true
    | _ -> raise (Arg.Bad "--trace must be 0 or 1")
  in
  let workload = W.find !workload in
  let workload =
    match !horizon_ms with
    | None -> workload
    | Some ms when ms > 0 -> { workload with horizon = Time.ms ms }
    | Some _ -> raise (Arg.Bad "--horizon-ms must be positive")
  in
  {
    workload;
    seed = need "--seed" !seed;
    seconds;
    trace;
    smoke = Option.is_some !horizon_ms;
    force_undrained = !force_undrained;
    commit = !commit;
    out_dir = !out_dir;
  }

let header o ~reps ~traced_reps =
  let w = o.workload in
  [
    ("workload", w.name);
    ("trace", if o.trace then "1" else "0");
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("commit", o.commit);
    ("workload_seed", string_of_int (H.Runner.workload_seed ()));
    ("held_out_seed", string_of_int held_out_seed);
    ("repeats", string_of_int reps);
    ("traced_repeats", string_of_int traced_reps);
    ("lanes", string_of_int (lanes w));
    ("shards", match w.shards with None -> "none" | Some n -> string_of_int n);
    ("horizon_ms", string_of_int (w.horizon / Time.ms 1));
    ("offered_tps", Printf.sprintf "%.0f" w.rate_tps);
  ]

let write_trace o ~header ~metrics reps =
  match o.out_dir with
  | None -> ()
  | Some dir ->
    let path =
      Filename.concat dir (Printf.sprintf "%s-seed%d-trace.json" o.workload.name o.seed)
    in
    let oc = open_out path in
    Printf.fprintf oc "{\"header\": {%s},\n \"metrics\": {%s},\n \"reps\": [\n  %s\n]}\n"
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) header))
      (String.concat ", "
         (List.map (fun x -> Printf.sprintf "%S: %s" x.name (json_number x.value)) metrics))
      (String.concat ",\n  "
         (List.filter_map (fun r -> Option.map Layers.to_json r.layers) reps));
    close_out oc;
    Printf.printf "trace written to %s\n" path

let () =
  let o =
    try parse_args ()
    with Arg.Bad msg | Invalid_argument msg ->
      prerr_endline ("perfbench: " ^ msg);
      prerr_endline usage;
      exit 2
  in
  let w = o.workload in
  H.Runner.set_workload_seed o.seed;
  (* The sharded workload always runs on a 2-lane team, whatever the
     machine's default job count; the tracer knows no more lanes. *)
  if Option.is_some w.shards then Pool.set_jobs Layers.lanes;
  let run ~executor ~trace rep =
    run_rep w ~seed:o.seed ~executor ~trace ~rep ~force_undrained:o.force_undrained
  in
  let check ~label reps =
    List.iteri
      (fun i r -> check_rep w ~smoke:o.smoke ~label:(Printf.sprintf "%s rep %d" label i) r)
      reps
  in
  (* A traced run spends 30% of its budget on untraced repeats (the base
     of the tracer-overhead ratio) and 40% on traced ones; the probes
     after them take a few seconds more. *)
  let plain =
    let untraced = run ~executor:Team ~trace:false in
    if o.trace then repeat ~budget:(0.3 *. o.seconds) ~min:2 untraced
    else repeat ~budget:o.seconds ~min:3 untraced
  in
  check ~label:"run" plain;
  let reference = List.hd plain in
  check_same ~what:"repeat" reference plain;
  let metrics, traced =
    if not o.trace then begin
      let setups = List.init setup_samples (fun _ -> setup_only w ~seed:o.seed) in
      (end_to_end ~reps:plain ~setups, [])
    end
    else begin
      let traced =
        repeat ~budget:(0.4 *. o.seconds) ~min:2 (run ~executor:Team ~trace:true)
      in
      check ~label:"traced" traced;
      check_same ~what:"traced repeat" reference traced;
      let lanes = lanes w in
      let per_rep = List.map (layer_of_rep ~lanes) traced in
      let layer =
        List.mapi
          (fun i x ->
            m x.name x.unit_ (median (List.map (fun l -> (List.nth l i).value) per_rep)))
          (List.hd per_rep)
      in
      let wall rs = median (List.map (fun r -> r.run_wall_s) rs) in
      let inline_ratio =
        match w.shards with
        | None -> 0.0
        | Some _ ->
          let inline = run ~executor:Inline ~trace:false 0 in
          check ~label:"inline" [ inline ];
          check_same ~what:"inline-executor run" reference [ inline ];
          wall plain /. inline.run_wall_s
      in
      let obs = obs_probe ~seed:o.seed in
      ( layer
        @ [ m "sync.team_vs_inline_ratio" "ratio" inline_ratio ]
        @ obs
        @ [ m "bench.trace_overhead_ratio" "ratio" (wall traced /. wall plain) ],
        traced )
    end
  in
  let reps = plain @ traced in
  let header = header o ~reps:(List.length plain) ~traced_reps:(List.length traced) in
  Printf.printf "== perfbench header\n";
  List.iter (fun (k, v) -> Printf.printf "  %-16s %s\n" k v) header;
  Printf.printf "== simulated fingerprint of every repeat (%d)\n  %s\n" (List.length reps)
    reference.fingerprint;
  Printf.printf "  sim_sched percentiles over %d samples\n" reference.sched_count;
  print_metrics (if o.trace then "per-layer metrics" else "end-to-end metrics") metrics;
  if o.trace then write_trace o ~header ~metrics reps;
  let errors = List.rev !errors in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let attempted = List.fold_left (fun n r -> n + r.submitted) 0 reps in
  let completed = List.fold_left (fun n r -> n + r.completed) 0 reps in
  print_endline
    (result_json ~correct:(errors = []) ~attempted ~failed:(attempted - completed) metrics);
  exit (if errors = [] then 0 else 1)
