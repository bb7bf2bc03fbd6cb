(* The sharded Draconis cluster: outcome equality across shard counts
   (the determinism contract — partitioning the data path over logical
   processes must not change a single metric, barrier window or
   message), window-team neutrality, fault plans of every kind,
   and the fail-loud guards.  [shards = Some 1] is the sequential
   reference every other shard count must reproduce. *)

open Draconis_sim
open Draconis_workload
module H = Draconis_harness
module Plan = Draconis_net.Plan

let spec = { H.Systems.workers = 4; executors_per_worker = 4; clients = 2; seed = 7 }
let kind = Synthetic.Fixed_100us
let horizon = Time.ms 10
let rate_tps = 90_000.0

(* One run plus the barrier-protocol counters the contract also pins:
   the window sequence derives from the global event floor and every
   message travels through an LP mailbox, so neither may depend on how
   entities are grouped onto LPs. *)
type run = {
  shards : int;
  outcome : H.Runner.outcome;
  windows : int;
  posted : int;  (** messages routed through LP mailboxes *)
  dropped : int;  (** messages eaten by fault windows *)
  abandoned : int;
  recovery : H.Recovery.report;
}

let run_cluster ?(kind = kind) ?(rate_tps = rate_tps) ?faults ?client_timeout
    ?(seed = spec.seed) ?workload_seed shards =
  let cluster, system =
    H.Systems.draconis_cluster ~racks:2 ~shards ?faults ?client_timeout
      { spec with seed }
  in
  let driver = H.Exp_common.synthetic_driver kind ~rate_tps ~horizon in
  let outcome =
    H.Runner.run system ~driver ~load_tps:rate_tps ~horizon ?workload_seed ()
  in
  let sync = Option.get (Draconis.Cluster.sync cluster) in
  {
    shards;
    outcome;
    windows = Sync.windows sync;
    posted = Array.fold_left (fun acc lp -> acc + Lp.posted lp) 0 (Sync.lps sync);
    dropped = Draconis.Cluster.dropped cluster;
    abandoned = Draconis.Metrics.abandoned (Draconis.Cluster.metrics cluster);
    recovery =
      H.Recovery.measure ~system:system.name ~metrics:system.metrics
        ~failovers:(system.failovers ()) ~until:horizon ();
  }

(* [events_per_sec], the one wall-clock field, is left 0 by the runner,
   so whole outcomes compare structurally. *)
let check_equal_across_lps run =
  let results = List.map run [ 1; 2; 4 ] in
  let reference = List.hd results in
  List.iter
    (fun r ->
      if r.outcome <> reference.outcome then
        Alcotest.failf "outcome with %d LPs diverges: %a vs %a" r.shards
          H.Runner.pp_outcome r.outcome H.Runner.pp_outcome reference.outcome;
      if r.recovery <> reference.recovery then
        Alcotest.failf "recovery report with %d LPs diverges: %a vs %a" r.shards
          H.Recovery.pp r.recovery H.Recovery.pp reference.recovery;
      Alcotest.(check int) "windows" reference.windows r.windows;
      Alcotest.(check int) "messages" reference.posted r.posted;
      Alcotest.(check int) "fault drops" reference.dropped r.dropped)
    results;
  reference

let test_outcome_equality () =
  let r = check_equal_across_lps (fun shards -> run_cluster shards) in
  Alcotest.(check bool) "work happened" true (r.outcome.completed > 100);
  Alcotest.(check bool) "drained" true r.outcome.drained;
  Alcotest.(check bool) "messages crossed mailboxes" true (r.posted > 0)

(* fig6 shape: half the tasks five times longer than the rest, at 80% of
   capacity, so the tail queues. *)
let bimodal_rate_tps =
  0.8
  *. H.Exp_common.capacity_tps Synthetic.Bimodal
       ~executors:(spec.workers * spec.executors_per_worker)

let test_bimodal_equality () =
  let r =
    check_equal_across_lps (fun shards ->
        run_cluster ~kind:Synthetic.Bimodal ~rate_tps:bimodal_rate_tps shards)
  in
  Alcotest.(check bool) "tail produced queueing" true (r.outcome.sched_p99 > 0)

(* The contract must hold for arbitrary cluster and workload seeds. *)
let test_random_seeds_equality =
  QCheck.Test.make ~count:8 ~name:"sharded = sequential on random seeds"
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, bimodal) ->
      let kind, rate_tps =
        if bimodal then (Synthetic.Bimodal, bimodal_rate_tps) else (kind, rate_tps)
      in
      let run shards =
        (run_cluster ~kind ~rate_tps ~seed ~workload_seed:seed shards).outcome
      in
      run 1 = run 3)

(* The sequential path is the bit-deterministic reference: re-running the
   exact same config reproduces the outcome exactly. *)
let test_sequential_reproducible () =
  let a = run_cluster ~seed:123 1 and b = run_cluster ~seed:123 1 in
  Alcotest.(check bool) "bit-identical rerun" true (a.outcome = b.outcome);
  Alcotest.(check int) "windows" a.windows b.windows

(* Every plan kind at once, overlapping: a straggler, a loss burst, a
   crash and restart, a fail-over, and a partition of a worker and a
   client. *)
let faults =
  Plan.of_string
    "straggler@1ms:node=2,factor=3,dur=5ms;burst@2ms:dur=2ms,loss=0.05;\
     crash@2500us:node=1,down=1ms;failover@3ms;partition@3ms:hosts=1+4,dur=1ms"

(* The plan's degraded outcome and recovery report are the same at every
   LP count, on a window team of one lane and of two. *)
let test_fault_equality () =
  let jobs = H.Pool.jobs () in
  let by_team =
    Fun.protect
      ~finally:(fun () -> H.Pool.set_jobs jobs)
      (fun () ->
        List.map
          (fun lanes ->
            H.Pool.set_jobs lanes;
            check_equal_across_lps (fun shards ->
                run_cluster ~faults ~client_timeout:(Time.ms 2) shards))
          [ 1; 2 ])
  in
  let r = List.hd by_team in
  List.iter
    (fun r' ->
      Alcotest.(check bool) "team size is outcome-neutral" true
        (r'.outcome = r.outcome && r'.recovery = r.recovery && r'.windows = r.windows))
    by_team;
  let o = r.outcome in
  Alcotest.(check bool) "faults dropped messages" true (r.dropped > 0);
  Alcotest.(check int) "the fail-over fired" 1 r.recovery.failovers;
  Alcotest.(check bool) "the standby recovered" true (r.recovery.recovery <> None);
  Alcotest.(check bool) "faults bit (losses recovered)" true
    (o.timeouts > 0 && o.completed > 100);
  Alcotest.(check bool) "drained" true o.drained;
  Alcotest.(check int) "completed + abandoned = submitted" o.submitted
    (o.completed + r.abandoned)

let test_executor_neutrality () =
  (* The barrier-window executor is pure execution vehicle: fanning each
     window over a 2-lane team must reproduce the inline run bit for
     bit.  Driven below Systems/Runner so the team size is ours to pick
     (the harness sizes it to the machine). *)
  let build () =
    let cluster =
      Draconis.Cluster.create
        {
          Draconis.Cluster.default_config with
          seed = 7;
          workers = 4;
          executors_per_worker = 4;
          clients = 2;
          racks = 2;
          shards = Some 4;
        }
    in
    Draconis.Cluster.start cluster;
    (* Stage a fixed workload directly onto the owning client LPs. *)
    Array.iteri
      (fun c client ->
        for j = 0 to 39 do
          ignore
            (Engine.schedule_at
               (Draconis.Client.engine client)
               ~at:(Time.us (50 + (j * 200) + c))
               (fun () ->
                 ignore
                   (Draconis.Client.submit_job client
                      (List.init 3 (fun tid ->
                           Draconis_proto.Task.make ~uid:0 ~jid:0 ~tid
                             ~fn_id:Draconis_proto.Task.Fn.busy_loop
                             ~fn_par:(Time.us 100) ())))))
        done)
      (Draconis.Cluster.clients cluster);
    cluster
  in
  let digest cluster =
    let m = Draconis.Cluster.metrics cluster in
    [
      Draconis.Metrics.submitted m;
      Draconis.Metrics.started m;
      Draconis.Metrics.completed m;
      Draconis.Cluster.events cluster;
      Sync.windows (Option.get (Draconis.Cluster.sync cluster));
    ]
  in
  let inline_cluster = build () in
  Draconis.Cluster.run inline_cluster ~until:horizon;
  let team = H.Pool.Team.create ~size:2 in
  let teamed =
    Fun.protect
      ~finally:(fun () -> H.Pool.Team.shutdown team)
      (fun () ->
        let cluster = build () in
        Draconis.Cluster.run ~executor:(H.Pool.Team.run team) cluster ~until:horizon;
        digest cluster)
  in
  Alcotest.(check (list int)) "teamed == inline" (digest inline_cluster) teamed

let test_shards_exceed_lp_groups () =
  (* 4 workers + 2 clients admit 1 + 6 LP groups; 8 must fail loud. *)
  Alcotest.check_raises "too many shards"
    (Invalid_argument
       "Cluster.create: 8 shards exceed the 7 LP groups this topology admits \
        (1 switch LP + 6 hosts: 4 workers + 2 clients); lower --shards")
    (fun () -> ignore (run_cluster 8))

let test_feed_noop_rejects_staged () =
  let system = H.Systems.draconis ~racks:2 ~shards:2 spec in
  Fun.protect
    ~finally:(fun () -> system.control.H.Systems.close ())
    (fun () ->
      Alcotest.(check bool) "closed-loop feeder fails loud" true
        (try
           H.Exp_common.feed_noop system ~in_flight:16 ~horizon;
           false
         with Invalid_argument _ -> true))

(* -- Values pinned from the one-closure-per-check watchdog ----------------- *)

(* Every outcome field but the event counts, which the watchdog line
   lowers by design. *)
let fingerprint (o : H.Runner.outcome) =
  Printf.sprintf
    "p50=%d p99=%d mean=%.6f dps=%.3f sub=%d start=%d done=%d timeouts=%d rej=%d \
     recirc=%.6f rdrop=%d swaps=%d recircs=%d flags=%d drained=%b"
    o.sched_p50 o.sched_p99 o.sched_mean o.decisions_per_sec o.submitted o.started
    o.completed o.timeouts o.rejected o.recirc_fraction o.recirc_drops o.swaps
    o.recirculations o.repair_flags o.drained

(* Barrier windows are cut at [Engine.earliest], which counted every
   dead watchdog check while each check was its own event.  The line
   keeps them in the floor, so the window sequence, and with it the
   same-nanosecond order of injected events, is unchanged. *)
let test_window_floors_pinned () =
  let r = run_cluster ~seed:1 2 in
  Alcotest.(check int) "barrier windows" 6_476 r.windows;
  Alcotest.(check string) "outcome"
    "p50=5564 p99=16589 mean=6222.897380 dps=91600.000 sub=916 start=916 done=916 \
     timeouts=0 rej=0 recirc=0.051240 rdrop=0 swaps=0 recircs=680 flags=680 drained=true"
    (fingerprint r.outcome)

let resubmitted clients =
  Array.fold_left (fun acc c -> acc + Draconis.Client.resubmitted c) 0 clients

(* Runs where watchdogs do fire: 2% loss eats requests and replies, so
   checks find no reply and executors re-send.  The loss is one window
   open for the whole run: each send in it draws once, as a fabric-wide
   loss would.  It opens at 1 ns, after the first request of each
   node's first executor, which [Cluster.start] sends at time 0 while
   the system is built. *)
let lossy = Plan.of_string "burst@1ns:dur=100s,loss=0.02"

let lossy_run ~system ~clients ~resends =
  let driver = H.Exp_common.synthetic_driver kind ~rate_tps:40_000.0 ~horizon in
  let o = H.Runner.run system ~driver ~load_tps:40_000.0 ~horizon () in
  Alcotest.(check bool) "watchdogs fired" true (resends () > 0);
  Printf.sprintf "%s resubmitted=%d resends=%d" (fingerprint o) (resubmitted (clients ()))
    (resends ())

let test_lossy_legacy_pinned () =
  let cluster, system =
    H.Systems.draconis_cluster ~client_timeout:(Time.ms 1) ~faults:lossy
      { spec with seed = 3 }
  in
  Alcotest.(check string) "outcome"
    "p50=51575 p99=3936174 mean=552730.564270 dps=46600.000 sub=402 start=459 done=402 \
     timeouts=72 rej=0 recirc=0.048607 rdrop=0 swaps=0 recircs=178 flags=178 drained=true \
     resubmitted=72 resends=121"
    (lossy_run ~system
       ~clients:(fun () -> Draconis.Cluster.clients cluster)
       ~resends:(fun () ->
         Array.fold_left
           (fun acc w -> acc + Draconis.Worker.watchdog_resends w)
           0 (Draconis.Cluster.workers cluster)))

let test_lossy_central_server_pinned () =
  let module Cs = Draconis_baselines.Central_server in
  let server, system =
    H.Systems.central_server_system ~client_timeout:(Time.ms 2) ~faults:lossy Cs.Dpdk
      { spec with seed = 3 }
  in
  Alcotest.(check string) "outcome"
    "p50=6975 p99=6400304 mean=706640.414692 dps=43100.000 sub=402 start=422 done=399 \
     timeouts=95 rej=0 recirc=0.000000 rdrop=0 swaps=0 recircs=0 flags=0 drained=true \
     resubmitted=92 resends=1"
    (lossy_run ~system
       ~clients:(fun () -> Cs.clients server)
       ~resends:(fun () -> Cs.watchdog_resends server))

let suite =
  [
    Alcotest.test_case "window floors pinned at 2 LPs" `Quick test_window_floors_pinned;
    Alcotest.test_case "lossy legacy cluster pinned" `Quick test_lossy_legacy_pinned;
    Alcotest.test_case "lossy central server pinned" `Quick
      test_lossy_central_server_pinned;
    Alcotest.test_case "outcomes bit-identical across shards {1,2,4}" `Quick
      test_outcome_equality;
    Alcotest.test_case "bimodal (fig6-shape) equality" `Quick test_bimodal_equality;
    QCheck_alcotest.to_alcotest test_random_seeds_equality;
    Alcotest.test_case "sequential path is reproducible" `Quick
      test_sequential_reproducible;
    Alcotest.test_case "static faults bit-identical across shards" `Quick
      test_fault_equality;
    Alcotest.test_case "window team is outcome-neutral" `Quick
      test_executor_neutrality;
    Alcotest.test_case "shards > LP groups fails loud" `Quick
      test_shards_exceed_lp_groups;
    Alcotest.test_case "feed_noop rejects staged systems" `Quick
      test_feed_noop_rejects_staged;
  ]
