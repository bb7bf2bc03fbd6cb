(* Fault-plan tests: plan parsing/validation, the plan's windows in the
   fabric (loss, partitions, config validation), crash/restart and
   straggler edges armed at construction, plan validation against the
   system, the client resubmission cap, and end-to-end determinism of
   faulted runs. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis
module B = Draconis_baselines
module Recovery = Draconis_harness.Recovery

let busy_task ~us n =
  Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us us) ()

(* -- Plan parsing and validation ------------------------------------------- *)

let test_plan_parse () =
  let plan =
    Plan.of_string
      "failover@5ms; crash@2ms:node=3,down=1ms; burst@1ms:dur=500us,loss=0.8; \
       partition@1500us:hosts=0+1+2,dur=2ms; straggler@1ms:node=2,factor=4,dur=2ms"
  in
  let events = Plan.events plan in
  Alcotest.(check int) "five events" 5 (List.length events);
  (* Sorted by firing time. *)
  Alcotest.(check (list int)) "sorted times"
    [ Time.ms 1; Time.ms 1; Time.us 1500; Time.ms 2; Time.ms 5 ]
    (List.map (fun { Plan.at; _ } -> at) events);
  (match (List.nth events 4).Plan.event with
  | Plan.Switch_failover -> ()
  | _ -> Alcotest.fail "last event should be the failover");
  match (List.nth events 3).Plan.event with
  | Plan.Crash { node; down_for } ->
    Alcotest.(check int) "crash node" 3 node;
    Alcotest.(check (option int)) "crash down window" (Some (Time.ms 1)) down_for
  | _ -> Alcotest.fail "expected the crash at 2ms"

let test_plan_round_trip () =
  let spec =
    "burst@1ms:dur=500us,loss=0.8;failover@5ms;crash@2ms:node=3,down=1ms;\
     partition@1ms:hosts=0+1+2,dur=2ms;straggler@1ms:node=2,factor=4,dur=2ms"
  in
  let plan = Plan.of_string spec in
  let reparsed = Plan.of_string (Plan.to_string plan) in
  Alcotest.(check string) "to_string round-trips" (Plan.to_string plan)
    (Plan.to_string reparsed);
  Alcotest.(check int) "same event count" (List.length (Plan.events plan))
    (List.length (Plan.events reparsed))

(* The fired-fault log of this plan on a 10-worker cluster whose
   fail-over loses 198 queued tasks: starts before ends at one instant,
   each group in plan order. *)
let test_plan_timeline () =
  let plan =
    Plan.of_string
      "failover@3ms;burst@1ms:dur=500us,loss=0.5;partition@2ms:hosts=0+1,dur=1ms;\
       crash@2ms:node=3,down=1ms;straggler@1ms:node=2,factor=4,dur=2ms"
  in
  Alcotest.(check (list (pair int string))) "firing order and descriptions"
    [
      (Time.ms 1, "loss burst start (p=0.500)");
      (Time.ms 1, "straggler node 2 (x4.0)");
      (Time.us 1500, "loss burst end (p=0.500)");
      (Time.ms 2, "partition hosts 0+1");
      (Time.ms 2, "crash node 3 (down 1000 us)");
      (Time.ms 3, "failover (198 queued lost)");
      (Time.ms 3, "straggler node 2 recovered");
      (Time.ms 3, "heal hosts 0+1");
      (Time.ms 3, "restart node 3");
    ]
    (Plan.timeline plan ~failovers:[ (Time.ms 3, 198) ] ~until:(Time.ms 5));
  Alcotest.(check int) "edges after [until] have not fired" 5
    (List.length (Plan.timeline plan ~failovers:[] ~until:(Time.ms 2)))

let check_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")

let test_plan_validation () =
  check_invalid "loss > 1" (fun () -> Plan.of_string "burst@1ms:dur=1ms,loss=1.5");
  check_invalid "factor < 1" (fun () ->
      Plan.of_string "straggler@1ms:node=0,factor=0.5,dur=1ms");
  check_invalid "empty hosts" (fun () ->
      Plan.create
        [ { Plan.at = 0; event = Plan.Partition { hosts = []; duration = 1 } } ]);
  check_invalid "negative time" (fun () ->
      Plan.create [ { Plan.at = -1; event = Plan.Switch_failover } ]);
  check_invalid "zero duration" (fun () ->
      Plan.of_string "partition@1ms:hosts=0,dur=0ms");
  check_invalid "unknown kind" (fun () -> Plan.of_string "meteor@1ms");
  check_invalid "unknown parameter" (fun () -> Plan.of_string "failover@1ms:color=red");
  check_invalid "missing parameter" (fun () -> Plan.of_string "crash@1ms:down=1ms");
  check_invalid "bad time unit" (fun () -> Plan.of_string "failover@1h");
  Alcotest.(check bool) "empty plan is empty" true (Plan.is_empty (Plan.of_string ""))

(* -- Fabric config validation (satellite: Fabric.create validates) --------- *)

let test_fabric_config_validation () =
  let engine = Engine.create () in
  let try_config config =
    ignore (Fabric.create ~config engine (Rng.create ~seed:1) : unit Fabric.t)
  in
  let base = Fabric.default_config in
  check_invalid "loss > 1" (fun () -> try_config { base with loss = 1.5 });
  check_invalid "loss < 0" (fun () -> try_config { base with loss = -0.1 });
  check_invalid "negative latency" (fun () ->
      try_config { base with host_to_switch = -1 });
  check_invalid "negative jitter" (fun () -> try_config { base with jitter = -5 });
  check_invalid "detour_fraction > 1" (fun () ->
      try_config { base with detour_fraction = 2.0 });
  (* A valid config still creates. *)
  try_config { base with loss = 0.1 }

(* A fabric under [plan] with a sink at host 1, and a send from host 0
   at each of [times]; [run] returns the deliveries. *)
let windowed_fabric plan times =
  let engine = Engine.create () in
  let fabric = Fabric.create ~faults:(Plan.of_string plan) engine (Rng.create ~seed:1) in
  let delivered = ref 0 in
  Fabric.register fabric (Addr.Host 1) (fun _ -> incr delivered);
  List.iter
    (fun (at, dst) ->
      ignore
        (Engine.schedule_at engine ~at (fun () ->
             Fabric.send fabric ~src:(Addr.Host 0) ~dst ())))
    times;
  (fabric, fun () -> Engine.run engine; !delivered)

let test_drops_are_traced () =
  let (), records =
    Trace.with_capture (fun () ->
        let _, run =
          windowed_fabric "burst@0ns:dur=1us,loss=1;partition@10us:hosts=1,dur=10us"
            [ (0, Addr.Host 1); (Time.us 15, Addr.Host 1) ]
        in
        ignore (run ()))
  in
  let drops =
    List.filter
      (fun r ->
        r.Trace.category = Trace.Fabric
        && Astring.String.is_infix ~affix:"DROP" r.Trace.message)
      records
  in
  Alcotest.(check int) "both drop paths traced" 2 (List.length drops);
  Alcotest.(check bool) "partition drop labelled" true
    (List.exists
       (fun r -> Astring.String.is_infix ~affix:"partition" r.Trace.message)
       drops)

(* -- Partitions ------------------------------------------------------------- *)

let test_partition_and_heal () =
  (* Two overlapping windows on host 1: it stays cut until the later one
     closes, then delivers again. *)
  let fabric, run =
    windowed_fabric "partition@10us:hosts=1,dur=20us;partition@20us:hosts=1,dur=20us"
      [ (Time.us 15, Addr.Host 1); (Time.us 35, Addr.Host 1); (Time.us 45, Addr.Host 1) ]
  in
  Alcotest.(check int) "delivers once the windows close" 1 (run ());
  Alcotest.(check int) "drops counted as partition drops" 2
    (Fabric.partition_dropped fabric);
  Alcotest.(check int) "no loss draws" 0 (Fabric.lost fabric)

(* -- Straggler slowdown ------------------------------------------------------ *)

let test_cpu_slowdown () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine in
  Cpu.set_slowdown cpu 2.0;
  let done_at = ref 0 in
  Cpu.submit cpu ~cost:(Time.us 100) (fun () -> done_at := Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "100us of work takes 200us at 2x slowdown" (Time.us 200)
    !done_at;
  check_invalid "slowdown below 1" (fun () -> Cpu.set_slowdown cpu 0.5)

(* -- Crash / restart and straggler edges -------------------------------------- *)

let faulted_cluster ?(faults = "") () =
  Cluster.create
    {
      Cluster.default_config with
      workers = 2;
      executors_per_worker = 2;
      clients = 1;
      client_timeout = Some (Time.ms 1);
      faults = Plan.of_string faults;
    }

let fired cluster faults =
  Plan.timeline (Plan.of_string faults) ~failovers:(Cluster.failovers cluster)
    ~until:(Engine.now (Cluster.engine cluster))

let test_crash_restart_recovery () =
  let faults = "crash@300us:node=0,down=1ms" in
  let cluster = faulted_cluster ~faults () in
  Cluster.start cluster;
  let (drained, m), records =
    Trace.with_capture (fun () ->
        ignore
          (Client.submit_job (Cluster.client cluster 0)
             (List.init 8 (busy_task ~us:200)));
        Cluster.run cluster ~until:(Time.ms 3);
        let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
        (drained, Cluster.metrics cluster))
  in
  Alcotest.(check bool) "drained despite the crash" true drained;
  Alcotest.(check int) "every task completed" 8 (Metrics.completed m);
  Alcotest.(check bool) "crash lost work was recovered by timeouts" true
    (Metrics.resubmitted m > 0);
  Alcotest.(check (list (pair int string))) "crash and restart both fired"
    [ (Time.us 300, "crash node 0 (down 1000 us)"); (Time.us 1300, "restart node 0") ]
    (fired cluster faults);
  let has affix =
    List.exists (fun r -> Astring.String.is_infix ~affix r.Trace.message) records
  in
  Alcotest.(check bool) "executor crash traced" true (has "CRASH");
  Alcotest.(check bool) "executor restart traced" true (has "RESTART")

let test_straggler_window () =
  let cluster =
    faulted_cluster ~faults:"straggler@100us:node=0,factor=8,dur=1ms" ()
  in
  Cluster.start cluster;
  let factor node = Executor.slowdown (Worker.executor (Cluster.worker cluster node) 0) in
  ignore (Client.submit_job (Cluster.client cluster 0) (List.init 8 (busy_task ~us:200)));
  Cluster.run cluster ~until:(Time.us 500);
  (* Mid-window: node 0 executors are degraded, node 1 untouched. *)
  Alcotest.(check (float 0.0)) "node 0 degraded" 8.0 (factor 0);
  Alcotest.(check (float 0.0)) "node 1 untouched" 1.0 (factor 1);
  Cluster.run cluster ~until:(Time.ms 2);
  Alcotest.(check (float 0.0)) "degradation window closed" 1.0 (factor 0);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
  Alcotest.(check bool) "drained despite the straggler" true drained;
  Alcotest.(check int) "all completed" 8 (Metrics.completed (Cluster.metrics cluster))

(* A plan the system cannot honour fails at construction, naming what. *)
let test_arm_rejects_unsupported () =
  let r2p2 faults =
    B.R2p2.create
      {
        B.R2p2.default_config with
        workers = 2;
        executors_per_worker = 2;
        clients = 1;
        faults = Plan.of_string faults;
      }
  in
  check_invalid "crash against push executors" (fun () -> r2p2 "crash@1ms:node=0");
  check_invalid "straggler against push executors" (fun () ->
      r2p2 "straggler@1ms:node=0,factor=2,dur=1ms");
  (* Fabric-level faults arm fine. *)
  ignore (r2p2 "failover@1ms;burst@1ms:dur=1ms,loss=0.5");
  (* Hosts and nodes are checked against the deployment: 2 workers and
     1 client (plus the server host for a central server). *)
  let rejects what faults f =
    match f faults with
    | _ -> Alcotest.failf "%s: %s accepted" what faults
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ " names the id") true
        (Astring.String.is_infix ~affix:"outside [0, " msg)
  in
  let cluster faults = ignore (faulted_cluster ~faults ()) in
  let server faults =
    ignore
      (B.Central_server.create
         {
           B.Central_server.default_config with
           workers = 2;
           executors_per_worker = 2;
           clients = 1;
           faults = Plan.of_string faults;
         })
  in
  rejects "cluster host" "partition@1ms:hosts=3,dur=1ms" cluster;
  rejects "cluster crash node" "crash@1ms:node=2" cluster;
  rejects "cluster straggler node" "straggler@1ms:node=2,factor=2,dur=1ms" cluster;
  rejects "server host" "partition@1ms:hosts=4,dur=1ms" server;
  rejects "server node" "crash@1ms:node=2,down=1ms" server;
  cluster "partition@1ms:hosts=2,dur=1ms;crash@1ms:node=1";
  server "partition@1ms:hosts=3,dur=1ms"

(* -- Overlapping windows compose by max --------------------------------------- *)

let test_burst_overlap_max () =
  let plan =
    Plan.of_string
      "burst@0ns:dur=2ms,loss=0.9;burst@1ms:dur=2ms,loss=0.5;\
       straggler@0ns:node=1,factor=4,dur=2ms;straggler@1ms:node=1,factor=2,dur=2ms"
  in
  let at us = Time.us us in
  Alcotest.(check (list (float 0.0))) "loss: first alone, max of the overlap, survivor, none"
    [ 0.9; 0.9; 0.5; 0.0 ]
    (List.map (fun us -> Plan.loss_at plan (at us)) [ 500; 1500; 2500; 3500 ]);
  Alcotest.(check (list (float 0.0))) "straggler factor likewise"
    [ 4.0; 4.0; 2.0; 1.0 ]
    (List.map (fun us -> Plan.slow_at plan ~node:1 (at us)) [ 500; 1500; 2500; 3500 ]);
  Alcotest.(check (float 0.0)) "other nodes untouched" 1.0
    (Plan.slow_at plan ~node:0 (at 1500));
  Alcotest.(check (list (float 0.0))) "windows are half-open"
    [ 0.9; 0.5; 0.0 ]
    (List.map (fun us -> Plan.loss_at plan (at us)) [ 0; 2000; 3000 ])

(* -- Client resubmission cap (satellite) ------------------------------------- *)

let test_resubmission_cap () =
  (* Executors never started: every submission times out forever.  The
     cap must stop the retry loop and drain the client. *)
  let cluster = faulted_cluster () in
  let client = Cluster.client cluster 0 in
  ignore (Client.submit_job client (List.init 5 (busy_task ~us:100)));
  Cluster.run cluster ~until:(Time.ms 10);
  let m = Cluster.metrics cluster in
  Alcotest.(check int) "outstanding drained by abandonment" 0 (Cluster.outstanding cluster);
  Alcotest.(check int) "one abandonment per task" 5 (Client.abandoned client);
  Alcotest.(check int) "exactly max_resubmissions retries per task" 15
    (Client.resubmitted client);
  Alcotest.(check int) "initial try + 3 retries each time out" 20 (Metrics.timeouts m);
  Alcotest.(check int) "metrics mirror the client counters" 5 (Metrics.abandoned m);
  Alcotest.(check int) "nothing completed" 0 (Metrics.completed m)

(* -- Fail-over recovery bounded by the client timeout ------------------------- *)

let measure cluster ~until =
  Recovery.measure ~system:"draconis" ~metrics:(Cluster.metrics cluster)
    ~failovers:(Cluster.failovers cluster) ~until ()

let failover_run () =
  let cluster = faulted_cluster ~faults:"failover@500us" () in
  Cluster.start cluster;
  (* 20 x 200us on 4 executors: a deep backlog is queued when the switch
     dies at 500us. *)
  ignore (Client.submit_job (Cluster.client cluster 0) (List.init 20 (busy_task ~us:200)));
  Cluster.run cluster ~until:(Time.ms 2);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
  (drained, measure cluster ~until:(Time.ms 2))

let test_failover_recovery_bounded () =
  let drained, report = failover_run () in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "one fail-over" 1 report.Recovery.failovers;
  Alcotest.(check bool) "queued tasks were lost" true (report.Recovery.queued_lost > 0);
  Alcotest.(check int) "every task completed" 20 report.Recovery.completed;
  Alcotest.(check bool) "lost tasks were resubmitted, not abandoned" true
    (report.Recovery.resubmitted >= report.Recovery.queued_lost);
  Alcotest.(check int) "no task exhausted its budget" 0 report.Recovery.abandoned;
  (match report.Recovery.recovery with
  | None -> Alcotest.fail "no recovery time measured"
  | Some r ->
    Alcotest.(check bool) "standby assigns within the client timeout" true
      (r <= Time.ms 1));
  Alcotest.(check bool) "availability over the fault window" true
    (report.Recovery.availability > 0.0)

(* -- Determinism -------------------------------------------------------------- *)

let deterministic_scenario () =
  let faults =
    "burst@200us:dur=300us,loss=0.6;failover@500us;crash@700us:node=1,down=500us"
  in
  let cluster = faulted_cluster ~faults () in
  Cluster.start cluster;
  let engine = Cluster.engine cluster in
  for i = 0 to 29 do
    ignore
      (Engine.schedule engine ~after:(Time.us (30 * i)) (fun () ->
           ignore (Client.submit_job (Cluster.client cluster 0) [ busy_task ~us:200 i ])))
  done;
  Cluster.run cluster ~until:(Time.ms 3);
  ignore (Cluster.run_until_drained cluster ~deadline:(Time.s 2));
  (measure cluster ~until:(Time.ms 3), fired cluster faults)

let test_fault_determinism () =
  let report_a, fired_a = deterministic_scenario () in
  let report_b, fired_b = deterministic_scenario () in
  Alcotest.(check bool) "identical recovery reports" true (report_a = report_b);
  Alcotest.(check (list (pair int string))) "identical fault logs" fired_a fired_b;
  Alcotest.(check bool) "scenario exercised losses" true
    (report_a.Recovery.timeouts > 0)

(* -- Baseline fail-over hooks ------------------------------------------------- *)

let test_central_server_failover () =
  let server =
    B.Central_server.create
      {
        B.Central_server.default_config with
        workers = 2;
        executors_per_worker = 2;
        clients = 1;
      }
  in
  (* Workers never started: submissions sit in the server queue. *)
  ignore (Client.submit_job (B.Central_server.client server 0) (List.init 7 (busy_task ~us:100)));
  B.Central_server.run server ~until:(Time.ms 1);
  Alcotest.(check int) "tasks queued at the server" 7
    (B.Central_server.queue_length server);
  Alcotest.(check int) "fail-over reports the losses" 7
    (B.Central_server.fail_over_server server);
  Alcotest.(check int) "standby starts empty" 0 (B.Central_server.queue_length server);
  Alcotest.(check (list (pair int int))) "fail-over recorded" [ (Time.ms 1, 7) ]
    (B.Central_server.failovers server)

let test_r2p2_failover_resets_registers () =
  let r2p2 =
    B.R2p2.create
      { B.R2p2.default_config with workers = 2; executors_per_worker = 2; clients = 1 }
  in
  ignore (Client.submit_job (B.R2p2.client r2p2 0) (List.init 4 (busy_task ~us:500)));
  B.R2p2.run r2p2 ~until:(Time.us 100);
  let believed = ref 0 in
  for e = 0 to B.R2p2.total_executors r2p2 - 1 do
    believed := !believed + B.R2p2.counter r2p2 e
  done;
  Alcotest.(check bool) "counters track pushed tasks" true (!believed > 0);
  Alcotest.(check int) "fail-over wipes the believed occupancy" !believed
    (B.R2p2.fail_over_switch r2p2);
  for e = 0 to B.R2p2.total_executors r2p2 - 1 do
    Alcotest.(check int) "counter reset" 0 (B.R2p2.counter r2p2 e)
  done

let suite =
  [
    Alcotest.test_case "plan: parse and sort" `Quick test_plan_parse;
    Alcotest.test_case "plan: string round-trip" `Quick test_plan_round_trip;
    Alcotest.test_case "plan: validation" `Quick test_plan_validation;
    Alcotest.test_case "plan: timeline in firing order" `Quick test_plan_timeline;
    Alcotest.test_case "fabric: config validation" `Quick test_fabric_config_validation;
    Alcotest.test_case "fabric: drops are traced" `Quick test_drops_are_traced;
    Alcotest.test_case "fabric: partition and heal" `Quick test_partition_and_heal;
    Alcotest.test_case "cpu: straggler slowdown" `Quick test_cpu_slowdown;
    Alcotest.test_case "injector: crash and restart" `Quick test_crash_restart_recovery;
    Alcotest.test_case "injector: straggler window" `Quick test_straggler_window;
    Alcotest.test_case "injector: rejects unsupported faults" `Quick
      test_arm_rejects_unsupported;
    Alcotest.test_case "injector: overlapping bursts take max" `Quick
      test_burst_overlap_max;
    Alcotest.test_case "client: resubmission cap" `Quick test_resubmission_cap;
    Alcotest.test_case "fail-over: recovery bounded by timeout" `Quick
      test_failover_recovery_bounded;
    Alcotest.test_case "fault runs are deterministic" `Quick test_fault_determinism;
    Alcotest.test_case "central server fail-over" `Quick test_central_server_failover;
    Alcotest.test_case "r2p2 fail-over resets registers" `Quick
      test_r2p2_failover_resets_registers;
  ]
