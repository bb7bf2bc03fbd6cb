open Draconis_sim
open Draconis_stats
open Draconis_workload
module Plan = Draconis_net.Plan
module CS = Draconis_baselines.Central_server

let kind = Synthetic.Fixed_500us

(* Only systems with a client timeout can recover from faults; sparrow
   (no timeout path) is excluded.  Each system takes the plan when it is
   built.  Draconis honours a requested shard count
   (--shards/DRACONIS_SHARDS); its outcomes do not depend on it. *)
let systems ~timeout spec =
  [
    (fun faults ->
      Systems.draconis ?shards:(Shard.shards ()) ~client_timeout:timeout ~faults spec);
    (fun faults -> Systems.central_server ~client_timeout:timeout ~faults CS.Dpdk spec);
    (fun faults -> Systems.central_server ~client_timeout:timeout ~faults CS.Socket spec);
    (fun faults -> Systems.r2p2 ~k:3 ~client_timeout:timeout ~faults spec);
    (fun faults -> Systems.racksched ~client_timeout:timeout ~faults spec);
  ]

(* Increasing fault intensity: nothing, a mid-run scheduler fail-over,
   fail-over plus a correlated loss burst, and all of it plus a
   two-worker partition while the standby is still catching up. *)
let plans ~horizon ~quick =
  let mid = horizon / 2 in
  let base =
    [
      ("none", Plan.empty);
      ("failover", Plan.create [ { Plan.at = mid; event = Plan.Switch_failover } ]);
    ]
  in
  if quick then base
  else
    base
    @ [
        ( "failover+burst",
          Plan.create
            [
              {
                Plan.at = horizon / 4;
                event = Plan.Loss_burst { duration = horizon / 8; loss = 0.5 };
              };
              { Plan.at = mid; event = Plan.Switch_failover };
            ] );
        ( "failover+burst+partition",
          Plan.create
            [
              {
                Plan.at = horizon / 4;
                event = Plan.Loss_burst { duration = horizon / 8; loss = 0.5 };
              };
              { Plan.at = mid; event = Plan.Switch_failover };
              {
                Plan.at = horizon * 5 / 8;
                event = Plan.Partition { hosts = [ 0; 1 ]; duration = horizon / 8 };
              };
            ] );
      ]

let run ?(quick = false) () =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  (* High enough utilization that queues hold real state when the
     scheduler dies, low enough that every system can still drain. *)
  let load = 0.8 *. Exp_common.capacity_tps kind ~executors in
  let horizon = if quick then Time.ms 10 else Time.ms 40 in
  let timeout = Time.ms 1 in
  let plans = plans ~horizon ~quick in
  let table =
    Table.create
      ~columns:
        [ "system"; "faults"; "p99 (us)"; "completed"; "lost"; "recovery (us)";
          "timeouts"; "resub"; "aband"; "avail"; "drained" ]
  in
  (* Same pooling discipline as fig5a: one self-contained closure per
     (system x plan) grid point, results merged in submission order, so
     the table is byte-identical for any --jobs. *)
  let grid =
    List.concat_map
      (fun make -> List.map (fun (pname, plan) -> (make, pname, plan)) plans)
      (systems ~timeout spec)
  in
  let rows =
    Pool.map
      (List.map
         (fun (make, _, plan) () ->
           let running = make plan in
           let driver = Exp_common.synthetic_driver kind ~rate_tps:load ~horizon in
           let outcome = Runner.run running ~driver ~load_tps:load ~horizon () in
           let report =
             Recovery.measure ~system:running.Systems.name ~metrics:running.metrics
               ~failovers:(running.failovers ()) ~until:horizon ()
           in
           (outcome, report))
         grid)
  in
  (* One grid point per (system, plan) at a single load: the plan goes
     into the reported system label so every row keys uniquely. *)
  Report.add_outcomes
    (List.map2
       (fun (_, pname, _) ((o : Runner.outcome), _) ->
         { o with system = Printf.sprintf "%s [%s]" o.system pname })
       grid rows);
  List.iter2
    (fun (_, pname, _) ((o : Runner.outcome), (r : Recovery.report)) ->
      Table.add_row table
        [
          o.system;
          pname;
          Exp_common.us o.sched_p99;
          Printf.sprintf "%d/%d" o.completed o.submitted;
          string_of_int r.queued_lost;
          (match r.recovery with None -> "-" | Some t -> Exp_common.us t);
          string_of_int r.timeouts;
          string_of_int r.resubmitted;
          string_of_int r.abandoned;
          Printf.sprintf "%.0f%%" (100.0 *. r.availability);
          Exp_common.yn o.drained;
        ])
    grid rows;
  Table.print ~title:"Fig F: fault injection - failover, burst, partition recovery"
    table
