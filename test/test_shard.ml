(* Tests for the parallel-in-run sharding machinery: the topology
   partitioner, the Lp/Sync conservative-window protocol, the cross-LP
   mailbox across seq-counter renumbering, the DRACONIS_SHARDS knob, and
   three determinism cases on the real cluster: an exponential workload,
   worker-domain counts, and a straggler + partition + loss-burst fault
   set.  The rest of the contract lives in test_sharded_cluster.ml. *)

open Draconis_sim
module H = Draconis_harness
module Fabric = Draconis_net.Fabric
module Topology = Draconis_net.Topology

(* -- topology partitioning ------------------------------------------------- *)

let test_partition_rack_aligned () =
  let topo = Topology.create ~nodes:12 ~racks:4 in
  let part = Topology.partition topo ~groups:2 in
  Alcotest.(check int) "covers all hosts" 12 (Array.length part);
  (* Rack-aligned: no rack straddles a group boundary. *)
  for rack = 0 to 3 do
    let groups =
      List.sort_uniq compare
        (List.map (fun h -> part.(h)) (Topology.hosts_in_rack topo rack))
    in
    Alcotest.(check int)
      (Printf.sprintf "rack %d in one group" rack)
      1 (List.length groups)
  done;
  (* Contiguous and onto [0, groups). *)
  Alcotest.(check int) "first group" 0 part.(0);
  Alcotest.(check int) "last group" 1 part.(11);
  Array.iteri
    (fun h g ->
      if h > 0 && g < part.(h - 1) then
        Alcotest.failf "groups not monotone at host %d" h)
    part;
  Alcotest.(check int) "group_of matches" part.(7)
    (Topology.group_of topo ~groups:2 7)

let test_partition_more_groups_than_racks () =
  let topo = Topology.create ~nodes:10 ~racks:2 in
  let part = Topology.partition topo ~groups:5 in
  let sizes = Array.make 5 0 in
  Array.iter (fun g -> sizes.(g) <- sizes.(g) + 1) part;
  Array.iteri
    (fun g n -> Alcotest.(check int) (Printf.sprintf "group %d size" g) 2 n)
    sizes

let test_partition_bounds () =
  let topo = Topology.create ~nodes:4 ~racks:2 in
  let raises f = try f () ; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "groups=0 rejected" true (raises (fun () ->
      ignore (Topology.partition topo ~groups:0)));
  Alcotest.(check bool) "groups>nodes rejected" true (raises (fun () ->
      ignore (Topology.partition topo ~groups:5)));
  let ident = Topology.partition topo ~groups:4 in
  Array.iteri (fun h g -> Alcotest.(check int) "one host per group" h g) ident

(* -- Lp / Mailbox safety --------------------------------------------------- *)

let test_lp_post_floor_violation () =
  let lp = Lp.create ~id:0 ~seed:1 () in
  Lp.set_floor lp 100;
  (try
     Lp.post lp ~at:100 ~src:0 ~seq:1 ignore;
     Alcotest.fail "expected lookahead violation"
   with Invalid_argument _ -> ());
  Lp.post lp ~at:101 ~src:0 ~seq:2 ignore;
  Alcotest.(check int) "accepted post pending" 1 (Lp.inbox_length lp)

let test_mailbox_lookahead_enforced () =
  let lp = Lp.create ~id:0 ~seed:1 () in
  let box = Fabric.Mailbox.create ~lookahead:500 lp in
  (try
     Fabric.Mailbox.post box ~now:0 ~latency:499 ~src:1 ~seq:1 ignore;
     Alcotest.fail "expected lookahead violation"
   with Invalid_argument _ -> ());
  Fabric.Mailbox.post box ~now:0 ~latency:500 ~src:1 ~seq:2 ignore;
  Alcotest.(check int) "posted" 1 (Fabric.Mailbox.posted box);
  try
    ignore (Fabric.Mailbox.create ~lookahead:0 lp);
    Alcotest.fail "expected zero-lookahead rejection"
  with Invalid_argument _ -> ()

(* Injection order must follow the (at, src, seq) stamp, not the post
   (domain-schedule) order. *)
let test_injection_sorted_by_stamp () =
  let lp = Lp.create ~id:0 ~seed:1 () in
  let order = ref [] in
  let mark n () = order := n :: !order in
  Lp.post lp ~at:50 ~src:9 ~seq:1 (mark 3);
  Lp.post lp ~at:50 ~src:2 ~seq:7 (mark 2);
  Lp.post lp ~at:40 ~src:9 ~seq:2 (mark 1);
  Lp.post lp ~at:50 ~src:9 ~seq:9 (mark 4);
  Lp.inject lp ~upto:100;
  Engine.run (Lp.engine lp);
  Alcotest.(check (list int)) "stamp order" [ 1; 2; 3; 4 ] (List.rev !order)

(* The list-backed inbox the array mailbox replaced, kept as an oracle:
   prepend on post, partition + stable sort on injection, fold for the
   earliest stamp. *)
module Ref_inbox = struct
  type message = { at : Time.t; src : int; seq : int; fn : unit -> unit }

  type t = {
    engine : Engine.t;
    mutable inbox : message list;
    mutable posted : int;
    mutable injected : int;
  }

  let create () = { engine = Engine.create (); inbox = []; posted = 0; injected = 0 }

  let post t ~at ~src ~seq fn =
    t.inbox <- { at; src; seq; fn } :: t.inbox;
    t.posted <- t.posted + 1

  let next_at t =
    let inbox_min =
      List.fold_left
        (fun acc m -> match acc with Some a when a <= m.at -> acc | _ -> Some m.at)
        None t.inbox
    in
    let engine_min =
      match Engine.earliest t.engine with a when a = max_int -> None | a -> Some a
    in
    match (engine_min, inbox_min) with
    | None, m | m, None -> m
    | Some a, Some b -> Some (min a b)

  let compare_stamp a b =
    let c = compare a.at b.at in
    if c <> 0 then c
    else
      let c = compare a.src b.src in
      if c <> 0 then c else compare a.seq b.seq

  let inject t ~upto =
    let due, later = List.partition (fun m -> m.at <= upto) t.inbox in
    t.inbox <- later;
    List.iter
      (fun m ->
        ignore (Engine.schedule_at t.engine ~at:m.at m.fn);
        t.injected <- t.injected + 1)
      (List.sort compare_stamp due)
end

type mailbox_op =
  | Post of int * int  (* source entity, stamp offset past the last horizon *)
  | Inject of int * int  (* horizon advance, how far short of it the engine stops *)

(* Drive Lp's inbox and the oracle through one random post/inject
   sequence.  Stamps are unique per (src, seq) and [at]s tie often; the
   first 40 posts overrun the initial capacity.  After every step the
   run order so far, next_at, inbox length, posted and injected agree. *)
let prop_mailbox_matches_list_oracle =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun src off -> Post (src, off)) (int_range 0 3) (int_range 0 12));
          (1, map2 (fun adv lag -> Inject (adv, lag)) (int_range 0 8) (int_range 0 3));
        ])
  in
  let show = function
    | Post (src, off) -> Printf.sprintf "post(%d,+%d)" src off
    | Inject (adv, lag) -> Printf.sprintf "inject(+%d,-%d)" adv lag
  in
  QCheck.Test.make ~name:"array inbox matches the list inbox" ~count:200
    (QCheck.make ~print:QCheck.Print.(list show) QCheck.Gen.(list_size (int_range 0 300) op))
    (fun ops ->
      let lp = Lp.create ~id:0 ~seed:1 () in
      let oracle = Ref_inbox.create () in
      let ran_lp = ref [] and ran_ref = ref [] in
      let seqs = Array.make 4 0 in
      let base = ref 0 and next_id = ref 0 in
      let step op =
        (match op with
        | Post (src, off) ->
          let id = !next_id in
          incr next_id;
          seqs.(src) <- seqs.(src) + 1;
          let at = !base + 1 + off and seq = seqs.(src) in
          Lp.post lp ~at ~src ~seq (fun () -> ran_lp := id :: !ran_lp);
          Ref_inbox.post oracle ~at ~src ~seq (fun () -> ran_ref := id :: !ran_ref)
        | Inject (adv, lag) ->
          let upto = !base + adv in
          Lp.inject lp ~upto;
          Ref_inbox.inject oracle ~upto;
          let stop = max (Engine.now (Lp.engine lp)) (upto - lag) in
          Engine.run ~until:stop (Lp.engine lp);
          Engine.run ~until:stop oracle.engine;
          base := upto);
        if !ran_lp <> !ran_ref then QCheck.Test.fail_report "run order diverged";
        if Lp.next_at lp <> Ref_inbox.next_at oracle then
          QCheck.Test.fail_report "next_at diverged";
        if Lp.inbox_length lp <> List.length oracle.inbox then
          QCheck.Test.fail_report "inbox_length diverged";
        if Lp.posted lp <> oracle.posted || Lp.injected lp <> oracle.injected then
          QCheck.Test.fail_report "posted/injected diverged"
      in
      List.iter step (List.init 40 (fun i -> Post (i mod 4, i mod 5)) @ ops);
      step (Inject (1_000, 0));
      Engine.run (Lp.engine lp);
      Engine.run oracle.engine;
      !ran_lp = !ran_ref && Lp.inbox_length lp = 0)

(* -- Sync across a seq-counter renumber ------------------------------------ *)

(* Mirror test_pool's FIFO-ties-across-renumber, but with the churn
   driven through barrier windows and a cross-LP message landing at the
   same instant as the direct ties: the packed-key renumber must neither
   reorder ties nor disturb mailbox injection. *)
let test_sync_ties_survive_renumber () =
  let lp0 = Lp.create ~id:0 ~seed:1 () in
  let lp1 = Lp.create ~id:1 ~seed:1 () in
  let box0 = Fabric.Mailbox.create ~lookahead:100 lp0 in
  let sync = Sync.create ~lookahead:100 [| lp0; lp1 |] in
  let e0 = Lp.engine lp0 in
  let target = 3_000_000 in
  let order = ref [] in
  let mark n () = order := n :: !order in
  ignore (Engine.schedule e0 ~after:target (mark 1));
  ignore (Engine.schedule e0 ~after:target (mark 2));
  (* Churn > 2^21 schedule+cancel pairs in drained batches, advancing
     the clocks through Sync windows (10ns per batch, far short of the
     ties' timestamp). *)
  let churn = (1 lsl 21) + 100_000 in
  for _ = 1 to churn / 500 do
    let hs = List.init 500 (fun _ -> Engine.schedule e0 ~after:10 ignore) in
    List.iter (Engine.cancel e0) hs;
    Sync.run ~until:(Engine.now e0 + 10) sync
  done;
  (* Two more direct ties after the renumber... *)
  ignore (Engine.schedule e0 ~after:(target - Engine.now e0) (mark 3));
  ignore (Engine.schedule e0 ~after:(target - Engine.now e0) (mark 4));
  (* ...and a cross-LP message arriving at the same instant. *)
  let e1 = Lp.engine lp1 in
  ignore
    (Engine.schedule e1 ~after:10 (fun () ->
         Fabric.Mailbox.post box0 ~now:(Engine.now e1)
           ~latency:(target - Engine.now e1)
           ~src:1 ~seq:1 (mark 5)));
  Sync.run sync;
  Alcotest.(check (list int)) "ties + injection in order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order);
  Alcotest.(check int) "cross-post injected" 1 (Lp.injected lp0);
  Alcotest.(check bool) "drained" true (Sync.drained sync)

(* -- the determinism contract on the real cluster ---------------------------- *)

module C = Test_sharded_cluster

(* Exponential service at another cluster seed than the sharded-cluster
   cases: same outcome, windows, messages and drops at 1, 2 and 4 LPs. *)
let test_sharded_equals_sequential () =
  let r =
    C.check_equal_across_lps (fun shards ->
        C.run_cluster ~kind:Draconis_workload.Synthetic.Exponential_250us
          ~rate_tps:40_000.0 ~seed:42 shards)
  in
  Alcotest.(check bool) "work happened" true (r.outcome.submitted > 50);
  Alcotest.(check bool) "drained" true r.outcome.drained

(* The harness sizes the window team to [min shards (Pool.jobs ())]:
   4 LPs run by 1 vs 2 worker domains must not differ in anything. *)
let test_workers_equality () =
  let jobs = H.Pool.jobs () in
  let run_with n =
    H.Pool.set_jobs n;
    C.run_cluster ~seed:11 4
  in
  let one, two =
    Fun.protect
      ~finally:(fun () -> H.Pool.set_jobs jobs)
      (fun () ->
        let one = run_with 1 in
        (one, run_with 2))
  in
  if one.outcome <> two.outcome then
    Alcotest.failf "worker count changed the outcome: %a vs %a"
      H.Runner.pp_outcome one.outcome H.Runner.pp_outcome two.outcome;
  Alcotest.(check int) "windows" one.windows two.windows

(* A straggler, a partition of a worker and a client, and a 50% loss
   burst, overlapping: the degraded outcome is the same at every LP
   count, the drops surface as client timeouts, and every submitted
   task is accounted for as completed or abandoned. *)
let test_fault_plan_equality () =
  let faults =
    Draconis_net.Plan.of_string
      "straggler@500us:node=1,factor=4,dur=8ms;partition@1ms:hosts=0+5,dur=4ms;\
       burst@2ms:dur=3ms,loss=0.5"
  in
  let r =
    C.check_equal_across_lps (fun shards ->
        C.run_cluster ~faults ~client_timeout:(Time.ms 2) ~seed:42 shards)
  in
  Alcotest.(check bool) "faults dropped messages" true (r.dropped > 0);
  Alcotest.(check bool) "drops become timeouts" true (r.outcome.timeouts > 0);
  Alcotest.(check int) "completed + abandoned = submitted" r.outcome.submitted
    (r.outcome.completed + r.abandoned)

(* -- the DRACONIS_SHARDS knob ---------------------------------------------- *)

let test_shards_knob () =
  let raises f = try f () ; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "0 rejected" true
    (raises (fun () -> H.Shard.set_shards (Some 0)));
  Alcotest.(check bool) "above cap rejected" true
    (raises (fun () -> H.Shard.set_shards (Some (H.Shard.max_shards + 1))));
  H.Shard.set_shards (Some 2);
  Alcotest.(check (option int)) "override sticks" (Some 2) (H.Shard.shards ());
  H.Shard.set_shards None;
  Alcotest.(check (option int)) "override dropped" None (H.Shard.shards ())

let test_env_shards_fails_loudly () =
  (* A bad DRACONIS_SHARDS must raise, not warn and run unsharded. *)
  let with_env v f =
    Unix.putenv H.Shard.env_var v;
    Fun.protect ~finally:(fun () -> Unix.putenv H.Shard.env_var "") f
  in
  let rejects v =
    with_env v (fun () ->
        try
          ignore (H.Shard.shards ());
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "garbage rejected" true (rejects "two");
  Alcotest.(check bool) "zero rejected" true (rejects "0");
  Alcotest.(check bool) "above cap rejected" true
    (rejects (string_of_int (H.Shard.max_shards + 1)));
  with_env "4" (fun () ->
      Alcotest.(check (option int)) "valid setting honoured" (Some 4)
        (H.Shard.shards ()));
  with_env "" (fun () ->
      Alcotest.(check (option int)) "empty means unset" None (H.Shard.shards ()))

let suite =
  [
    Alcotest.test_case "topology partition is rack-aligned" `Quick
      test_partition_rack_aligned;
    Alcotest.test_case "partition with more groups than racks" `Quick
      test_partition_more_groups_than_racks;
    Alcotest.test_case "partition bounds" `Quick test_partition_bounds;
    Alcotest.test_case "Lp.post rejects stamps below the floor" `Quick
      test_lp_post_floor_violation;
    Alcotest.test_case "mailbox enforces the lookahead" `Quick
      test_mailbox_lookahead_enforced;
    Alcotest.test_case "injection sorts by (at, src, seq)" `Quick
      test_injection_sorted_by_stamp;
    QCheck_alcotest.to_alcotest prop_mailbox_matches_list_oracle;
    Alcotest.test_case "ties + injection survive renumber" `Slow
      test_sync_ties_survive_renumber;
    Alcotest.test_case "sharded = sequential outcomes" `Quick
      test_sharded_equals_sequential;
    Alcotest.test_case "worker domains do not change outcomes" `Quick
      test_workers_equality;
    Alcotest.test_case "fault plans compose with sharding" `Quick
      test_fault_plan_equality;
    Alcotest.test_case "DRACONIS_SHARDS knob validation" `Quick test_shards_knob;
    Alcotest.test_case "DRACONIS_SHARDS fails loudly" `Quick
      test_env_shards_fails_loudly;
  ]
