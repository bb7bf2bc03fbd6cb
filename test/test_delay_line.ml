(* Delay_line and the Watchdog line must be indistinguishable from one
   engine closure per item: same firing order, same virtual times,
   interleaved with unrelated events, across the engine's sequence-counter
   renumbering.  The Watchdog line must also leave [Engine.earliest]
   unchanged, since barrier windows are cut from it. *)

open Draconis_sim

(* Burn the engine's 21-bit sequence counter up to a little below its
   limit, so the workload that follows crosses the renumbering. *)
let burn_seq engine n =
  let left = ref n in
  while !left > 0 do
    let batch = min !left 10_000 in
    for _ = 1 to batch do
      ignore (Engine.schedule engine ~after:0 ignore)
    done;
    Engine.run ~until:(Engine.now engine) engine;
    left := !left - batch
  done

(* One seeded workload.  Item [i] is logged as [i], unrelated event [j]
   as [-j]; the log is (id, virtual time) in firing order.  Exit times
   are non-decreasing with frequent same-nanosecond ties, and unrelated
   events land on the same instants.  Every draw happens before the run
   or inside a handler, so two implementations that fire in the same
   order see the same schedule. *)
let run_workload ~use_line ~calendar ~seed ~burn =
  let engine = Engine.create ~calendar () in
  burn_seq engine burn;
  let rng = Rng.create ~seed in
  let log = ref [] in
  let note id = log := (id, Engine.now engine) :: !log in
  let line = Delay_line.create engine (fun id () -> note id) in
  let items = ref 0 and noise = ref 0 and last_exit = ref 0 in
  let push () =
    let base = max !last_exit (Engine.now engine) in
    let at = if Rng.int rng 3 = 0 then base else base + Rng.int rng 40 in
    last_exit := at;
    incr items;
    let id = !items in
    if use_line then Delay_line.push line ~at id ()
    else ignore (Engine.schedule_at engine ~at (fun () -> note id))
  in
  let rec unrelated () =
    incr noise;
    let id = - !noise in
    ignore
      (Engine.schedule engine ~after:(Rng.int rng 60) (fun () ->
           note id;
           (* Some unrelated events feed the line themselves. *)
           if Rng.int rng 4 = 0 then push ();
           if Rng.int rng 8 = 0 then unrelated ()))
  in
  for _ = 1 to 400 do
    ignore
      (Engine.schedule engine ~after:(Rng.int rng 5_000) (fun () ->
           for _ = 0 to Rng.int rng 3 do
             push ()
           done;
           for _ = 0 to Rng.int rng 2 do
             unrelated ()
           done))
  done;
  Engine.run engine;
  (List.rev !log, Engine.now engine)

let seq_limit = 1 lsl 21

let prop_matches_per_item_closures =
  QCheck.Test.make ~name:"delay line fires exactly like one closure per item" ~count:8
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      (* Stop a random distance short of the limit: the renumbering
         lands at a different point of the workload on every seed. *)
      let burn = seq_limit - (seed mod 2_000) in
      let calendar = if seed mod 2 = 0 then Engine.Wheel else Engine.Heap in
      let reference = run_workload ~use_line:false ~calendar ~seed ~burn in
      let line = run_workload ~use_line:true ~calendar ~seed ~burn in
      let log, _ = line in
      let pops = List.filter_map (fun (id, _) -> if id > 0 then Some id else None) log in
      (* Pops come out in push order... *)
      pops = List.init (List.length pops) (fun i -> i + 1)
      (* ...interleaved with everything else exactly as the engine fires
         per-item closures. *)
      && line = reference)

let test_backwards_push_raises () =
  let engine = Engine.create () in
  let fired = ref [] in
  let line = Delay_line.create engine (fun id () -> fired := id :: !fired) in
  Delay_line.push line ~at:100 1 ();
  Delay_line.push line ~at:100 2 ();
  (match Delay_line.push line ~at:99 3 () with
  | () -> Alcotest.fail "a push behind the last exit must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "the rejected item is not in flight" 2 (Delay_line.length line);
  Engine.run engine;
  Alcotest.(check (list int)) "in-flight items still leave in order" [ 1; 2 ]
    (List.rev !fired);
  (* An empty line orders nothing: any exit not in the past is fine. *)
  Delay_line.push line ~at:150 4 ();
  Engine.run engine;
  Alcotest.(check (list int)) "after draining" [ 1; 2; 4 ] (List.rev !fired)

let test_ring_grows_in_order () =
  let engine = Engine.create () in
  let fired = ref [] in
  let line = Delay_line.create engine (fun id tag -> fired := (id, tag) :: !fired) in
  (* Wrap the ring before it grows, so growth unrolls a wrapped ring. *)
  for i = 1 to 10 do
    Delay_line.push line ~at:i i (string_of_int i)
  done;
  Engine.run ~until:6 engine;
  for i = 11 to 100 do
    Delay_line.push line ~at:(10 + (i / 2)) i (string_of_int i)
  done;
  Engine.run engine;
  Alcotest.(check (list (pair int string))) "both payloads, push order"
    (List.init 100 (fun i -> (i + 1, string_of_int (i + 1))))
    (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Delay_line.length line)

(* -- Watchdog line ---------------------------------------------------------- *)

let window = 50

(* One seeded workload of owners whose checks are pushed [window] after
   each send and killed by answers.  The reference schedules one closure
   per check that tests liveness when it fires; the line elides the dead
   ones.  Every logged event records [(id, now, earliest)]: fired checks
   as [1000 * owner + generation], unrelated events as [-j].  Unrelated
   events often land on the nanosecond a check fires.  The run proceeds
   in short [run ~until] slices, each recording the clock and
   [earliest], so every window floor a barrier could cut is compared. *)
let run_watch ~use_line ~calendar ~seed ~burn =
  let engine = Engine.create ~calendar () in
  burn_seq engine burn;
  let rng = Rng.create ~seed in
  let slices = Rng.create ~seed:(seed + 1) in
  let log = ref [] in
  let note id = log := (id, Engine.now engine, Engine.earliest engine) :: !log in
  let owners = 5 in
  let gens = Array.make owners 0 in
  let live o g = gens.(o) = g in
  let push_ref = ref (fun _ -> ()) in
  let fired o g =
    note ((1000 * o) + g);
    (* A live check re-sends, like an executor's watchdog. *)
    if Rng.int rng 2 = 0 then !push_ref o
  in
  let line = Watchdog.create engine ~live fired in
  let ids = Array.init owners (Watchdog.add line) in
  let push o =
    gens.(o) <- gens.(o) + 1;
    let g = gens.(o) in
    let at = Engine.now engine + window in
    if use_line then Watchdog.push line ~at ids.(o) g
    else ignore (Engine.schedule_at engine ~at (fun () -> if live o g then fired o g))
  in
  push_ref := push;
  let answer o = gens.(o) <- gens.(o) + 1 in
  let noise = ref 0 in
  let rec unrelated () =
    incr noise;
    let id = - !noise in
    let after = if Rng.int rng 3 = 0 then window else Rng.int rng 60 in
    ignore
      (Engine.schedule engine ~after (fun () ->
           note id;
           act ()))
  and act () =
    match Rng.int rng 6 with
    | 0 | 1 -> push (Rng.int rng owners)
    | 2 | 3 -> answer (Rng.int rng owners)
    | 4 -> unrelated ()
    | _ -> ()
  in
  for _ = 1 to 300 do
    ignore
      (Engine.schedule engine ~after:(Rng.int rng 3_000) (fun () ->
           for _ = 0 to Rng.int rng 3 do
             act ()
           done;
           unrelated ()))
  done;
  let floors = ref [] in
  while Engine.earliest engine <> max_int do
    Engine.run ~until:(Engine.now engine + 1 + Rng.int slices 12) engine;
    floors := (Engine.now engine, Engine.earliest engine) :: !floors
  done;
  (List.rev !log, List.rev !floors, Engine.executed engine)

let prop_watchdog_matches_per_check_closures =
  QCheck.Test.make ~name:"watchdog line fires and floors like one closure per check"
    ~count:12
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      (* Half the seeds cross a renumbering at a seed-dependent point. *)
      let burn = if seed mod 4 < 2 then seq_limit - (seed mod 3_000) else 0 in
      let calendar = if seed mod 2 = 0 then Engine.Wheel else Engine.Heap in
      let ref_log, ref_floors, ref_events =
        run_watch ~use_line:false ~calendar ~seed ~burn
      in
      let log, floors, events = run_watch ~use_line:true ~calendar ~seed ~burn in
      log = ref_log && floors = ref_floors && events < ref_events
      && List.exists (fun (id, _, _) -> id > 0) log)

(* A reserved key fires where a schedule at reservation time would have,
   ahead of later same-instant events, on both calendars. *)
let test_reserved_key_order () =
  List.iter
    (fun calendar ->
      let engine = Engine.create ~calendar () in
      let fired = ref [] in
      let note id () = fired := id :: !fired in
      let r = Engine.reserve engine ~at:100 in
      ignore (Engine.schedule_at engine ~at:100 (note 2));
      ignore (Engine.schedule_at engine ~at:40 (note 0));
      ignore (Engine.schedule_reserved engine r (note 1));
      Alcotest.(check int) "earliest" 40 (Engine.earliest engine);
      Engine.run engine;
      Alcotest.(check (list int))
        (Engine.calendar_name calendar ^ ": key order")
        [ 0; 1; 2 ] (List.rev !fired);
      (* An unscheduled reservation holds the floor until it is passed,
         and a drained run moves the clock through it. *)
      let _ = Engine.reserve engine ~at:250 in
      Alcotest.(check int) "unscheduled reservation floor" 250 (Engine.earliest engine);
      Engine.run engine;
      Alcotest.(check int) "clock passed the reservation" 250 (Engine.now engine);
      Alcotest.(check int) "floor cleared" max_int (Engine.earliest engine))
    [ Engine.Wheel; Engine.Heap ]

let test_reservation_misuse_raises () =
  let engine = Engine.create () in
  let r = Engine.reserve engine ~at:100 in
  (match Engine.reserve engine ~at:99 with
  | _ -> Alcotest.fail "a reservation behind the last one must raise"
  | exception Invalid_argument _ -> ());
  Engine.run ~until:100 engine;
  match Engine.schedule_reserved engine r ignore with
  | _ -> Alcotest.fail "scheduling a passed reservation must raise"
  | exception Invalid_argument _ -> ()

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_per_item_closures;
    QCheck_alcotest.to_alcotest prop_watchdog_matches_per_check_closures;
    Alcotest.test_case "reserved keys keep their order" `Quick test_reserved_key_order;
    Alcotest.test_case "reservation misuse raises" `Quick test_reservation_misuse_raises;
    Alcotest.test_case "backwards push raises" `Quick test_backwards_push_raises;
    Alcotest.test_case "ring growth keeps order" `Quick test_ring_grows_in_order;
  ]
