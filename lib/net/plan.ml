open Draconis_sim

type event =
  | Switch_failover
  | Crash of { node : int; down_for : Time.t option }
  | Loss_burst of { duration : Time.t; loss : float }
  | Partition of { hosts : int list; duration : Time.t }
  | Straggler of { node : int; factor : float; duration : Time.t }

type timed = { at : Time.t; event : event }

(* [events] in firing order, plus the window arrays the evaluators
   read, compiled once by [create]. *)
type t = {
  events : timed list;
  losses : (Time.t * Time.t * float) array;  (* [start, stop), drop probability *)
  cuts : (Time.t * Time.t * int list) array;  (* [start, stop), hosts cut off *)
  slows : (Time.t * Time.t * int * float) array;  (* [start, stop), node, factor *)
}

let empty = { events = []; losses = [||]; cuts = [||]; slows = [||] }
let is_empty t = t.events = []

let validate_event (timed : timed) =
  if timed.at < 0 then invalid_arg "Plan.create: negative event time";
  match timed.event with
  | Switch_failover -> ()
  | Crash { node; down_for } ->
    if node < 0 then invalid_arg "Plan.create: crash: negative node";
    (match down_for with
    | Some d when d <= 0 -> invalid_arg "Plan.create: crash: non-positive down time"
    | Some _ | None -> ())
  | Loss_burst { duration; loss } ->
    if duration <= 0 then invalid_arg "Plan.create: burst: non-positive duration";
    if loss < 0.0 || loss > 1.0 || Float.is_nan loss then
      invalid_arg "Plan.create: burst: loss outside [0,1]"
  | Partition { hosts; duration } ->
    if hosts = [] then invalid_arg "Plan.create: partition: empty host list";
    if List.exists (fun h -> h < 0) hosts then
      invalid_arg "Plan.create: partition: negative host id";
    if duration <= 0 then invalid_arg "Plan.create: partition: non-positive duration"
  | Straggler { node; factor; duration } ->
    if node < 0 then invalid_arg "Plan.create: straggler: negative node";
    if factor < 1.0 || Float.is_nan factor then
      invalid_arg "Plan.create: straggler: factor must be >= 1.0";
    if duration <= 0 then invalid_arg "Plan.create: straggler: non-positive duration"

let create events =
  List.iter validate_event events;
  let events = List.stable_sort (fun a b -> compare a.at b.at) events in
  let windows f = Array.of_list (List.filter_map f events) in
  {
    events;
    losses =
      windows (function
        | { at; event = Loss_burst { duration; loss } } -> Some (at, at + duration, loss)
        | _ -> None);
    cuts =
      windows (function
        | { at; event = Partition { hosts; duration } } -> Some (at, at + duration, hosts)
        | _ -> None);
    slows =
      windows (function
        | { at; event = Straggler { node; factor; duration } } ->
          Some (at, at + duration, node, factor)
        | _ -> None);
  }

let events t = t.events

(* -- Windows: pure functions of simulated time, max-composed --------------- *)

let has_windows t = t.losses <> [||] || t.cuts <> [||]

let loss_at t now =
  Array.fold_left
    (fun acc (a, b, p) -> if now >= a && now < b then Float.max acc p else acc)
    0.0 t.losses

let cut_at t now host =
  Array.exists (fun (a, b, hosts) -> now >= a && now < b && List.mem host hosts) t.cuts

let slow_at t ~node now =
  Array.fold_left
    (fun acc (a, b, n, factor) ->
      if n = node && now >= a && now < b then Float.max acc factor else acc)
    1.0 t.slows

(* -- Arming: validation against the system, then the timed edges ---------- *)

type nodes = {
  count : int;
  engine : int -> Engine.t;
  crash : int -> unit;
  restart : int -> unit;
  slowdown : int -> float -> unit;
}

let check t ~what ~hosts ~nodes =
  let node_in kind node =
    match nodes with
    | None -> invalid_arg (Printf.sprintf "%s: %s faults are not supported" what kind)
    | Some n ->
      if node >= n.count then
        invalid_arg
          (Printf.sprintf "%s: %s node %d outside [0, %d)" what kind node n.count)
  in
  List.iter
    (fun { event; _ } ->
      match event with
      | Switch_failover | Loss_burst _ -> ()
      | Partition { hosts = hs; _ } ->
        List.iter
          (fun h ->
            if h >= hosts then
              invalid_arg
                (Printf.sprintf "%s: partition host %d outside [0, %d)" what h hosts))
          hs
      | Crash { node; _ } -> node_in "crash" node
      | Straggler { node; _ } -> node_in "straggler" node)
    t.events

(* Every timed edge of the plan: the start of each event in plan order,
   then the end of each windowed event (crash restarts included) in plan
   order.  Scheduled in this order, same-time edges fire starts first,
   and [timeline] is this list stably sorted by time. *)
type edge = Start of timed | End of timed

let edges t =
  let ends =
    List.filter_map
      (fun ev ->
        match ev.event with
        | Switch_failover | Crash { down_for = None; _ } -> None
        | Crash { down_for = Some d; _ } -> Some (ev.at + d, End ev)
        | Loss_burst { duration; _ }
        | Partition { duration; _ }
        | Straggler { duration; _ } ->
          Some (ev.at + duration, End ev))
      t.events
  in
  List.map (fun ev -> (ev.at, Start ev)) t.events @ ends

let arm t ~what ~hosts ~switch ~failover ?nodes () =
  check t ~what ~hosts ~nodes;
  List.iter
    (fun (time, edge) ->
      let on engine f = ignore (Engine.schedule_at engine ~at:time f) in
      let ev = match edge with Start ev | End ev -> ev in
      match (ev.event, nodes) with
      | Switch_failover, _ -> on switch failover
      | Crash { node; _ }, Some n ->
        on (n.engine node) (fun () ->
            match edge with Start _ -> n.crash node | End _ -> n.restart node)
      | Straggler { node; _ }, Some n ->
        (* Each edge recomputes the node's factor from every window, so
           overlapping windows compose by max without per-edge state. *)
        on (n.engine node) (fun () -> n.slowdown node (slow_at t ~node time))
      | (Crash _ | Straggler _), None -> assert false (* rejected by [check] *)
      | (Loss_burst _ | Partition _), _ -> ())
    (edges t)

let hosts_to_string hosts = String.concat "+" (List.map string_of_int hosts)

let timeline t ~failovers ~until =
  let failovers = ref failovers in
  let describe = function
    | Start { event = Switch_failover; _ } -> (
      match !failovers with
      | [] -> "failover"
      | (_, lost) :: rest ->
        failovers := rest;
        Printf.sprintf "failover (%d queued lost)" lost)
    | Start { event = Crash { node; down_for }; _ } ->
      Printf.sprintf "crash node %d%s" node
        (match down_for with
        | None -> " (permanent)"
        | Some d -> Printf.sprintf " (down %.0f us)" (Time.to_us d))
    | End { event = Crash { node; _ }; _ } -> Printf.sprintf "restart node %d" node
    | Start { event = Loss_burst { loss; _ }; _ } ->
      Printf.sprintf "loss burst start (p=%.3f)" loss
    | End { event = Loss_burst { loss; _ }; _ } ->
      Printf.sprintf "loss burst end (p=%.3f)" loss
    | Start { event = Partition { hosts; _ }; _ } ->
      "partition hosts " ^ hosts_to_string hosts
    | End { event = Partition { hosts; _ }; _ } -> "heal hosts " ^ hosts_to_string hosts
    | Start { event = Straggler { node; factor; _ }; _ } ->
      Printf.sprintf "straggler node %d (x%.1f)" node factor
    | End { event = Straggler { node; _ }; _ } ->
      Printf.sprintf "straggler node %d recovered" node
    | End { event = Switch_failover; _ } -> assert false (* no end edge *)
  in
  List.stable_sort (fun (a, _) (b, _) -> compare a b) (edges t)
  |> List.filter (fun (time, _) -> time <= until)
  |> List.map (fun (time, edge) -> (time, describe edge))
(* ------------------------------------------------------------------ *)
(* String syntax: `kind@time[:key=value,...]`, events `;`-separated.  *)

let time_to_string (t : Time.t) =
  if t = 0 then "0ns"
  else if t mod 1_000_000_000 = 0 then Printf.sprintf "%ds" (t / 1_000_000_000)
  else if t mod 1_000_000 = 0 then Printf.sprintf "%dms" (t / 1_000_000)
  else if t mod 1_000 = 0 then Printf.sprintf "%dus" (t / 1_000)
  else Printf.sprintf "%dns" t

let time_of_string s =
  let s = String.trim s in
  let n = String.length s in
  let digits =
    let rec go i =
      if i < n && (match s.[i] with '0' .. '9' | '.' -> true | _ -> false) then
        go (i + 1)
      else i
    in
    go 0
  in
  if digits = 0 then invalid_arg (Printf.sprintf "Plan.of_string: bad time %S" s);
  let value =
    match float_of_string_opt (String.sub s 0 digits) with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Plan.of_string: bad time %S" s)
  in
  match String.sub s digits (n - digits) with
  | "ns" -> int_of_float (Float.round value)
  | "us" -> Time.us_f value
  | "ms" -> Time.ms_f value
  | "s" -> Time.s_f value
  | unit_ ->
    invalid_arg
      (Printf.sprintf "Plan.of_string: unknown time unit %S (want ns/us/ms/s)" unit_)

let float_to_string f =
  (* %g keeps `0.8` as "0.8" and `4.` as "4", both re-parseable. *)
  Printf.sprintf "%g" f

let event_to_string = function
  | Switch_failover -> "failover"
  | Crash { node; down_for } ->
    let down =
      match down_for with
      | None -> ""
      | Some d -> Printf.sprintf ",down=%s" (time_to_string d)
    in
    Printf.sprintf "crash:node=%d%s" node down
  | Loss_burst { duration; loss } ->
    Printf.sprintf "burst:dur=%s,loss=%s" (time_to_string duration)
      (float_to_string loss)
  | Partition { hosts; duration } ->
    Printf.sprintf "partition:hosts=%s,dur=%s" (hosts_to_string hosts)
      (time_to_string duration)
  | Straggler { node; factor; duration } ->
    Printf.sprintf "straggler:node=%d,factor=%s,dur=%s" node
      (float_to_string factor) (time_to_string duration)

let timed_to_string { at; event } =
  (* Splice the `@time` between the kind and its parameters. *)
  match String.index_opt (event_to_string event) ':' with
  | None -> Printf.sprintf "%s@%s" (event_to_string event) (time_to_string at)
  | Some i ->
    let s = event_to_string event in
    Printf.sprintf "%s@%s%s" (String.sub s 0 i) (time_to_string at)
      (String.sub s i (String.length s - i))

let to_string t = String.concat ";" (List.map timed_to_string t.events)

let pp fmt t = Format.pp_print_string fmt (to_string t)

let split_on sep s = String.split_on_char sep s |> List.map String.trim

let parse_params spec s =
  List.filter_map
    (fun kv ->
      if kv = "" then None
      else
        match String.index_opt kv '=' with
        | None ->
          invalid_arg
            (Printf.sprintf "Plan.of_string: %S: bad parameter %S (want key=value)"
               spec kv)
        | Some i ->
          Some
            ( String.sub kv 0 i,
              String.sub kv (i + 1) (String.length kv - i - 1) ))
    (split_on ',' s)

let take_param spec params key =
  match List.assoc_opt key !params with
  | None ->
    invalid_arg (Printf.sprintf "Plan.of_string: %S: missing parameter %S" spec key)
  | Some v ->
    params := List.remove_assoc key !params;
    v

let take_param_opt params key =
  match List.assoc_opt key !params with
  | None -> None
  | Some v ->
    params := List.remove_assoc key !params;
    Some v

let parse_int spec s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Plan.of_string: %S: bad integer %S" spec s)

let parse_float spec s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Plan.of_string: %S: bad number %S" spec s)

let event_of_spec spec =
  let head, params_str =
    match String.index_opt spec ':' with
    | None -> (spec, "")
    | Some i -> (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  in
  let kind, at =
    match String.index_opt head '@' with
    | None ->
      invalid_arg
        (Printf.sprintf "Plan.of_string: %S: missing @time (e.g. failover@5ms)" spec)
    | Some i ->
      ( String.trim (String.sub head 0 i),
        time_of_string (String.sub head (i + 1) (String.length head - i - 1)) )
  in
  let params = ref (parse_params spec params_str) in
  let event =
    match kind with
    | "failover" -> Switch_failover
    | "crash" ->
      let node = parse_int spec (take_param spec params "node") in
      let down_for = Option.map time_of_string (take_param_opt params "down") in
      Crash { node; down_for }
    | "burst" ->
      let duration = time_of_string (take_param spec params "dur") in
      let loss = parse_float spec (take_param spec params "loss") in
      Loss_burst { duration; loss }
    | "partition" ->
      let hosts =
        List.map (parse_int spec)
          (String.split_on_char '+' (take_param spec params "hosts"))
      in
      let duration = time_of_string (take_param spec params "dur") in
      Partition { hosts; duration }
    | "straggler" ->
      let node = parse_int spec (take_param spec params "node") in
      let factor = parse_float spec (take_param spec params "factor") in
      let duration = time_of_string (take_param spec params "dur") in
      Straggler { node; factor; duration }
    | _ ->
      invalid_arg
        (Printf.sprintf
           "Plan.of_string: unknown fault kind %S (want \
            failover/crash/burst/partition/straggler)"
           kind)
  in
  (match !params with
  | [] -> ()
  | (key, _) :: _ ->
    invalid_arg (Printf.sprintf "Plan.of_string: %S: unknown parameter %S" spec key));
  { at; event }

let of_string s =
  create (List.filter_map
            (fun spec -> if spec = "" then None else Some (event_of_spec spec))
            (split_on ';' s))
