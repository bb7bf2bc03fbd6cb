type t = {
  lps : Lp.t array;
  lookahead : Time.t;
  mutable windows : int;
}

type executor = (unit -> unit) array -> unit

let sequential thunks = Array.iter (fun f -> f ()) thunks

let create ~lookahead lps =
  if lookahead <= 0 then invalid_arg "Sync.create: lookahead must be positive";
  if Array.length lps = 0 then invalid_arg "Sync.create: no logical processes";
  let seen = Hashtbl.create (Array.length lps) in
  Array.iter
    (fun lp ->
      let id = Lp.id lp in
      if Hashtbl.mem seen id then
        invalid_arg (Printf.sprintf "Sync.create: duplicate LP id %d" id);
      Hashtbl.add seen id ())
    lps;
  { lps = Array.copy lps; lookahead; windows = 0 }

let lookahead t = t.lookahead
let lps t = Array.copy t.lps
let windows t = t.windows

let executed t =
  Array.fold_left (fun acc lp -> acc + Engine.executed (Lp.engine lp)) 0 t.lps

let drained t =
  Array.for_all
    (fun lp -> Engine.pending (Lp.engine lp) = 0 && Lp.inbox_length lp = 0)
    t.lps

(* Global floor: the earliest instant any LP still owes work at, or
   [max_int] when every LP is drained. *)
let floor t =
  let f = ref max_int in
  for i = 0 to Array.length t.lps - 1 do
    f := Int.min !f (Lp.earliest t.lps.(i))
  done;
  !f

(* The coordinator allocates nothing per window: the per-LP thunks are
   built once per [run] and read the window's horizon from one cell
   written before the executor is called. *)
let run ?until ?(executor = sequential) t =
  let horizon = ref 0 in
  let thunks =
    Array.map (fun lp () -> Engine.run ~until:!horizon (Lp.engine lp)) t.lps
  in
  (* Everything at or before [u] has run; park every clock at [u],
     matching Engine.run's horizon semantics. *)
  let finish_at u =
    Array.iter (fun lp -> Engine.run ~until:u (Lp.engine lp)) t.lps
  in
  let rec loop () =
    let f = floor t in
    match until with
    | Some u when f = max_int || f > u -> finish_at u
    | None when f = max_int -> ()
    | _ ->
      (* Events strictly below [f + lookahead] are safe: any message
         produced inside this window is stamped at least [lookahead]
         past its send time, hence at or beyond the horizon. *)
      let h = f + t.lookahead - 1 in
      let h = match until with Some u -> Int.min h u | None -> h in
      for i = 0 to Array.length t.lps - 1 do
        Lp.inject t.lps.(i) ~upto:h
      done;
      for i = 0 to Array.length t.lps - 1 do
        Lp.set_floor t.lps.(i) h
      done;
      horizon := h;
      executor thunks;
      t.windows <- t.windows + 1;
      loop ()
  in
  loop ()
