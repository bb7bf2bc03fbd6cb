(* The ring holds [(owner id, generation, reservation)] triples, all
   ints: a push stores no pointer into the long-lived ring, which on
   OCaml 5 would cost a write barrier per send.  Owners are registered
   once in [owners].  When the line is armed, its head is the armed
   entry; when it is not armed, it is empty. *)
type 'a t = {
  engine : Engine.t;
  live : 'a -> int -> bool;
  handler : 'a -> int -> unit;
  mutable owners : 'a array;
  mutable n_owners : int;
  mutable ids : int array;
  mutable gens : int array;
  mutable keys : Engine.reservation array;
  mutable head : int;
  mutable length : int;
  mutable fire : unit -> unit;
}

let initial_capacity = 16

let length t = t.length

let pop t =
  t.head <- (if t.head + 1 = Array.length t.ids then 0 else t.head + 1);
  t.length <- t.length - 1

(* Drop dead entries from the head and schedule the first live one. *)
let rec arm t =
  if t.length > 0 then begin
    let i = t.head in
    if t.live t.owners.(t.ids.(i)) t.gens.(i) then
      ignore (Engine.schedule_reserved t.engine t.keys.(i) t.fire)
    else begin
      pop t;
      arm t
    end
  end

let create engine ~live handler =
  let t =
    { engine; live; handler; owners = [||]; n_owners = 0; ids = [||]; gens = [||];
      keys = [||]; head = 0; length = 0; fire = ignore }
  in
  (* The one closure the line ever schedules: it fires the head. *)
  t.fire <-
    (fun () ->
      let i = t.head in
      let owner = t.owners.(t.ids.(i)) and gen = t.gens.(i) in
      pop t;
      arm t;
      if t.live owner gen then t.handler owner gen);
  t

let add t owner =
  let n = t.n_owners in
  if n = Array.length t.owners then begin
    let owners = Array.make (max 16 (2 * n)) owner in
    Array.blit t.owners 0 owners 0 n;
    t.owners <- owners
  end;
  t.owners.(n) <- owner;
  t.n_owners <- n + 1;
  n

(* Unroll the ring into arrays of twice the size, head first. *)
let grow t key =
  let cap = Array.length t.ids in
  if cap = 0 then begin
    t.ids <- Array.make initial_capacity 0;
    t.gens <- Array.make initial_capacity 0;
    t.keys <- Array.make initial_capacity key
  end
  else begin
    let unroll a fill =
      let b = Array.make (2 * cap) fill in
      let wrapped = cap - t.head in
      Array.blit a t.head b 0 wrapped;
      Array.blit a 0 b wrapped t.head;
      b
    in
    t.ids <- unroll t.ids 0;
    t.gens <- unroll t.gens 0;
    t.keys <- unroll t.keys key;
    t.head <- 0
  end

let push t ~at id gen =
  if id < 0 || id >= t.n_owners then invalid_arg "Watchdog.push: unknown owner id";
  let key = Engine.reserve t.engine ~at in
  if t.length = Array.length t.ids then grow t key;
  let cap = Array.length t.ids in
  let i = t.head + t.length in
  let i = if i >= cap then i - cap else i in
  t.ids.(i) <- id;
  t.gens.(i) <- gen;
  t.keys.(i) <- key;
  t.length <- t.length + 1;
  if t.length = 1 then arm t
