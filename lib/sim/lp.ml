(* A logical process is an engine plus a stamped inbox.  The inbox is
   the only mutable state ever touched from another domain, so a plain
   mutex suffices: posts are rare relative to engine events (one per
   cross-LP message), and injection happens only at barriers, when no
   window is running.

   The inbox is four growable parallel arrays, one slot per message in
   post order, plus the earliest stamp held: a barrier reads that
   minimum in O(1), and neither a post nor an injection allocates once
   the arrays have grown to the LP's peak backlog. *)

let no_fn () = ()

type t = {
  lp_id : int;
  engine : Engine.t;
  rng : Rng.t;
  mutex : Mutex.t;
  mutable at : Time.t array;
  mutable src : int array;
  mutable seq : int array;
  mutable fn : (unit -> unit) array;
  mutable length : int;
  mutable min_at : Time.t;  (* earliest [at] held; [max_int] when empty *)
  mutable due : int array;  (* [inject]'s scratch: indices of due slots *)
  mutable floor : Time.t;
  mutable posted : int;
  mutable injected : int;
}

let initial_capacity = 16

(* splitmix64-style finalizer over (seed, id): distinct LPs get
   decorrelated streams even for adjacent seeds. *)
let derive_seed seed id =
  let z = seed + ((id + 1) * 0x9E3779B97F4A7C1) in
  let z = (z lxor (z lsr 30)) * 0xBF58476D1CE4E5B in
  z lxor (z lsr 27)

let create ?calendar ~id ~seed () =
  if id < 0 then invalid_arg "Lp.create: negative id";
  {
    lp_id = id;
    engine = Engine.create ?calendar ();
    rng = Rng.create ~seed:(derive_seed seed id);
    mutex = Mutex.create ();
    at = Array.make initial_capacity 0;
    src = Array.make initial_capacity 0;
    seq = Array.make initial_capacity 0;
    fn = Array.make initial_capacity no_fn;
    length = 0;
    min_at = max_int;
    due = Array.make initial_capacity 0;
    floor = -1;
    posted = 0;
    injected = 0;
  }

let id t = t.lp_id
let engine t = t.engine
let rng t = t.rng

let grow t =
  let cap = 2 * Array.length t.at in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.length;
    b
  in
  t.at <- extend t.at 0;
  t.src <- extend t.src 0;
  t.seq <- extend t.seq 0;
  t.fn <- extend t.fn no_fn;
  t.due <- Array.make cap 0

let post t ~at ~src ~seq fn =
  Mutex.lock t.mutex;
  if at <= t.floor then begin
    let floor = t.floor in
    Mutex.unlock t.mutex;
    invalid_arg
      (Printf.sprintf
         "Lp.post: stamp at=%d does not clear the safe horizon %d of LP %d (lookahead \
          violation)"
         at floor t.lp_id)
  end;
  if t.length = Array.length t.at then grow t;
  let i = t.length in
  t.at.(i) <- at;
  t.src.(i) <- src;
  t.seq.(i) <- seq;
  t.fn.(i) <- fn;
  t.length <- i + 1;
  if at < t.min_at then t.min_at <- at;
  t.posted <- t.posted + 1;
  Mutex.unlock t.mutex

let earliest t =
  Mutex.lock t.mutex;
  let m = t.min_at in
  Mutex.unlock t.mutex;
  Int.min m (Engine.earliest t.engine)

let next_at t =
  let m = earliest t in
  if m = max_int then None else Some m

(* Strict (at, src, seq) order on inbox slots [i] and [j]. *)
let before t i j =
  let a = t.at.(i) and b = t.at.(j) in
  a < b
  || a = b
     && (t.src.(i) < t.src.(j) || (t.src.(i) = t.src.(j) && t.seq.(i) < t.seq.(j)))

(* In-place heapsort of [t.due.(0 .. n-1)] by stamp: O(n log n) and no
   allocation.  It is not stable, which is fine: stamps are unique. *)
let sort_due t n =
  let d = t.due in
  let rec sift root len =
    let child = (2 * root) + 1 in
    if child < len then begin
      let child =
        if child + 1 < len && before t d.(child) d.(child + 1) then child + 1 else child
      in
      if before t d.(root) d.(child) then begin
        let x = d.(root) in
        d.(root) <- d.(child);
        d.(child) <- x;
        sift child len
      end
    end
  in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    let x = d.(0) in
    d.(0) <- d.(last);
    d.(last) <- x;
    sift 0 last
  done

let inject_locked t ~upto =
  let n = ref 0 in
  for i = 0 to t.length - 1 do
    if t.at.(i) <= upto then begin
      t.due.(!n) <- i;
      incr n
    end
  done;
  sort_due t !n;
  for k = 0 to !n - 1 do
    let i = t.due.(k) in
    ignore (Engine.schedule_at t.engine ~at:t.at.(i) t.fn.(i));
    t.injected <- t.injected + 1
  done;
  (* Compact the later messages to the front, in post order, and drop
     the vacated closures so the inbox retains none it has handed on. *)
  let kept = ref 0 in
  let min_at = ref max_int in
  for i = 0 to t.length - 1 do
    let at = t.at.(i) in
    if at > upto then begin
      let j = !kept in
      t.at.(j) <- at;
      t.src.(j) <- t.src.(i);
      t.seq.(j) <- t.seq.(i);
      t.fn.(j) <- t.fn.(i);
      if at < !min_at then min_at := at;
      kept := j + 1
    end
  done;
  Array.fill t.fn !kept (t.length - !kept) no_fn;
  t.length <- !kept;
  t.min_at <- !min_at

let inject t ~upto =
  (* Barrier phase: no concurrent posts, but take the lock anyway so the
     invariant does not depend on the caller's discipline. *)
  Mutex.lock t.mutex;
  match if t.min_at <= upto then inject_locked t ~upto with
  | () -> Mutex.unlock t.mutex
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.unlock t.mutex;
    Printexc.raise_with_backtrace exn bt

let set_floor t at =
  Mutex.lock t.mutex;
  t.floor <- at;
  Mutex.unlock t.mutex

let posted t =
  Mutex.lock t.mutex;
  let n = t.posted in
  Mutex.unlock t.mutex;
  n

let injected t = t.injected

let inbox_length t =
  Mutex.lock t.mutex;
  let n = t.length in
  Mutex.unlock t.mutex;
  n
