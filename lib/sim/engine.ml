(* Event keys are packed into a single immediate int,
   [at lsl seq_bits lor seq], so the queue never allocates per event and
   orders by (time, scheduling order) with one machine comparison.  The
   sequence field must stay below [seq_limit] for the packing to sort
   correctly; since the counter is monotone across the whole run, the
   queue is renumbered (ties keep their order, pending count is tiny
   compared to the counter) whenever the counter would overflow.

   Handles are packed ints too: a slot index into a pooled slab of
   per-event state (closure, flag byte, generation) plus a generation
   snapshot.  Slots recycle through a freelist when their queue entry is
   consumed, so steady-state schedule/cancel/step allocate nothing; the
   generation in the token guards a caller cancelling a handle whose
   slot has since been handed to a newer event.

   Reservations are keys taken now and scheduled (or not) later.  They
   sit in a FIFO ring of keys, in reservation order, which is key order
   because reservations must not go back in time.  [passed] is the key
   position the engine has moved past: the last popped key, or the end
   of a finished [run ~until].  A ring key at or below it is due and is
   dropped lazily; until then it counts for [earliest] and is remapped
   by [renumber], exactly like the no-op event it stands for. *)

type calendar = Heap | Wheel

let calendar_name = function Heap -> "heap" | Wheel -> "wheel"

let seq_bits = 21
let seq_limit = 1 lsl seq_bits
let max_at = max_int asr seq_bits

(* Handle tokens: [gen lsl idx_bits lor idx]. *)
let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = max_int lsr idx_bits

type handle = int

let flag_pending = '\001'
let flag_fired = '\002'
let flag_cancelled = '\003'

type queue = Q_heap of int Int_heap.t | Q_wheel of Wheel.t

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable executed : int;
  queue : queue;
  (* handle slab: parallel arrays indexed by slot *)
  mutable fns : (unit -> unit) array;
  mutable gens : int array;
  mutable flags : Bytes.t;
  mutable free : int array;  (* stack of recycled slot indices *)
  mutable free_top : int;
  mutable slab_used : int;  (* slots ever handed out *)
  mutable passed : int;  (* every key <= [passed] is behind the engine *)
  (* reservation ring: keys in key order, [res_base] the ticket of the
     key at [res_head] *)
  mutable res : int array;
  mutable res_head : int;
  mutable res_len : int;
  mutable res_base : int;
}

let pack ~at ~seq = (at lsl seq_bits) lor seq
let key_at key = key asr seq_bits

let calendar_of_env () =
  match Sys.getenv_opt "DRACONIS_CALENDAR" with
  | None | Some "" -> Wheel
  | Some v -> (
    match String.lowercase_ascii v with
    | "wheel" -> Wheel
    | "heap" -> Heap
    | other ->
      invalid_arg
        (Printf.sprintf
           "Engine.create: DRACONIS_CALENDAR must be \"heap\" or \"wheel\", got %S"
           other))

let noop () = ()

let create ?calendar () =
  let kind = match calendar with Some c -> c | None -> calendar_of_env () in
  let queue =
    match kind with
    | Heap -> Q_heap (Int_heap.create ())
    | Wheel -> Q_wheel (Wheel.create ~shift:seq_bits ())
  in
  let cap = 256 in
  {
    clock = 0;
    seq = 0;
    executed = 0;
    queue;
    fns = Array.make cap noop;
    gens = Array.make cap 0;
    flags = Bytes.make cap flag_fired;
    free = Array.make cap 0;
    free_top = 0;
    slab_used = 0;
    passed = -1;
    res = Array.make 16 0;
    res_head = 0;
    res_len = 0;
    res_base = 0;
  }

let calendar t = match t.queue with Q_heap _ -> Heap | Q_wheel _ -> Wheel
let now t = t.clock
let executed t = t.executed

let pending t =
  match t.queue with Q_heap h -> Int_heap.length h | Q_wheel w -> Wheel.length w

let q_push t key tok =
  match t.queue with
  | Q_heap h -> Int_heap.push h key tok
  | Q_wheel w -> Wheel.push w key tok

(* A reserved key goes in behind keys with larger seqs that were pushed
   before it, so the wheel places it by key, not at its bucket's tail. *)
let q_insert t key tok =
  match t.queue with
  | Q_heap h -> Int_heap.push h key tok
  | Q_wheel w -> Wheel.insert w key tok

let q_peek_key t =
  match t.queue with Q_heap h -> Int_heap.peek_key h | Q_wheel w -> Wheel.peek_key w

(* -- reservations ---------------------------------------------------------- *)

let res_key t i =
  let j = t.res_head + i in
  let cap = Array.length t.res in
  t.res.(if j >= cap then j - cap else j)

let res_set t i key =
  let j = t.res_head + i in
  let cap = Array.length t.res in
  t.res.(if j >= cap then j - cap else j) <- key

(* Drop the reservations the engine has moved past. *)
let trim t =
  while t.res_len > 0 && t.res.(t.res_head) <= t.passed do
    t.res_head <- (if t.res_head + 1 = Array.length t.res then 0 else t.res_head + 1);
    t.res_len <- t.res_len - 1;
    t.res_base <- t.res_base + 1
  done

let res_push t key =
  let cap = Array.length t.res in
  if t.res_len = cap then begin
    let res = Array.make (2 * cap) 0 in
    for i = 0 to t.res_len - 1 do
      res.(i) <- res_key t i
    done;
    t.res <- res;
    t.res_head <- 0
  end;
  res_set t t.res_len key;
  t.res_len <- t.res_len + 1

let earliest t =
  trim t;
  let q = if pending t = 0 then max_int else key_at (q_peek_key t) in
  if t.res_len = 0 then q else Int.min q (key_at t.res.(t.res_head))

(* -- handle slab ----------------------------------------------------------- *)

let slab_grow t =
  let cap = Array.length t.gens in
  if 2 * cap > idx_mask + 1 then
    invalid_arg "Engine: more than 2^24 events pending";
  let fns = Array.make (2 * cap) noop in
  let gens = Array.make (2 * cap) 0 in
  let flags = Bytes.make (2 * cap) flag_fired in
  let free = Array.make (2 * cap) 0 in
  Array.blit t.fns 0 fns 0 cap;
  Array.blit t.gens 0 gens 0 cap;
  Bytes.blit t.flags 0 flags 0 cap;
  Array.blit t.free 0 free 0 cap;
  t.fns <- fns;
  t.gens <- gens;
  t.flags <- flags;
  t.free <- free

let slab_alloc t fn =
  let idx =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      if t.slab_used >= Array.length t.gens then slab_grow t;
      let i = t.slab_used in
      t.slab_used <- i + 1;
      i
    end
  in
  t.fns.(idx) <- fn;
  Bytes.unsafe_set t.flags idx flag_pending;
  let g = (t.gens.(idx) + 1) land gen_mask in
  t.gens.(idx) <- g;
  (g lsl idx_bits) lor idx

(* Called exactly once per slot, when its queue entry is consumed. *)
let slab_release t idx ~flag =
  Bytes.unsafe_set t.flags idx flag;
  t.fns.(idx) <- noop;
  t.free.(t.free_top) <- idx;
  t.free_top <- t.free_top + 1

(* -- scheduling ------------------------------------------------------------ *)

(* Queued events and outstanding reservations are renumbered together,
   in one merged key order; a scheduled reservation is in both and keeps
   one seq. *)
let renumber t =
  trim t;
  let count = pending t in
  let keys = Array.make (max 1 count) 0 in
  let toks = Array.make (max 1 count) 0 in
  let live = ref 0 in
  let drain f =
    match t.queue with Q_heap h -> Int_heap.drain h f | Q_wheel w -> Wheel.drain w f
  in
  (* Drop cancelled entries while renumbering: their slots recycle now
     instead of at their (never-observable) pop. *)
  drain (fun key tok ->
      let idx = tok land idx_mask in
      if Bytes.get t.flags idx = flag_pending then begin
        keys.(!live) <- key;
        toks.(!live) <- tok;
        incr live
      end
      else slab_release t idx ~flag:flag_cancelled);
  let seq = ref 0 and i = ref 0 and j = ref 0 in
  while !i < !live || !j < t.res_len do
    let qk = if !i < !live then keys.(!i) else max_int in
    let rk = if !j < t.res_len then res_key t !j else max_int in
    if qk <= rk then begin
      q_push t (pack ~at:(key_at qk) ~seq:!seq) toks.(!i);
      incr i
    end;
    if rk <= qk then begin
      res_set t !j (pack ~at:(key_at rk) ~seq:!seq);
      incr j
    end;
    incr seq
  done;
  t.seq <- !seq;
  (* Every renumbered key is past [passed] and now has a seq >= 0. *)
  t.passed <- (pack ~at:(key_at t.passed) ~seq:0) - 1

let check_at t ~what at =
  if at < t.clock then
    invalid_arg (Printf.sprintf "Engine.%s: at=%d is before now=%d" what at t.clock);
  if at > max_at then
    invalid_arg
      (Printf.sprintf "Engine.%s: at=%d exceeds the representable horizon %d" what at
         max_at)

(* The next key at [at], renumbering first if the seq field is full. *)
let next_key t ~at =
  if t.seq >= seq_limit then renumber t;
  let key = pack ~at ~seq:t.seq in
  t.seq <- t.seq + 1;
  key

let schedule_at t ~at f =
  check_at t ~what:"schedule_at" at;
  let key = next_key t ~at in
  let tok = slab_alloc t f in
  q_push t key tok;
  tok

type reservation = int

let reserve t ~at =
  check_at t ~what:"reserve" at;
  trim t;
  if t.res_len > 0 && at < key_at (res_key t (t.res_len - 1)) then
    invalid_arg
      (Printf.sprintf
         "Engine.reserve: at=%d is before %d, the last outstanding reservation \
          (reservations are taken in time order)"
         at
         (key_at (res_key t (t.res_len - 1))));
  res_push t (next_key t ~at);
  t.res_base + t.res_len - 1

let schedule_reserved t r f =
  trim t;
  let i = r - t.res_base in
  if i < 0 || i >= t.res_len then
    invalid_arg "Engine.schedule_reserved: the reservation's key is already behind the engine";
  let tok = slab_alloc t f in
  q_insert t (res_key t i) tok;
  tok

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock + after) f

let cancel t h =
  let idx = h land idx_mask in
  if t.gens.(idx) = h lsr idx_bits && Bytes.get t.flags idx = flag_pending then
    Bytes.set t.flags idx flag_cancelled

let cancelled t h =
  let idx = h land idx_mask in
  t.gens.(idx) = h lsr idx_bits && Bytes.get t.flags idx = flag_cancelled

let exec t key tok =
  t.clock <- key_at key;
  t.passed <- key;
  let idx = tok land idx_mask in
  if Bytes.unsafe_get t.flags idx = flag_pending then begin
    let fn = t.fns.(idx) in
    slab_release t idx ~flag:flag_fired;
    t.executed <- t.executed + 1;
    fn ()
  end
  else slab_release t idx ~flag:flag_cancelled

let step t =
  match t.queue with
  | Q_heap h -> (
    match Int_heap.pop h with
    | exception Not_found -> false
    | key, tok ->
      exec t key tok;
      true)
  | Q_wheel w -> (
    (* [pop_min] parks the binding in scratch fields: the drain loop
       allocates nothing per event. *)
    match Wheel.pop_min w with
    | exception Not_found -> false
    | () ->
      exec t (Wheel.popped_key w) (Wheel.popped_value w);
      true)

(* A drained queue leaves only unscheduled reservations: the clock
   moves through them as through the no-op events they stand for. *)
let pass_reservations t =
  trim t;
  if t.res_len > 0 then begin
    let last = res_key t (t.res_len - 1) in
    t.clock <- Int.max t.clock (key_at last);
    t.passed <- last;
    trim t
  end

let run ?until ?max_events t =
  match until with
  | None -> (
    (* No horizon: drain without peeking, so each event costs a single
       queue operation. *)
    match max_events with
    | None ->
      while step t do () done;
      pass_reservations t
    | Some n ->
      let budget = ref n in
      while !budget > 0 && step t do
        decr budget
      done;
      if pending t = 0 then pass_reservations t)
  | Some limit ->
    let budget = ref (match max_events with None -> max_int | Some n -> n) in
    let continue = ref true in
    while !continue && !budget > 0 do
      match q_peek_key t with
      | exception Not_found -> continue := false
      | key ->
        if key_at key > limit then continue := false
        else begin
          ignore (step t);
          decr budget
        end
    done;
    (* The clock reaches the horizon whenever every event at or before
       it has run — including when the queue is merely empty up to
       [limit], or when the budget expired with only beyond-horizon
       events left.  Only an exhausted budget with work still due before
       [limit] leaves the clock at the last executed event.  Reaching the
       horizon also passes every key taken so far at or before it. *)
    let reached =
      match q_peek_key t with
      | exception Not_found -> true
      | key -> key_at key > limit
    in
    if reached then begin
      if t.clock < limit then t.clock <- limit;
      t.passed <- Int.max t.passed ((limit lsl seq_bits) + t.seq - 1)
    end

let every t ~interval ~until f =
  if interval <= 0 then invalid_arg "Engine.every: interval must be positive";
  let rec tick () =
    if t.clock <= until then begin
      f ();
      let next = t.clock + interval in
      if next <= until then ignore (schedule_at t ~at:next tick)
    end
  in
  ignore (schedule t ~after:interval tick)
