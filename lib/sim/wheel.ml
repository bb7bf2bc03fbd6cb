(* Hierarchical timing wheel over packed integer keys.

   Geometry: [levels] wheels of [slots] buckets each; level [l] buckets
   are [slots^l] ticks wide, so the wheel proper spans [slots^levels]
   ticks ([span_bits] bits) ahead of the cursor.  A key's tick is its
   upper bits ([key asr shift]); the low [shift] bits (the engine's
   sequence number) ride along untouched and only matter for FIFO order
   inside a bucket, which push order already provides.

   Placement is by window, not by delta: an event goes to the smallest
   level whose current window (the aligned [slots^(l+1)]-tick range the
   cursor is in) contains its tick.  This keeps every tick mapped to
   exactly one bucket at any moment, so all pushes for one tick land in
   the same FIFO list and cascades (which move whole lists in order)
   preserve the global (tick, push-order) execution order exactly —
   bit-for-bit the order a min-heap on the packed keys produces.

   Two Int_heap side tiers make the structure total:
   - [overflow]: keys beyond the current top-level window (far-future
     timers).  They are never migrated; the heap is simply a peer
     priority structure consulted on pop/peek, so correctness never
     depends on window arithmetic for distant times.
   - [overdue]: keys behind the cursor.  The cursor only advances to
     the next scheduled tick, so this is empty in steady state; it
     absorbs the pattern where a caller stops a run mid-horizon and
     then schedules before the previously peeked event.

   Buckets are intrusive FIFO lists over a pooled node slab (parallel
   int arrays, freelist threaded through [nnext]), and each level keeps
   a one-word occupancy bitmap, so steady-state push/pop touch no GC'd
   memory at all and empty buckets cost one masked bit-scan. *)

let slot_bits = 5
let slots = 1 lsl slot_bits
let slot_mask = slots - 1
let levels = 5
let span_bits = slot_bits * levels

type t = {
  shift : int;
  (* node slab: key, value, next link; freelist threaded through nnext *)
  mutable nkey : int array;
  mutable nval : int array;
  mutable nnext : int array;
  mutable free : int;
  (* bucket FIFO lists, flat-indexed [level * slots + slot] *)
  head : int array;
  tail : int array;
  bits : int array;  (* per-level occupancy bitmap, one word each *)
  mutable cur : int;  (* cursor tick: no wheel-resident key is below it *)
  mutable count : int;  (* nodes resident in the wheel levels *)
  overdue : int Int_heap.t;
  overflow : int Int_heap.t;
  (* Cached global minimum (filled by [locate], invalidated by any
     mutation) and the last-popped binding.  Scratch fields instead of
     returned tuples keep peek/pop allocation-free, and let a peek
     immediately followed by a pop reuse one cursor scan. *)
  mutable msrc : int;  (* 0 empty, 1 wheel, 2 overdue, 3 overflow *)
  mutable mnode : int;
  mutable mkey : int;
  mutable mvalid : bool;
  mutable pkey : int;
  mutable pval : int;
}

let create ?(shift = 0) ?(capacity = 256) () =
  if shift < 0 || shift >= Sys.int_size - span_bits then
    invalid_arg "Wheel.create: shift out of range";
  let cap = max 1 capacity in
  {
    shift;
    nkey = Array.make cap 0;
    nval = Array.make cap 0;
    nnext = Array.init cap (fun i -> if i + 1 < cap then i + 1 else -1);
    free = 0;
    head = Array.make (levels * slots) (-1);
    tail = Array.make (levels * slots) (-1);
    bits = Array.make levels 0;
    cur = 0;
    count = 0;
    overdue = Int_heap.create ~capacity:16 ();
    overflow = Int_heap.create ~capacity:16 ();
    msrc = 0;
    mnode = -1;
    mkey = 0;
    mvalid = false;
    pkey = 0;
    pval = 0;
  }

let length t = t.count + Int_heap.length t.overdue + Int_heap.length t.overflow
let is_empty t = length t = 0
let overdue_length t = Int_heap.length t.overdue
let overflow_length t = Int_heap.length t.overflow

let grow t =
  let cap = Array.length t.nkey in
  let cap' = 2 * cap in
  let nkey = Array.make cap' 0 and nval = Array.make cap' 0 in
  let nnext = Array.init cap' (fun i -> if i + 1 < cap' then i + 1 else -1) in
  Array.blit t.nkey 0 nkey 0 cap;
  Array.blit t.nval 0 nval 0 cap;
  Array.blit t.nnext 0 nnext 0 cap;
  t.nkey <- nkey;
  t.nval <- nval;
  t.nnext <- nnext;
  t.free <- cap

(* Trailing-zero count via de Bruijn multiplication; bitmaps only ever
   use the low [slots] bits, so 32-bit arithmetic suffices. *)
let ctz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
     21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz x = ctz_table.((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* Smallest level whose current window contains [tick]; the xor with the
   cursor bounds how high the differing bit is. *)
let level_of t tick =
  let d = tick lxor t.cur in
  if d < slots then 0
  else if d < 1 lsl (2 * slot_bits) then 1
  else if d < 1 lsl (3 * slot_bits) then 2
  else if d < 1 lsl (4 * slot_bits) then 3
  else 4

(* Append node [n] to its bucket, preserving FIFO order.  Does not touch
   [count]: cascades relink nodes that are already counted. *)
let link t ~level ~tick n =
  let slot = (tick lsr (level * slot_bits)) land slot_mask in
  let i = (level lsl slot_bits) lor slot in
  (if t.tail.(i) < 0 then begin
     t.head.(i) <- n;
     t.bits.(level) <- t.bits.(level) lor (1 lsl slot)
   end
   else t.nnext.(t.tail.(i)) <- n);
  t.tail.(i) <- n;
  t.nnext.(n) <- -1

(* Insert node [n] into its bucket in front of the first node of the
   same tick with a larger key, so that tick's nodes stay in key order
   (cascades then keep that order).  Same bucket as [link]. *)
let link_sorted t ~level ~tick n =
  let slot = (tick lsr (level * slot_bits)) land slot_mask in
  let i = (level lsl slot_bits) lor slot in
  let key = t.nkey.(n) in
  let rec seek prev cur =
    if cur >= 0 && not (t.nkey.(cur) asr t.shift = tick && t.nkey.(cur) > key) then
      seek cur t.nnext.(cur)
    else begin
      t.nnext.(n) <- cur;
      if prev < 0 then t.head.(i) <- n else t.nnext.(prev) <- n;
      if cur < 0 then t.tail.(i) <- n;
      t.bits.(level) <- t.bits.(level) lor (1 lsl slot)
    end
  in
  seek (-1) t.head.(i)

let place t key v ~sorted =
  let tick = key asr t.shift in
  t.mvalid <- false;
  (* An empty wheel has no resident keys to order against, so the cursor
     is free to jump straight to the new tick. *)
  if t.count = 0 then t.cur <- tick;
  if tick < t.cur then Int_heap.push t.overdue key v
  else if (tick lxor t.cur) asr span_bits <> 0 then Int_heap.push t.overflow key v
  else begin
    if t.free < 0 then grow t;
    let n = t.free in
    t.free <- t.nnext.(n);
    t.nkey.(n) <- key;
    t.nval.(n) <- v;
    let level = level_of t tick in
    if sorted then link_sorted t ~level ~tick n else link t ~level ~tick n;
    t.count <- t.count + 1
  end

let push t key v = place t key v ~sorted:false
let insert t key v = place t key v ~sorted:true

(* Move every node of bucket [(level, slot)] down to its finer-level
   bucket.  Called exactly when the cursor enters the bucket's window,
   so each node's new level is strictly below [level]. *)
let rec relink t n =
  if n >= 0 then begin
    let next = t.nnext.(n) in
    let tick = t.nkey.(n) asr t.shift in
    link t ~level:(level_of t tick) ~tick n;
    relink t next
  end

let cascade t ~level ~slot =
  let i = (level lsl slot_bits) lor slot in
  let n = t.head.(i) in
  t.head.(i) <- -1;
  t.tail.(i) <- -1;
  t.bits.(level) <- t.bits.(level) land lnot (1 lsl slot);
  relink t n

(* Advance the cursor to the next occupied tick and return the head node
   of its level-0 bucket, or [-1] if the wheel proper is empty.  Only
   moves the cursor forward to the minimum resident tick, so pushes at
   or after the engine clock never land behind it. *)
let rec find t =
  if t.count = 0 then -1
  else begin
    let b0 = t.bits.(0) land (-1 lsl (t.cur land slot_mask)) in
    if b0 <> 0 then begin
      let s = ctz b0 in
      t.cur <- t.cur land lnot slot_mask lor s;
      t.head.(s)
    end
    else find_up t 1
  end

and find_up t level =
  if level >= levels then -1
  else begin
    (* The bucket the cursor is inside was drained when its window was
       entered and can never repopulate, so scan strictly beyond it. *)
    let idx = (t.cur lsr (level * slot_bits)) land slot_mask in
    let b = t.bits.(level) land (-1 lsl (idx + 1)) in
    if b <> 0 then begin
      let s = ctz b in
      let low = level * slot_bits in
      t.cur <- t.cur land lnot ((1 lsl (low + slot_bits)) - 1) lor (s lsl low);
      cascade t ~level ~slot:s;
      find t
    end
    else find_up t (level + 1)
  end

(* Refresh the cached global minimum into the scratch fields. *)
let locate t =
  if not t.mvalid then begin
    let n = find t in
    t.mnode <- n;
    if n >= 0 then begin
      t.msrc <- 1;
      t.mkey <- t.nkey.(n)
    end
    else t.msrc <- 0;
    if not (Int_heap.is_empty t.overdue) then begin
      let k = Int_heap.peek_key t.overdue in
      if t.msrc = 0 || k < t.mkey then begin
        t.msrc <- 2;
        t.mkey <- k
      end
    end;
    if not (Int_heap.is_empty t.overflow) then begin
      let k = Int_heap.peek_key t.overflow in
      if t.msrc = 0 || k < t.mkey then begin
        t.msrc <- 3;
        t.mkey <- k
      end
    end;
    t.mvalid <- true
  end

let peek_key t =
  locate t;
  if t.msrc = 0 then raise Not_found;
  t.mkey

let pop_min t =
  locate t;
  match t.msrc with
  | 0 -> raise Not_found
  | 2 ->
    (* Side tiers are rare by design; their tuple is the only allocation
       left on any pop path. *)
    let k, v = Int_heap.pop t.overdue in
    t.pkey <- k;
    t.pval <- v;
    t.mvalid <- false
  | 3 ->
    let k, v = Int_heap.pop t.overflow in
    t.pkey <- k;
    t.pval <- v;
    t.mvalid <- false
  | _ ->
    (* [find] left the cursor on the node's tick, so its level-0 slot is
       the cursor's low bits. *)
    let n = t.mnode in
    let slot = t.cur land slot_mask in
    let next = t.nnext.(n) in
    t.head.(slot) <- next;
    if next < 0 then begin
      t.tail.(slot) <- -1;
      t.bits.(0) <- t.bits.(0) land lnot (1 lsl slot)
    end;
    t.count <- t.count - 1;
    t.pkey <- t.nkey.(n);
    t.pval <- t.nval.(n);
    t.nnext.(n) <- t.free;
    t.free <- n;
    t.mvalid <- false

let popped_key t = t.pkey
let popped_value t = t.pval

let pop t =
  pop_min t;
  (t.pkey, t.pval)

let drain t f =
  while not (is_empty t) do
    let k, v = pop t in
    f k v
  done

let clear t =
  Array.fill t.head 0 (Array.length t.head) (-1);
  Array.fill t.tail 0 (Array.length t.tail) (-1);
  Array.fill t.bits 0 levels 0;
  let cap = Array.length t.nnext in
  for i = 0 to cap - 1 do
    t.nnext.(i) <- (if i + 1 < cap then i + 1 else -1)
  done;
  t.free <- 0;
  t.count <- 0;
  t.cur <- 0;
  t.mvalid <- false;
  Int_heap.clear t.overdue;
  Int_heap.clear t.overflow
