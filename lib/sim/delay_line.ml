(* The ring starts empty because there is no dummy element: the first
   push seeds it with the pushed values.  A popped slot keeps its stale
   values until the ring wraps over it, which bounds what the line
   retains to its capacity. *)
type ('a, 'b) t = {
  engine : Engine.t;
  mutable firsts : 'a array;
  mutable seconds : 'b array;
  mutable head : int;
  mutable length : int;
  mutable last_at : Time.t;  (* exit time of the newest item in flight *)
  mutable fire : unit -> unit;
}

let initial_capacity = 16

let create engine handler =
  let t =
    { engine; firsts = [||]; seconds = [||]; head = 0; length = 0; last_at = 0;
      fire = ignore }
  in
  (* The one closure every push schedules: it pops the head. *)
  t.fire <-
    (fun () ->
      let i = t.head in
      let a = t.firsts.(i) and b = t.seconds.(i) in
      t.head <- (if i + 1 = Array.length t.firsts then 0 else i + 1);
      t.length <- t.length - 1;
      handler a b);
  t

let length t = t.length

(* Unroll the ring into arrays of twice the size, head first. *)
let grow t a b =
  let cap = Array.length t.firsts in
  if cap = 0 then begin
    t.firsts <- Array.make initial_capacity a;
    t.seconds <- Array.make initial_capacity b
  end
  else begin
    let firsts = Array.make (2 * cap) a and seconds = Array.make (2 * cap) b in
    let wrapped = cap - t.head in
    Array.blit t.firsts t.head firsts 0 wrapped;
    Array.blit t.firsts 0 firsts wrapped t.head;
    Array.blit t.seconds t.head seconds 0 wrapped;
    Array.blit t.seconds 0 seconds wrapped t.head;
    t.firsts <- firsts;
    t.seconds <- seconds;
    t.head <- 0
  end

let push t ~at a b =
  if t.length > 0 && at < t.last_at then
    invalid_arg
      (Printf.sprintf
         "Delay_line.push: exit time %d is before %d, the exit of the last item in \
          flight (the line only delays FIFO)"
         at t.last_at);
  ignore (Engine.schedule_at t.engine ~at t.fire);
  if t.length = Array.length t.firsts then grow t a b;
  let cap = Array.length t.firsts in
  let i = t.head + t.length in
  let i = if i >= cap then i - cap else i in
  t.firsts.(i) <- a;
  t.seconds.(i) <- b;
  t.length <- t.length + 1;
  t.last_at <- at
