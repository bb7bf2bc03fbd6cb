(* Work pool over Domain.spawn.

   Jobs go through a mutex/condition-protected queue; each worker domain
   pulls the next job, runs it, and stores the result (or the exception)
   in a slot indexed by submission order.  [results]/[map] therefore
   return rows in submission order no matter which domain ran which job,
   which is what keeps parallel experiment sweeps bit-identical to the
   sequential run. *)

let env_var = "DRACONIS_JOBS"

(* The OCaml 5 runtime supports at most 128 live domains; past that,
   Domain.spawn fails outright.  Leave headroom for the coordinating
   domain and any LP-shard team, and reject the rest up front: a job
   count in the hundreds is always a typo or oversubscription, never a
   useful configuration. *)
let max_jobs = 64

(* An invalid value is a configuration error, not a preference: silently
   falling back to the default would run the sweep with the wrong
   parallelism and bury the typo (same contract as DRACONIS_CALENDAR). *)
let env_jobs () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some raw -> (
    match int_of_string_opt (String.trim raw) with
    | Some n when n >= 1 && n <= max_jobs -> Some n
    | Some n ->
      invalid_arg
        (Printf.sprintf
           "Pool: %s=%d out of range [1, %d] (the OCaml 5 runtime supports at \
            most 128 domains per process)"
           env_var n max_jobs)
    | None ->
      invalid_arg
        (Printf.sprintf "Pool: %s=%S is not an integer" env_var raw))

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count () - 1)

let current_jobs = ref (-1)

let jobs () =
  if !current_jobs < 1 then current_jobs := default_jobs ();
  !current_jobs

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs must be >= 1";
  if n > max_jobs then
    invalid_arg
      (Printf.sprintf
         "Pool.set_jobs: %d exceeds the cap of %d worker domains (the runtime supports \
          at most 128 domains per process; more workers than that only oversubscribes)"
         n max_jobs);
  current_jobs := n

type 'a cell = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a t = {
  jobs : int;
  mutex : Mutex.t;
  todo : (int * (unit -> 'a)) Queue.t;
  work_or_close : Condition.t;
  job_done : Condition.t;
  mutable cells : 'a cell array;
  mutable submitted : int;
  mutable completed : int;
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let create ?jobs:j () =
  let j = match j with Some j -> max 1 (min max_jobs j) | None -> jobs () in
  {
    jobs = j;
    mutex = Mutex.create ();
    todo = Queue.create ();
    work_or_close = Condition.create ();
    job_done = Condition.create ();
    cells = Array.make 16 Pending;
    submitted = 0;
    completed = 0;
    closed = false;
    domains = [];
  }

let run_job t index job =
  let cell =
    match job () with
    | v -> Done v
    | exception exn -> Failed (exn, Printexc.get_raw_backtrace ())
  in
  Mutex.lock t.mutex;
  t.cells.(index) <- cell;
  t.completed <- t.completed + 1;
  Condition.signal t.job_done;
  Mutex.unlock t.mutex

let worker t () =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.todo && not t.closed do
      Condition.wait t.work_or_close t.mutex
    done;
    match Queue.take_opt t.todo with
    | None ->
      (* Closed and drained. *)
      Mutex.unlock t.mutex
    | Some (index, job) ->
      Mutex.unlock t.mutex;
      run_job t index job;
      loop ()
  in
  loop ()

(* Workers store results through [t.cells] under the mutex, so growing
   the array must also happen under the mutex or a concurrent store
   could land in the superseded array. *)
let grow_cells t index =
  if index >= Array.length t.cells then begin
    let bigger = Array.make (2 * Array.length t.cells) Pending in
    Array.blit t.cells 0 bigger 0 index;
    t.cells <- bigger
  end

let submit t job =
  if t.closed then invalid_arg "Pool.submit: pool already closed";
  let index = t.submitted in
  t.submitted <- index + 1;
  if t.jobs <= 1 then begin
    (* Sequential mode runs in the submitting domain, at submission
       time: no domains, no interleaving, the reference behaviour. *)
    grow_cells t index;
    run_job t index job
  end
  else begin
    Mutex.lock t.mutex;
    grow_cells t index;
    Queue.add (index, job) t.todo;
    Condition.signal t.work_or_close;
    Mutex.unlock t.mutex;
    if List.length t.domains < min t.jobs t.submitted then
      t.domains <- Domain.spawn (worker t) :: t.domains
  end

let results t =
  if not t.closed then begin
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.work_or_close;
    while t.completed < t.submitted do
      Condition.wait t.job_done t.mutex
    done;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
  end;
  for i = 0 to t.submitted - 1 do
    match t.cells.(i) with
    | Failed (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | Done _ | Pending -> ()
  done;
  List.init t.submitted (fun i ->
      match t.cells.(i) with
      | Done v -> v
      | Failed _ | Pending -> assert false)

let map ?jobs fns =
  let t = create ?jobs () in
  List.iter (submit t) fns;
  results t

(* -- persistent worker team ------------------------------------------------ *)

(* The experiment pool above spawns domains per sweep and joins them at
   [results] — fine for a dozen long jobs, hopeless for a sharded
   simulation that needs its logical processes run in parallel at every
   barrier window (over a hundred thousand windows per run, each only
   microseconds long).  A [Team] keeps its domains alive across batches:
   [run] publishes a fresh batch record and bumps an atomic epoch, and
   the caller and every helper claim thunk indices from the record's
   shared cursor until it runs past the end.  A window batch is a flat
   array of independent per-LP thunks that spawn no further work, so
   one cursor is all the balancing it needs.  The caller's own domain
   participates as lane 0, so a team of [size] uses [size - 1] spawned
   domains, and a team of one runs every batch inline on the caller, in
   index order.

   A window is shorter than a futex sleep/wake round trip, so a lane
   that must wait — a helper for the next epoch, the caller for the
   batch's last thunk — spins on the atomic it waits for and parks on
   the mutex and a condition only once a bounded spin budget runs out. *)
module Team = struct
  (* About one barrier window of wall time on the sharded cluster
     (~12 us of [Domain.cpu_relax] on a 2-vCPU AMD EPYC guest, against
     ~8 us per window): a lane that sees no progress for that long is
     waiting on something slower than a window — the runner between
     [Sync.run] calls, a descheduled lane — and parks.  Spinning much
     longer made whole runs sporadically 2-3x slower on that guest. *)
  let spin_budget = 500

  (* Fresh per batch: a helper that wakes late for batch k finds k's
     cursor exhausted and can never claim a thunk of batch k + 1. *)
  type batch = {
    thunks : (unit -> unit) array;
    next : int Atomic.t;  (* next unclaimed index *)
    remaining : int Atomic.t;  (* thunks not yet finished *)
  }

  type counters = { batches : int; parks : int }

  type t = {
    size : int;
    spin : int;  (* spin budget per wait; 0 when lanes outnumber cores *)
    mutex : Mutex.t;
    start : Condition.t;  (* [epoch] moved: a new batch, or shutdown *)
    finished : Condition.t;  (* a batch's [remaining] reached zero *)
    epoch : int Atomic.t;
    sleepers : int Atomic.t;  (* helpers registered to wait on [start] *)
    caller_parked : bool Atomic.t;  (* the caller waits on [finished] *)
    stop : bool Atomic.t;
    failure : (exn * Printexc.raw_backtrace) option Atomic.t;
    parks : int Atomic.t;
    mutable batches : int;
    mutable batch : batch;  (* written before the [epoch] bump that publishes it *)
    mutable domains : unit Domain.t list;
  }

  (* Parking loses no wakeup because sleeper and waker order their
     steps Dekker-style on sequentially consistent atomics.  A sleeper
     takes the mutex, registers ([sleepers] or [caller_parked]), then
     re-reads the word it waits on and calls [Condition.wait] only if it
     is unchanged, never releasing the mutex in between.  A waker first
     writes that word ([epoch] or [remaining]), then reads the
     registration, and broadcasts under the mutex if it is set.  In the
     single order of the atomics either the registration comes first:
     the waker sees it, and its broadcast cannot fall between the
     sleeper's re-check and its wait, because the sleeper holds the
     mutex until [Condition.wait] releases it.  Or the write comes
     first: the sleeper's re-check sees it and never waits.  A stale
     registration costs at most a spurious broadcast, and every wait
     re-checks in a loop. *)
  let await_epoch t seen ~budget =
    let n = ref budget in
    while !n > 0 && Atomic.get t.epoch = seen do
      Domain.cpu_relax ();
      decr n
    done;
    if Atomic.get t.epoch = seen then begin
      Atomic.incr t.parks;
      Mutex.lock t.mutex;
      Atomic.incr t.sleepers;
      while Atomic.get t.epoch = seen do
        Condition.wait t.start t.mutex
      done;
      Atomic.decr t.sleepers;
      Mutex.unlock t.mutex
    end;
    Atomic.get t.epoch

  let await_batch t b =
    let n = ref t.spin in
    while !n > 0 && Atomic.get b.remaining > 0 do
      Domain.cpu_relax ();
      decr n
    done;
    if Atomic.get b.remaining > 0 then begin
      Atomic.incr t.parks;
      Mutex.lock t.mutex;
      Atomic.set t.caller_parked true;
      while Atomic.get b.remaining > 0 do
        Condition.wait t.finished t.mutex
      done;
      Atomic.set t.caller_parked false;
      Mutex.unlock t.mutex
    end

  (* Claim and run thunks until the cursor passes the end.  Thunks run
     outside the lock; the first exception is kept (by order of
     discovery) and re-raised by [run] after the barrier, so a failed
     window never leaves helpers mid-batch.  The lane that finishes the
     last thunk wakes the caller if it parked. *)
  let rec work t b =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < Array.length b.thunks then begin
      (try b.thunks.(i) ()
       with exn ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set t.failure None (Some (exn, bt))));
      if Atomic.fetch_and_add b.remaining (-1) = 1 && Atomic.get t.caller_parked then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      end;
      work t b
    end

  (* A fresh helper parks at once: the first batch may be a whole setup
     away, and spinning through it only slows the domain that builds
     it.  [run] and [shutdown] write [batch] or [stop] before they bump
     the epoch, and the helper reads them after the epoch that ended its
     wait, so it sees at least that epoch's batch and stop flag; anything
     published later ends its next wait. *)
  let helper t () =
    let rec loop seen ~budget =
      let seen = await_epoch t seen ~budget in
      if not (Atomic.get t.stop) then begin
        work t t.batch;
        loop seen ~budget:t.spin
      end
    in
    loop 0 ~budget:0

  let create ~size =
    if size < 1 then invalid_arg "Pool.Team.create: size must be >= 1";
    if size > max_jobs then
      invalid_arg
        (Printf.sprintf "Pool.Team.create: size %d exceeds the cap of %d worker domains"
           size max_jobs);
    let t =
      {
        size;
        (* More lanes than cores: a spinning lane would burn the core the
           lane it waits for needs. *)
        spin = (if size > Domain.recommended_domain_count () then 0 else spin_budget);
        mutex = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        epoch = Atomic.make 0;
        sleepers = Atomic.make 0;
        caller_parked = Atomic.make false;
        stop = Atomic.make false;
        failure = Atomic.make None;
        parks = Atomic.make 0;
        batches = 0;
        batch = { thunks = [||]; next = Atomic.make 0; remaining = Atomic.make 0 };
        domains = [];
      }
    in
    t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (helper t));
    t

  let size t = t.size
  let counters t = { batches = t.batches; parks = Atomic.get t.parks }

  let run t thunks =
    let n = Array.length thunks in
    if n > 0 then begin
      if Atomic.get t.stop then invalid_arg "Pool.Team.run: team already shut down";
      Atomic.set t.failure None;
      t.batches <- t.batches + 1;
      let b = { thunks; next = Atomic.make 0; remaining = Atomic.make n } in
      t.batch <- b;
      Atomic.incr t.epoch;
      if Atomic.get t.sleepers > 0 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.start;
        Mutex.unlock t.mutex
      end;
      work t b;
      await_batch t b;
      match Atomic.get t.failure with
      | None -> ()
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    end

  (* A second call finds no domains left to join. *)
  let shutdown t =
    Atomic.set t.stop true;
    Atomic.incr t.epoch;
    Mutex.lock t.mutex;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
end
