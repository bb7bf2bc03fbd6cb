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
   barrier window (thousands of windows per run).  A [Team] keeps its
   domains alive across batches: [run] publishes a fresh batch record
   under an epoch counter, and the caller and every helper claim thunk
   indices from the record's shared cursor until it runs past the end.
   A window batch is a flat array of independent per-LP thunks that
   spawn no further work, so one cursor is all the balancing it needs.
   The caller's own domain participates as lane 0, so a team of [size]
   uses [size - 1] spawned domains, and a team of one runs every batch
   inline on the caller, in index order. *)
module Team = struct
  (* Fresh per batch: a helper that wakes late for batch k finds k's
     cursor exhausted and can never claim a thunk of batch k + 1. *)
  type batch = {
    thunks : (unit -> unit) array;
    next : int Atomic.t;  (* next unclaimed index *)
    remaining : int Atomic.t;  (* thunks not yet finished *)
  }

  type t = {
    size : int;
    mutex : Mutex.t;
    start : Condition.t;  (* a new batch was published, or shutdown *)
    finished : Condition.t;  (* the current batch fully completed *)
    failure : (exn * Printexc.raw_backtrace) option Atomic.t;
    mutable epoch : int;
    mutable batch : batch;
    mutable stop : bool;
    mutable domains : unit Domain.t list;
  }

  (* Claim and run thunks until the cursor passes the end.  Thunks run
     outside the lock; the first exception is kept (by order of
     discovery) and re-raised by [run] after the barrier, so a failed
     window never leaves helpers mid-batch.  The lane that finishes the
     last thunk broadcasts the barrier — under the mutex, so the caller
     cannot miss the wakeup between its counter check and its wait. *)
  let rec work t b =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < Array.length b.thunks then begin
      (try b.thunks.(i) ()
       with exn ->
         let bt = Printexc.get_raw_backtrace () in
         ignore (Atomic.compare_and_set t.failure None (Some (exn, bt))));
      if Atomic.fetch_and_add b.remaining (-1) = 1 && t.size > 1 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      end;
      work t b
    end

  let helper t () =
    let rec wait_for_batch seen =
      Mutex.lock t.mutex;
      while t.epoch = seen && not t.stop do
        Condition.wait t.start t.mutex
      done;
      if t.stop then Mutex.unlock t.mutex
      else begin
        let epoch = t.epoch in
        let batch = t.batch in
        Mutex.unlock t.mutex;
        work t batch;
        wait_for_batch epoch
      end
    in
    wait_for_batch 0

  let create ~size =
    if size < 1 then invalid_arg "Pool.Team.create: size must be >= 1";
    if size > max_jobs then
      invalid_arg
        (Printf.sprintf "Pool.Team.create: size %d exceeds the cap of %d worker domains"
           size max_jobs);
    let t =
      {
        size;
        mutex = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        failure = Atomic.make None;
        epoch = 0;
        batch = { thunks = [||]; next = Atomic.make 0; remaining = Atomic.make 0 };
        stop = false;
        domains = [];
      }
    in
    t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (helper t));
    t

  let size t = t.size

  (* Helpers never write [stop], so the caller reads it without the
     lock; a one-lane team takes no lock at all. *)
  let run t thunks =
    let n = Array.length thunks in
    if n > 0 then begin
      if t.stop then invalid_arg "Pool.Team.run: team already shut down";
      Atomic.set t.failure None;
      let b = { thunks; next = Atomic.make 0; remaining = Atomic.make n } in
      if t.size > 1 then begin
        Mutex.lock t.mutex;
        t.batch <- b;
        t.epoch <- t.epoch + 1;
        Condition.broadcast t.start;
        Mutex.unlock t.mutex
      end;
      work t b;
      if t.size > 1 then begin
        Mutex.lock t.mutex;
        while Atomic.get b.remaining > 0 do
          Condition.wait t.finished t.mutex
        done;
        Mutex.unlock t.mutex
      end;
      match Atomic.get t.failure with
      | None -> ()
      | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    end

  (* A second call finds no domains left to join. *)
  let shutdown t =
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.domains;
    t.domains <- []
end
