open Draconis_sim

(* -- shard-count knob (mirrors Pool's jobs knob) ------------------------- *)

let env_var = "DRACONIS_SHARDS"
let max_shards = Pool.max_jobs

let override = ref None

let set_shards n =
  Option.iter
    (fun n ->
      if n < 1 || n > max_shards then
        invalid_arg
          (Printf.sprintf
             "Shard.set_shards: %d out of range [1, %d] (the OCaml 5 runtime caps \
              live domains; see Pool.max_jobs)"
             n max_shards))
    n;
  override := n

(* Invalid values fail loudly rather than silently running unsharded —
   the same contract as DRACONIS_CALENDAR and Pool's jobs knob. *)
let shards () =
  match !override with
  | Some _ as n -> n
  | None -> (
    match Sys.getenv_opt env_var with
    | None | Some "" -> None
    | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 && n <= max_shards -> Some n
      | Some n ->
        invalid_arg
          (Printf.sprintf "Shard: %s=%d out of range [1, %d]" env_var n max_shards)
      | None -> invalid_arg (Printf.sprintf "Shard: %s=%S is not an integer" env_var v)))

let run_windows ?until ~workers sync =
  if workers < 1 || workers > max_shards then
    invalid_arg
      (Printf.sprintf "Shard.run_windows: workers %d out of range [1, %d]" workers
         max_shards);
  (* More lanes than LPs would only park helpers at the batch barrier. *)
  let team = Pool.Team.create ~size:(min workers (Array.length (Sync.lps sync))) in
  Fun.protect
    ~finally:(fun () -> Pool.Team.shutdown team)
    (fun () -> Sync.run ?until ~executor:(Pool.Team.run team) sync)
