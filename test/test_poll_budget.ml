(* Allocation budget of the idle poll cycle.

   An idle Draconis cluster is nothing but no-op polls: every executor
   sends a task request, the switch answers with a no-op, the executor
   retries after [noop_retry], and each send arms a watchdog check.
   That is four engine events per pipeline traversal (request delivery,
   pipeline exit, no-op delivery, retry): every check finds its reply
   in, so a node's watchdog line fires about once per window, not once
   per send.  The words the cycle allocates are the poll path's whole
   host-side cost.  This test pins both, so a regression on the poll
   path fails [dune runtest]. *)

open Draconis_sim
open Draconis

let words_budget = 40.0

let measure () =
  let cluster = Cluster.create Cluster.default_config in
  Cluster.start cluster;
  (* Warm-up: start-up staggering settles and every growable structure
     (engine slab, wheel buckets, delay-line rings) reaches its size. *)
  Cluster.run cluster ~until:(Time.ms 1);
  let pipeline = Cluster.pipeline cluster in
  let traversals0 = Draconis_p4.Pipeline.processed pipeline in
  let events0 = Cluster.events cluster in
  let words0 = Gc.minor_words () in
  Cluster.run cluster ~until:(Time.ms 21);
  let words = Gc.minor_words () -. words0 in
  let traversals = Draconis_p4.Pipeline.processed pipeline - traversals0 in
  let events = Cluster.events cluster - events0 in
  (traversals, events, words)

let test_idle_poll_budget () =
  let traversals, events, words = measure () in
  Alcotest.(check bool) "the idle cluster polls" true (traversals > 100_000);
  let per = float_of_int traversals in
  let events_per = float_of_int events /. per in
  let words_per = words /. per in
  Printf.printf "idle poll cycle: %d traversals, %.2f events and %.2f minor words per traversal\n%!"
    traversals events_per words_per;
  Alcotest.(check string) "events per traversal" "4.00" (Printf.sprintf "%.2f" events_per);
  if words_per > words_budget then
    Alcotest.failf "idle poll cycle allocates %.2f minor words per traversal (budget %.0f)"
      words_per words_budget

let suite =
  [ Alcotest.test_case "idle poll cycle allocation budget" `Quick test_idle_poll_budget ]
