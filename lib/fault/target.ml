open Draconis_sim
open Draconis_net
open Draconis
open Draconis_baselines

type t = {
  name : string;
  engine : Engine.t;
  failover : unit -> int;
  crash_node : int -> unit;
  restart_node : int -> unit;
  set_loss_override : float option -> unit;
  partition : int list -> unit;
  heal : int list -> unit;
  set_slowdown : int -> float -> unit;
  supports_crash : bool;
  supports_straggler : bool;
}

let unsupported name op _ =
  invalid_arg (Printf.sprintf "Fault target %s: %s unsupported" name op)

(* The injector mutates cluster and fabric state from the switch LP's
   engine at the instant a plan event fires; on a sharded cluster other
   LPs may already have simulated past that instant (and run on other
   domains), so outcomes would depend on the shard count. *)
let of_cluster ?(name = "draconis") cluster =
  if Cluster.sync cluster <> None then
    invalid_arg
      (Printf.sprintf
         "Fault target %s: the runtime injector cannot drive a sharded cluster; \
          express the faults as Cluster.static_faults windows"
         name);
  let fabric = Cluster.fabric cluster in
  {
    name;
    engine = Cluster.engine cluster;
    failover = (fun () -> Cluster.fail_over_switch cluster);
    crash_node = Cluster.crash_worker cluster;
    restart_node = Cluster.restart_worker cluster;
    set_loss_override = Fabric.set_loss_override fabric;
    partition = Fabric.partition fabric;
    heal = Fabric.heal fabric;
    set_slowdown = Cluster.set_node_slowdown cluster;
    supports_crash = true;
    supports_straggler = true;
  }

let of_central_server ?(name = "central-server") server =
  let fabric = Central_server.fabric server in
  {
    name;
    engine = Central_server.engine server;
    failover = (fun () -> Central_server.fail_over_server server);
    crash_node = Central_server.crash_worker server;
    restart_node = Central_server.restart_worker server;
    set_loss_override = Fabric.set_loss_override fabric;
    partition = Fabric.partition fabric;
    heal = Fabric.heal fabric;
    set_slowdown = Central_server.set_node_slowdown server;
    supports_crash = true;
    supports_straggler = true;
  }

let of_r2p2 ?(name = "r2p2") r2p2 =
  let fabric = R2p2.fabric r2p2 in
  {
    name;
    engine = R2p2.engine r2p2;
    failover = (fun () -> R2p2.fail_over_switch r2p2);
    crash_node = unsupported name "crash";
    restart_node = unsupported name "restart";
    set_loss_override = Fabric.set_loss_override fabric;
    partition = Fabric.partition fabric;
    heal = Fabric.heal fabric;
    set_slowdown = (fun _ -> unsupported name "straggler");
    supports_crash = false;
    supports_straggler = false;
  }

let of_racksched ?(name = "racksched") racksched =
  let fabric = Racksched.fabric racksched in
  {
    name;
    engine = Racksched.engine racksched;
    failover = (fun () -> Racksched.fail_over_switch racksched);
    crash_node = unsupported name "crash";
    restart_node = unsupported name "restart";
    set_loss_override = Fabric.set_loss_override fabric;
    partition = Fabric.partition fabric;
    heal = Fabric.heal fabric;
    set_slowdown = (fun _ -> unsupported name "straggler");
    supports_crash = false;
    supports_straggler = false;
  }
