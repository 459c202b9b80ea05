(* kv-service: the sharded KV service on the simulator (MESI), driven by
   the flash-crowd scenario scaled up in sessions: 90% of requests hit a
   16-key window that jumps to mid-range halfway through every session,
   and 25% of requests are updates.  Shard_queue and Cluster batching and
   the hot-shard queueing do the work.  Clients are closed loops: a
   session issues its next request once the previous one is submitted,
   one round per session at a time. *)

module Sim = Ascy_mem.Sim
module Engine = Ascy_harness.Engine
module Scenario = Ascy_service.Scenario
module Service_run = Ascy_service.Service_run
module Cluster = Ascy_service.Cluster
module Registry = Ascylib.Registry
module H = Ascy_util.Histogram
module P = Ascy_platform.Platform
open Common

let scenario = function
  | Full -> { (Scenario.flash_crowd Scenario.Smoke) with Scenario.sessions = 2048 }
  | Probe -> Scenario.flash_crowd Scenario.Smoke

let max_rounds = 1000

(** The kv-service checks: every issued request applied, the per-shard
    outcome counters summing to the applied count, net successful
    inserts minus removes equal to the change in total size, and no
    violation from Service_run's own oracles.  Returns the number of
    requests not applied and every failed check. *)
let check (r : Service_run.result) =
  let sc = r.Service_run.scenario in
  let shards = Array.to_list r.Service_run.shard_stats in
  let tot f = isum (List.map f shards) in
  let outcomes =
    tot (fun s ->
        s.Service_run.ss_search_ok + s.ss_search_miss + s.ss_insert_ok + s.ss_insert_fail
        + s.ss_remove_ok + s.ss_remove_fail)
  in
  let net = tot (fun s -> s.Service_run.ss_insert_ok - s.ss_remove_ok) in
  let not_applied = max 0 (r.ops_requested - r.ops_applied) in
  let problems =
    (if r.ops_applied = r.ops_requested then []
     else [ Printf.sprintf "%d requests issued, %d applied" r.ops_requested r.ops_applied ])
    @ (if outcomes = r.ops_applied then []
       else [ Printf.sprintf "shard outcome counters sum to %d, %d applied" outcomes r.ops_applied ])
    @ (if r.final_size - sc.Scenario.initial = net then []
       else
         [
           Printf.sprintf "size went from %d to %d but net successful updates are %d" sc.Scenario.initial
             r.final_size net;
         ])
    @ (if r.checked then [] else [ "service oracles did not run" ])
    @ match r.violation with Some v -> [ "service oracle: " ^ v ] | None -> []
  in
  (not_applied, problems)

(* The service's set-up on its own: session (Sim.create), cluster,
   prefill and warm — the steps Service_run.run takes before its first
   request. *)
let setup ~seed sc =
  let (module A : Ascy_core.Set_intf.MAKER) = (Registry.by_name sc.Scenario.algo).Registry.maker in
  let module C = Cluster.Make (Sim.Mem) (A) in
  let cfg = Engine.default ~platform:P.xeon20 ~nthreads:(Scenario.nthreads sc) in
  snd
    (timed (fun () ->
         Span.with_ "service.setup" (fun () ->
             Engine.with_session { cfg with Engine.seed } (fun session ->
                 let t = C.create sc in
                 C.prefill t ~seed;
                 Sim.warm session.Engine.sim))))

let round ~seed ~scale () =
  let t0 = now () in
  let sc = scenario scale in
  let setup_s = setup ~seed sc in
  let r, wall = timed (fun () -> Span.with_ "service.Service_run.run" (fun () -> Service_run.run ~seed sc)) in
  let failed, problems = check r in
  let shards = Array.to_list r.Service_run.shard_stats in
  let applied = List.map (fun s -> float_of_int s.Service_run.ss_applied) shards in
  let batches = isum (List.map (fun s -> s.Service_run.ss_batches) shards) in
  let pct h p = H.percentile h p in
  let layer =
    [
      ("service.vservice_p50_ns", pct r.service 50.);
      ("service.vservice_p99_ns", pct r.service 99.);
      ("service.vsojourn_p50_ns", pct r.sojourn 50.);
      ("service_vp99_ns", pct r.sojourn 99.);
      ("service_vp99_samples", float_of_int (H.count r.sojourn));
      ("service.enq_waits", float_of_int r.enq_waits);
      ("service.mean_batch", float_of_int r.ops_applied /. float_of_int (max 1 batches));
      ( "service.shard_imbalance",
        List.fold_left Float.max 0. applied /. List.fold_left Float.min infinity applied );
      ("service_vmops", r.throughput_mops);
    ]
  in
  {
    setup_s;
    wall_s = now () -. t0;
    attempted = r.ops_requested;
    failed;
    problems;
    rates = [ ("requests", float_of_int r.ops_applied /. wall) ];
    layer;
    virt =
      String.concat " "
        (Printf.sprintf "makespan=%d accesses=%d" r.stats.Ascy_mem.Sim.makespan_cycles r.stats.accesses
        :: List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) layer);
  }

let per_layer =
  [
    ("service.vservice_p50_ns", "ns");
    ("service.vservice_p99_ns", "ns");
    ("service.vsojourn_p50_ns", "ns");
    ("service_vp99_ns", "ns");
    ("service_vp99_samples", "count");
    ("service.enq_waits", "count");
    ("service.mean_batch", "requests");
    ("service.shard_imbalance", "ratio");
    ("service_vmops", "Mops/s");
    ("service_kreq_per_s", "kreq/s");
  ]

let layer_metrics rounds _spans =
  List.filter_map
    (fun (k, _) -> if k = "service_kreq_per_s" then None else Some (k, median (values k rounds)))
    per_layer
  @ [ ("service_kreq_per_s", median (rate_values "requests" rounds) /. 1e3) ]
