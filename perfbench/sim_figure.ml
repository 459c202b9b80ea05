(* sim-figure: free-running simulation of the paper's average-contention
   point (4096 keys prefilled out of 8192, 10% updates) on simulated
   xeon20 with 20 threads under MESI, one point per entry.  Effect
   dispatch, the smallest-clock scheduler and per-access coherence cost
   do nearly all the work; the virtual clock gives the paper's own
   throughput figure, exactly repeatable. *)

module W = Ascy_harness.Workload
module X = Ascy_util.Xorshift
module Registry = Ascylib.Registry
module Sim = Ascy_mem.Sim
module Engine = Ascy_harness.Engine
module History = Ascy_harness.History
module P = Ascy_platform.Platform
open Common

let workload = W.average
let platform = P.xeon20
let nthreads = 20

(* Operations per simulated thread, per entry: long enough that the
   session set-up (Sim.create, prefill, warm) is a small share. *)
let entries =
  [
    ("ht-clht-lb", 2_000);
    ("ll-lazy", 40);
    ("sl-fraser", 600);
    ("bst-natarajan", 800);
    ("bst-pathcas", 600);
  ]

let max_rounds = 1000

type point = {
  setup : float;
  run_wall : float;
  ops : int;
  failed : int;
  upd_att : int;
  upd_ok : int;
  stats : Sim.run_stats;
  problems : string list;
  virt : string;
}

let point ~seed ~ops ?history name =
  let (module A : Ascy_core.Set_intf.MAKER) = (Registry.by_name name).Registry.maker in
  let module M = A (Sim.Mem) in
  let tag = "sim." ^ name in
  let kr = workload.W.key_range in
  let init = Array.make (kr + 1) 0 in
  let delta = Array.init nthreads (fun _ -> Array.make (kr + 1) 0) in
  let upd_att = Array.make nthreads 0 and upd_ok = Array.make nthreads 0 in
  let done_ops = Array.make nthreads 0 in
  let cfg = { (Engine.default ~platform ~nthreads) with seed } in
  let t_start = now () in
  Span.with_ (tag ^ ".session") (fun () ->
      Engine.with_session cfg (fun session ->
          let sim = session.Engine.sim in
          let t =
            Span.with_ (tag ^ ".prefill") (fun () ->
                let t = M.create ~hint:workload.W.initial () in
                let rng0 = X.create ((seed * 31) + 7) in
                let filled = ref 0 in
                while !filled < workload.W.initial do
                  let k = W.pick_key workload rng0 in
                  if M.insert t k 0 then begin
                    incr filled;
                    init.(k) <- 1;
                    Option.iter (fun h -> History.add_initial h k) history
                  end
                done;
                Sim.warm sim;
                t)
          in
          let setup = now () -. t_start in
          let body tid () =
            let rng = X.create ((seed * 7919) + (tid * 104729) + 13) in
            let d = delta.(tid) in
            for _ = 1 to ops do
              let k = W.pick_key workload rng in
              let op = W.pick_op workload rng in
              let inv = if Option.is_none history then 0 else Sim.now () in
              let ok =
                match op with
                | W.Search -> M.search t k <> None
                | W.Insert ->
                    upd_att.(tid) <- upd_att.(tid) + 1;
                    let r = M.insert t k tid in
                    if r then d.(k) <- d.(k) + 1;
                    r
                | W.Remove ->
                    upd_att.(tid) <- upd_att.(tid) + 1;
                    let r = M.remove t k in
                    if r then d.(k) <- d.(k) - 1;
                    r
              in
              if ok && op <> W.Search then upd_ok.(tid) <- upd_ok.(tid) + 1;
              (match history with
              | Some h ->
                  let kind =
                    match op with
                    | W.Search -> History.Search
                    | W.Insert -> History.Insert
                    | W.Remove -> History.Remove
                  in
                  History.record h ~tid ~kind ~key:k ~result:ok ~inv ~res:(Sim.now ())
              | None -> ());
              M.op_done t;
              done_ops.(tid) <- done_ops.(tid) + 1
            done
          in
          let outcome, run_wall =
            timed (fun () ->
                Span.with_ (tag ^ ".Engine.run") (fun () ->
                    match Engine.run session (Array.init nthreads body) with
                    | makespan -> Ok makespan
                    | exception Sim.Thread_failure (tid, e, _) ->
                        Error (Printf.sprintf "%s: thread %d raised %s" tag tid (Printexc.to_string e))))
          in
          let makespan = match outcome with Ok m -> m | Error _ -> 0 in
          let stats = Sim.stats sim ~makespan in
          let completed = isum (Array.to_list done_ops) in
          let broken, problems =
            Span.with_ (tag ^ ".check") (fun () ->
                Native_sets.check_ledger
                  { Native_sets.init; delta }
                  ~member:(fun k -> M.search t k <> None)
                  ~size:(M.size t) ~validate:(M.validate t))
          in
          let final_size = M.size t in
          let ups_ok = isum (Array.to_list upd_ok) in
          {
            setup;
            run_wall;
            ops = nthreads * ops;
            failed = (nthreads * ops) - completed + broken;
            upd_att = isum (Array.to_list upd_att);
            upd_ok = ups_ok;
            stats;
            problems =
              (match outcome with Error e -> [ e ] | Ok _ -> [])
              @ List.map (fun p -> tag ^ ": " ^ p) problems;
            virt =
              Printf.sprintf "%s makespan=%d accesses=%d misses=%d atomics=%d stores=%d upd_ok=%d size=%d"
                name makespan stats.Sim.accesses (Sim.misses stats) stats.Sim.atomics stats.Sim.stores
                ups_ok final_size;
          }))

let vmops p = float_of_int p.ops /. p.stats.Sim.seconds /. 1e6

let round ~seed ~scale () =
  let t0 = now () in
  let points =
    List.map
      (fun (name, ops) ->
        let ops = match scale with Full -> ops | Probe -> max 1 (ops / 10) in
        (name, point ~seed ~ops name))
      entries
  in
  let tot f = float_of_int (isum (List.map (fun (_, p) -> f p) points)) in
  {
    setup_s = sum (List.map (fun (_, p) -> p.setup) points);
    wall_s = now () -. t0;
    attempted = isum (List.map (fun (_, p) -> p.ops) points);
    failed = isum (List.map (fun (_, p) -> p.failed) points);
    problems = List.concat_map (fun (_, p) -> p.problems) points;
    rates = List.map (fun (name, p) -> (name, float_of_int p.ops /. p.run_wall)) points;
    layer =
      [
        ("run_wall", sum (List.map (fun (_, p) -> p.run_wall) points));
        ("accesses", tot (fun p -> p.stats.Sim.accesses));
        ("misses", tot (fun p -> Sim.misses p.stats));
        ("atomics", tot (fun p -> p.stats.Sim.atomics));
        ("ops", tot (fun p -> p.ops));
        ("upd_ok", tot (fun p -> p.upd_ok));
      ]
      @ List.map (fun (name, p) -> ("vmops." ^ name, vmops p)) points;
    virt = String.concat "; " (List.map (fun (_, p) -> p.virt) points);
  }

(** Record the history of one small ht-clht-lb point and time
    [History.check] on it. *)
let history_check ~seed =
  let h = History.create () in
  let p = point ~seed ~ops:100 ~history:h "ht-clht-lb" in
  let verdict, dt = timed (fun () -> Span.with_ "history.check" (fun () -> History.check h)) in
  let problems =
    p.problems
    @ match verdict with
      | Ok () -> []
      | Error v -> [ "history check: " ^ History.pp_violation v ]
  in
  ([ ("history.check_ms", dt *. 1e3) ], problems, p.ops)

let per_layer =
  [
    ("sim.ns_per_access", "ns");
    ("sim.accesses", "count");
    ("sim.misses_per_op", "ratio");
    ("sim.atomics_per_update", "ratio");
    ("sim_kops_per_s", "kops/s");
    ("sim_vmops", "Mops/s");
    ("history.check_ms", "ms");
  ]

let layer_metrics rounds _spans =
  let tot k = sum (values k rounds) in
  [
    ("sim.ns_per_access", tot "run_wall" /. tot "accesses" *. 1e9);
    ("sim.accesses", tot "accesses" /. float_of_int (List.length rounds));
    ("sim.misses_per_op", tot "misses" /. tot "ops");
    ("sim.atomics_per_update", tot "atomics" /. tot "upd_ok");
    ("sim_kops_per_s", geomean (List.map (fun (name, _) -> median (rate_values name rounds)) entries) /. 1e3);
    ("sim_vmops", geomean (List.map (fun (name, _) -> median (values ("vmops." ^ name) rounds)) entries));
  ]
