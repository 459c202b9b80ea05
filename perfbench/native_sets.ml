(* native-sets: mixed search/insert/remove operations on Mem_native, the
   only workload where the cell primitives and the algorithms run on
   real hardware.  Paper's high-contention setting: 512 keys prefilled
   out of 1024, 25% updates.  Each trial builds a fresh structure, runs a
   fixed number of operations per domain (closed loop: a domain issues
   its next operation when the previous one returns) and checks the
   structure against the benchmark's own per-key ledger. *)

module W = Ascy_harness.Workload
module X = Ascy_util.Xorshift
module Registry = Ascylib.Registry
module Mem = Ascy_mem.Mem_native
open Common

let workload = W.high

(* Operations per domain per trial, fixed per entry and sized so that a
   one-domain trial lasts roughly 0.1 s on a 2-vCPU host. *)
let entries =
  [
    ("ht-clht-lb", 300_000);  (* locks *)
    ("ll-lazy", 12_000);  (* locks *)
    ("sl-fraser", 100_000);  (* lock-free *)
    ("bst-natarajan", 150_000);  (* lock-free *)
    ("bst-pathcas", 60_000);  (* k-CAS *)
  ]

let domain_counts = [ 1; 2 ]

(* Each round spawns one domain per two-domain trial; the cap keeps the
   run's domain lifetimes (at most [max_rounds * 5] + 1) under
   Mem_native's 512 thread ids, which are never recycled. *)
let max_rounds = 64

(** The ledger: [init.(k)] is 1 iff the prefill inserted [k];
    [delta.(d).(k)] is domain [d]'s successful inserts minus successful
    removes of [k], counted from the operations' return values. *)
type ledger = { init : int array; delta : int array array }

let expected ledger k = Array.fold_left (fun acc d -> acc + d.(k)) ledger.init.(k) ledger.delta

(** [check_ledger ledger ~member ~size ~validate] — the ledger must
    match membership as [search] sees it key by key, agree with [size],
    and the structure must validate.  Returns the number of keys that
    broke the ledger and a description of every failed check. *)
let check_ledger ledger ~member ~size ~validate =
  let bad = ref [] in
  let total = ref 0 in
  for k = 1 to Array.length ledger.init - 1 do
    let want = expected ledger k in
    total := !total + want;
    let got = if member k then 1 else 0 in
    if want <> got then bad := Printf.sprintf "key %d: ledger %d, search %d" k want got :: !bad
  done;
  let problems =
    (match !bad with
    | [] -> []
    | l -> [ Printf.sprintf "%d key(s) break the ledger: %s" (List.length l) (List.hd l) ])
    @ (if size = !total then [] else [ Printf.sprintf "size %d but ledger total %d" size !total ])
    @ match validate with Ok () -> [] | Error e -> [ "validate: " ^ e ]
  in
  (List.length !bad, problems)

type trial = {
  rate : float;  (** operations per wall second *)
  setup : float;
  attempted : int;
  failed : int;
  upd_att : int;
  upd_ok : int;
  problems : string list;
}

(* [tamper] alters the ledger before the check; the benchmark's own
   tests use it to show that the check catches a miscount. *)
let trial ?(tamper = ignore) ~seed ~ops name nd =
  let (module A : Ascy_core.Set_intf.MAKER) = (Registry.by_name name).Registry.maker in
  let module M = A (Mem) in
  let tag = Printf.sprintf "algo.%s.%dd" name nd in
  let kr = workload.W.key_range in
  let ledger = { init = Array.make (kr + 1) 0; delta = Array.init nd (fun _ -> Array.make (kr + 1) 0) } in
  let upd_att = Array.make nd 0 and upd_ok = Array.make nd 0 and done_ops = Array.make nd 0 in
  let died = Array.make nd None in
  let go = Atomic.make false and ready = Atomic.make 0 in
  let body t tid () =
    let rng = X.create ((seed * 7919) + (tid * 104729) + 13) in
    let d = ledger.delta.(tid) in
    let att = ref 0 and ok = ref 0 and n = ref 0 in
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    (try
       Span.with_ (tag ^ ".ops") (fun () ->
           for _ = 1 to ops do
             let k = W.pick_key workload rng in
             (match W.pick_op workload rng with
             | W.Search -> ignore (M.search t k)
             | W.Insert ->
                 incr att;
                 if M.insert t k tid then begin
                   incr ok;
                   d.(k) <- d.(k) + 1
                 end
             | W.Remove ->
                 incr att;
                 if M.remove t k then begin
                   incr ok;
                   d.(k) <- d.(k) - 1
                 end);
             M.op_done t;
             incr n
           done)
     with e -> died.(tid) <- Some e);
    upd_att.(tid) <- !att;
    upd_ok.(tid) <- !ok;
    done_ops.(tid) <- !n
  in
  (* start every trial from a collected heap, so that no trial pays for
     the garbage of the one before *)
  Gc.full_major ();
  let t, setup =
    timed (fun () ->
        Span.with_ (tag ^ ".setup") (fun () ->
            let t = M.create ~hint:workload.W.initial () in
            let rng0 = X.create ((seed * 31) + 7) in
            let filled = ref 0 in
            while !filled < workload.W.initial do
              let k = W.pick_key workload rng0 in
              if M.insert t k 0 then begin
                incr filled;
                ledger.init.(k) <- 1
              end
            done;
            t))
  in
  (* the helper domain's start-up is left out of set-up: how soon the OS
     runs a new thread is not the program's cost *)
  let helpers =
    Span.with_ (tag ^ ".spawn") (fun () ->
        let helpers = List.init (nd - 1) (fun i -> Domain.spawn (body t (i + 1))) in
        while Atomic.get ready < nd - 1 do
          Domain.cpu_relax ()
        done;
        helpers)
  in
  let t0 = now () in
  Atomic.set go true;
  body t 0 ();
  List.iter Domain.join helpers;
  let wall = now () -. t0 in
  tamper ledger;
  let broken, check_problems =
    Span.with_ (tag ^ ".check") (fun () ->
        check_ledger ledger ~member:(fun k -> M.search t k <> None) ~size:(M.size t)
          ~validate:(M.validate t))
  in
  let deaths =
    List.filter_map
      (fun e -> Option.map (fun e -> Printf.sprintf "%s: domain died: %s" tag (Printexc.to_string e)) e)
      (Array.to_list died)
  in
  let completed = Array.fold_left ( + ) 0 done_ops in
  {
    rate = float_of_int completed /. wall;
    setup;
    attempted = nd * ops;
    failed = (nd * ops) - completed + broken;
    upd_att = Array.fold_left ( + ) 0 upd_att;
    upd_ok = Array.fold_left ( + ) 0 upd_ok;
    problems = deaths @ List.map (fun p -> tag ^ ": " ^ p) check_problems;
  }

let round ~seed ~scale () =
  let t0 = now () in
  let trials =
    List.concat_map
      (fun (name, ops) ->
        let ops = match scale with Full -> ops | Probe -> max 1 (ops / 20) in
        List.map (fun nd -> (name, nd, trial ~seed ~ops name nd)) domain_counts)
      entries
  in
  let per_entry f name =
    float_of_int (isum (List.filter_map (fun (n, _, tr) -> if n = name then Some (f tr) else None) trials))
  in
  {
    setup_s = sum (List.map (fun (_, _, tr) -> tr.setup) trials);
    wall_s = now () -. t0;
    attempted = isum (List.map (fun (_, _, tr) -> tr.attempted) trials);
    failed = isum (List.map (fun (_, _, tr) -> tr.failed) trials);
    problems = List.concat_map (fun (_, _, tr) -> tr.problems) trials;
    (* two-domain rates swing several-fold between trials on a 2-vCPU
       host (a stop-the-world minor GC waits for a descheduled domain),
       so only one-domain rates make the end-to-end throughput *)
    rates = List.filter_map (fun (name, nd, tr) -> if nd = 1 then Some (name ^ "/1d", tr.rate) else None) trials;
    layer =
      List.filter_map (fun (name, nd, tr) -> if nd = 2 then Some (name ^ "/2d", tr.rate) else None) trials
      @ List.concat_map
        (fun (name, _) ->
          [
            ("upd_att." ^ name, per_entry (fun tr -> tr.upd_att) name);
            ("upd_ok." ^ name, per_entry (fun tr -> tr.upd_ok) name);
          ])
        entries;
    virt = "";
  }

(* ---- Mem_native cell primitives, timed on their own ---------------- *)

let reps = 5

let ns_per_op ~n f =
  median
    (List.init reps (fun _ ->
         let (), dt = timed f in
         dt /. float_of_int n *. 1e9))

(** Nanoseconds per call of each cell primitive, plus [make] with two
    domains allocating at once (which contends on the global cell-id
    counter).  Returns the metrics and any failed sanity check. *)
let primitives ~scale =
  let n = match scale with Full -> 2_000_000 | Probe -> 200_000 in
  let problems = ref [] in
  let expect what got want =
    if got <> want then problems := Printf.sprintf "%s: got %d, want %d" what got want :: !problems
  in
  let span name f = Span.with_ ("mem_native." ^ name) f in
  let make =
    span "make" (fun () -> ns_per_op ~n (fun () ->
        for i = 1 to n do ignore (Sys.opaque_identity (Mem.make () i)) done))
  in
  let r = Mem.make () 0 in
  let get =
    span "get" (fun () -> ns_per_op ~n (fun () ->
        let acc = ref 0 in
        for _ = 1 to n do acc := !acc + Mem.get r done;
        expect "get" !acc 0))
  in
  let set = span "set" (fun () -> ns_per_op ~n (fun () -> for i = 1 to n do Mem.set r i done)) in
  expect "set" (Mem.get r) n;
  let cas =
    span "cas" (fun () -> ns_per_op ~n (fun () ->
        Mem.set r 0;
        let ok = ref 0 in
        for i = 1 to n do if Mem.cas r (i - 1) i then incr ok done;
        expect "cas successes" !ok n))
  in
  let faa =
    span "faa" (fun () -> ns_per_op ~n (fun () ->
        Mem.set r 0;
        for _ = 1 to n do ignore (Mem.fetch_and_add r 1) done;
        expect "fetch_and_add" (Mem.get r) n))
  in
  let a = Mem.make () 0 and b = Mem.make () 0 in
  let kcas2 =
    span "kcas2" (fun () -> ns_per_op ~n (fun () ->
        Mem.set a 0;
        Mem.set b 0;
        let ok = ref 0 in
        for i = 1 to n do
          if Mem.kcas [ Mem.kcas_op a ~expected:(i - 1) ~desired:i; Mem.kcas_op b ~expected:(i - 1) ~desired:i ]
          then incr ok
        done;
        expect "kcas successes" !ok n))
  in
  (* two domains allocating at once: one spawned domain for all reps *)
  let start = Atomic.make 0 and finished = Atomic.make 0 in
  let make_loop () = for i = 1 to n do ignore (Sys.opaque_identity (Mem.make () i)) done in
  let helper =
    Domain.spawn (fun () ->
        for rep = 1 to reps do
          while Atomic.get start < rep do Domain.cpu_relax () done;
          make_loop ();
          Atomic.incr finished
        done)
  in
  let make_2d =
    span "make_2d" (fun () ->
        median
          (List.init reps (fun rep ->
               let t0 = now () in
               Atomic.set start (rep + 1);
               make_loop ();
               while Atomic.get finished < rep + 1 do Domain.cpu_relax () done;
               (now () -. t0) /. float_of_int n *. 1e9)))
  in
  Domain.join helper;
  ( [
      ("mem_native.make_ns", make);
      ("mem_native.get_ns", get);
      ("mem_native.set_ns", set);
      ("mem_native.cas_ns", cas);
      ("mem_native.faa_ns", faa);
      ("mem_native.kcas2_ns", kcas2);
      ("mem_native.make_ns_2d", make_2d);
    ],
    List.rev !problems )

let per_layer =
  List.map (fun m -> (m, "ns"))
    [ "mem_native.make_ns"; "mem_native.get_ns"; "mem_native.set_ns"; "mem_native.cas_ns";
      "mem_native.faa_ns"; "mem_native.kcas2_ns"; "mem_native.make_ns_2d" ]
  @ List.concat_map
      (fun (name, _) ->
        [
          (Printf.sprintf "algo.%s.mops_1d" name, "Mops/s");
          (Printf.sprintf "algo.%s.mops_2d" name, "Mops/s");
          (Printf.sprintf "algo.%s.update_success" name, "ratio");
        ])
      entries
  @ [ ("native_mops_1d", "Mops/s"); ("native_mops_2d", "Mops/s") ]

let mops rounds name nd =
  let key = Printf.sprintf "%s/%dd" name nd in
  median (if nd = 1 then rate_values key rounds else values key rounds) /. 1e6

let layer_metrics rounds _spans =
  List.concat_map
    (fun (name, _) ->
      [
        (Printf.sprintf "algo.%s.mops_1d" name, mops rounds name 1);
        (Printf.sprintf "algo.%s.mops_2d" name, mops rounds name 2);
        ( Printf.sprintf "algo.%s.update_success" name,
          sum (values ("upd_ok." ^ name) rounds) /. sum (values ("upd_att." ^ name) rounds) );
      ])
    entries
  @ List.map
      (fun nd ->
        (Printf.sprintf "native_mops_%dd" nd, geomean (List.map (fun (name, _) -> mops rounds name nd) entries)))
      domain_counts
