(* explore: bounded exhaustive DPOR (Par_explore.dispatch, one domain)
   over ascy_perf's 3-thread adversarial script, for a fixed subset of
   registry entries, under the mesi and then the flat coherence model.
   Under mesi the per-schedule Sim.create dominates; under flat the
   Explorer/Dpor/Scheduler bookkeeping and the oracles do.  Controlled
   schedules are model-invariant, so both models must explore exactly
   the same schedules and steps. *)

module Sct = Ascy_harness.Sct_run
module Explorer = Ascy_sct.Explorer
module Par = Ascy_sct.Par_explore
module Registry = Ascylib.Registry
module Sim = Ascy_mem.Sim
open Common

let subset = [ "ht-clht-lf"; "ll-harris-opt"; "bst-pathcas" ]
let probe_subset = [ "bst-pathcas" ]
let models = [ "mesi"; "flat" ]

(* Each model's share of a round repeats whole passes over the subset
   until it has run this long, so a fast model is still timed over a
   span long enough to measure. *)
let min_model_s = 1.0
let max_rounds = 1000

let spec name =
  Sct.mk_spec ~name ~initial:[ 2 ]
    ~script:
      [|
        [| (Sct.Insert, 1); (Sct.Remove, 2); (Sct.Insert, 3) |];
        [| (Sct.Insert, 1); (Sct.Insert, 2); (Sct.Remove, 3) |];
        [| (Sct.Remove, 1); (Sct.Insert, 2) |];
      |]
    ()

type outcome = {
  name : string;
  schedules : int;
  steps : int;
  complete : bool;
  violation : string option;
}

let explore_one ?(domains = 1) model name =
  let maker = (Registry.by_name name).Registry.maker in
  let spec = spec name in
  let m = Sim.model_of_name model in
  let r =
    Span.with_ ("sct.dispatch." ^ model) (fun () ->
        Par.dispatch ~mode:Explorer.Dpor ~bounds:Explorer.default_bounds ~domains
          ~run:(fun ~sched ->
            Span.with_ ("sct_run.run_once." ^ model) (fun () -> Sct.run_once ~model:m maker spec ~sched))
          ())
  in
  {
    name;
    schedules = r.Explorer.schedules;
    steps = r.Explorer.steps;
    complete = r.Explorer.complete;
    violation = Option.map (fun f -> f.Explorer.f_desc) r.Explorer.failure;
  }

(** The explore checks: every exploration completes with no violation,
    and each entry's schedule and step counts equal the reference
    ([reference], from another model or round).  Returns the number of
    schedules that hit a violation and every failed check. *)
let check ~reference outcomes =
  let failed = List.length (List.filter (fun o -> o.violation <> None) outcomes) in
  let problems =
    List.concat_map
      (fun o ->
        (match o.violation with Some v -> [ Printf.sprintf "%s: violation: %s" o.name v ] | None -> [])
        @ (if o.complete || o.violation <> None then []
           else [ Printf.sprintf "%s: exploration hit its bound" o.name ])
        @
        match List.find_opt (fun r -> r.name = o.name) reference with
        | Some r when r.schedules <> o.schedules || r.steps <> o.steps ->
            [
              Printf.sprintf "%s: %d schedules / %d steps, reference %d / %d" o.name o.schedules o.steps
                r.schedules r.steps;
            ]
        | _ -> [])
      outcomes
  in
  (failed, problems)

(* Whole passes over [names] under [model] until [min_model_s] elapsed. *)
let passes ?domains ~model names =
  (* the flat passes must not pay for collecting the mesi tag arrays *)
  Gc.full_major ();
  let t0 = now () in
  let rec go acc =
    let pass = Span.with_ ("sct.pass." ^ model) (fun () -> List.map (explore_one ?domains model) names) in
    let acc = pass :: acc in
    if now () -. t0 >= min_model_s then (List.rev acc, now () -. t0) else go acc
  in
  go []

let create_reps = 5

let round ~seed:_ ~scale () =
  let t0 = now () in
  let names = match scale with Full -> subset | Probe -> probe_subset in
  (* set-up: the specs, the entries' makers and one simulator session
     per model — what an exploration builds before its first schedule *)
  let creates =
    List.map
      (fun model ->
        let m = Sim.model_of_name model in
        let p = (spec (List.hd names)).Sct.platform in
        ( model,
          median
            (List.init create_reps (fun _ ->
                 snd
                   (timed (fun () ->
                        Span.with_ ("sim.create." ^ model) (fun () ->
                            ignore (Sim.create ~model:m ~platform:p ~nthreads:3 ()))))))) )
      models
  in
  let (), spec_s =
    timed (fun () -> List.iter (fun n -> ignore (spec n, (Registry.by_name n).Registry.maker)) names)
  in
  let runs = List.map (fun model -> (model, passes ~model names)) models in
  let all = List.concat_map (fun (_, (ps, _)) -> List.concat ps) runs in
  let reference = List.concat (fst (List.assoc (List.hd models) runs)) in
  let failed, problems = check ~reference all in
  let count f = List.fold_left (fun a o -> a + f o) 0 in
  let one_pass = List.hd (fst (List.assoc "flat" runs)) in
  {
    setup_s = spec_s +. sum (List.map snd creates);
    wall_s = now () -. t0;
    attempted = count (fun o -> o.schedules) all;
    failed;
    problems;
    rates =
      List.map (fun (model, (ps, dt)) -> (model, float_of_int (count (fun o -> o.schedules) (List.concat ps)) /. dt)) runs;
    layer =
      List.map (fun (model, c) -> ("create_ms." ^ model, c *. 1e3)) creates
      @ [
          ("schedules", float_of_int (count (fun o -> o.schedules) one_pass));
          ("steps", float_of_int (count (fun o -> o.steps) one_pass));
        ];
    virt =
      String.concat "; "
        (List.map (fun o -> Printf.sprintf "%s %d/%d" o.name o.schedules o.steps) one_pass);
  }

(** The same exploration under flat at two domains. *)
let parallel ~scale =
  let names = match scale with Full -> subset | Probe -> probe_subset in
  let ps, dt = passes ~domains:2 ~model:"flat" names in
  let all = List.concat ps in
  (* the partitioned explorer may visit more schedules than the
     sequential one, so only completeness and verdicts are checked *)
  let failed, problems = check ~reference:[] all in
  let n = List.fold_left (fun a o -> a + o.schedules) 0 all in
  ([ ("sct.par_sched_per_s_2d", float_of_int n /. dt) ], problems, n, failed)

let per_layer =
  [
    ("sim.create_ms.mesi", "ms");
    ("sim.create_ms.flat", "ms");
    ("sct_run.run_once_us.mesi", "us");
    ("sct_run.run_once_us.flat", "us");
    ("sct.schedules", "count");
    ("sct.steps", "count");
    ("sct.explorer_self_s", "s");
    ("sct.par_sched_per_s_2d", "1/s");
    ("explore_mesi_sched_per_s", "1/s");
    ("explore_flat_sched_per_s", "1/s");
  ]

let layer_metrics rounds spans =
  let med k = median (values k rounds) in
  List.concat_map
    (fun model ->
      [
        ("sim.create_ms." ^ model, med ("create_ms." ^ model));
        ("sct_run.run_once_us." ^ model, median (Span.durations ("sct_run.run_once." ^ model) spans) *. 1e6);
        ("explore_" ^ model ^ "_sched_per_s", median (rate_values model rounds));
      ])
    models
  @ [
      ("sct.schedules", med "schedules");
      ("sct.steps", med "steps");
      ( "sct.explorer_self_s",
        sum (Span.self_times "sct.dispatch.flat" spans)
        /. float_of_int (max 1 (List.length (Span.named "sct.pass.flat" spans))) );
    ]
