(* The benchmark: runs one named workload for a given number of seconds,
   checks its outputs, and prints every end-to-end metric (untraced run)
   or every per-layer metric (traced run) as the last line of stdout:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    [--trace-out FILE] *)

module J = Ascy_util.Json
open Common

type workload = {
  name : string;
  round : seed:int -> scale:scale -> unit -> round;
  max_rounds : int;
  per_layer : (string * string) list;
  layer_metrics : round list -> Span.t list -> (string * float) list;
  extras : seed:int -> scale:scale -> (string * float) list * string list * int * int;
      (** per-layer probes timed once after the rounds: metrics,
          problems, operations attempted and failed *)
}

let workloads =
  [
    {
      name = "native-sets";
      round = Native_sets.round;
      max_rounds = Native_sets.max_rounds;
      per_layer = Native_sets.per_layer;
      layer_metrics = Native_sets.layer_metrics;
      extras =
        (fun ~seed:_ ~scale ->
          let m, p = Native_sets.primitives ~scale in
          (m, p, 0, 0));
    };
    {
      name = "sim-figure";
      round = Sim_figure.round;
      max_rounds = Sim_figure.max_rounds;
      per_layer = Sim_figure.per_layer;
      layer_metrics = Sim_figure.layer_metrics;
      extras =
        (fun ~seed ~scale:_ ->
          let m, p, n = Sim_figure.history_check ~seed in
          (m, p, n, 0));
    };
    {
      name = "explore";
      round = Explore.round;
      max_rounds = Explore.max_rounds;
      per_layer = Explore.per_layer;
      layer_metrics = Explore.layer_metrics;
      extras = (fun ~seed:_ ~scale -> Explore.parallel ~scale);
    };
    {
      name = "kv-service";
      round = Kv_service.round;
      max_rounds = Kv_service.max_rounds;
      per_layer = Kv_service.per_layer;
      layer_metrics = Kv_service.layer_metrics;
      extras = (fun ~seed:_ ~scale:_ -> ([], [], 0, 0));
    };
  ]

let end_to_end = [ ("throughput", "1/s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]
let overhead = ("trace.overhead_pct", "%")

(* Whole rounds until [seconds] have passed (at least [min_rounds]).  In
   a traced run the odd rounds are traced and the even ones after the
   first (a warm-up) are not, so the two give the tracing overhead under
   the same conditions. *)
let rounds w ~seed ~seconds ~traced =
  let min_rounds = if traced then 3 else 1 in
  let t_end = now () +. seconds in
  let rec go i acc =
    Span.on := traced && i land 1 = 1;
    Span.round := i;
    let r = w.round ~seed ~scale:Full () in
    Span.on := false;
    Printf.printf "round %d: %.3f s (setup %.4f s), %d attempted, %d failed, per s:%s%s\n%!" i r.wall_s
      r.setup_s r.attempted r.failed
      (String.concat "" (List.map (fun (c, v) -> Printf.sprintf " %s=%.4g" c v) r.rates))
      (String.concat "" (List.map (fun p -> "\n  CHECK FAILED: " ^ p) r.problems));
    let acc = r :: acc in
    if i + 1 >= w.max_rounds || (i + 1 >= min_rounds && now () >= t_end) then List.rev acc
    else go (i + 1) acc
  in
  go 0 []

let tally rounds = (isum (List.map (fun r -> r.attempted) rounds), isum (List.map (fun r -> r.failed) rounds))

let run ~workload:w ~seed ~seconds ~traced ~trace_out =
  let mark = Span.count () in
  let rs = rounds w ~seed ~seconds ~traced in
  let problems = ref (List.concat_map (fun r -> r.problems) rs @ virt_problems rs) in
  let attempted, failed = tally rs in
  let attempted = ref attempted and failed = ref failed in
  let metrics =
    if not traced then
      let configs = List.map fst (List.hd rs).rates in
      [
        ("throughput", geomean (List.map (fun c -> median (rate_values c rs)) configs));
        ("setup_s", median (List.map (fun r -> r.setup_s) rs));
        ("peak_rss_mb", peak_rss_mb ());
      ]
    else begin
      let own = w.layer_metrics rs (Span.since mark) in
      let walls traced =
        List.filteri (fun i _ -> i > 0 && i land 1 = if traced then 1 else 0) (List.map (fun r -> r.wall_s) rs)
      in
      let ovh = 100. *. ((median (walls true) /. median (walls false)) -. 1.) in
      let extras ~scale w =
        Span.on := true;
        let m, p, a, f = w.extras ~seed ~scale in
        Span.on := false;
        problems := !problems @ p;
        attempted := !attempted + a;
        failed := !failed + f;
        m
      in
      let own_extras = extras ~scale:Full w in
      (* layers this workload does not reach are measured by one small
         round of the workload that does *)
      let probes =
        List.concat_map
          (fun o ->
            if o.name = w.name then []
            else begin
              let mark = Span.count () in
              Span.on := true;
              let r = o.round ~seed ~scale:Probe () in
              Span.on := false;
              problems := !problems @ r.problems;
              attempted := !attempted + r.attempted;
              failed := !failed + r.failed;
              let m = o.layer_metrics [ r ] (Span.since mark) in
              m @ extras ~scale:Probe o
            end)
          workloads
      in
      Option.iter
        (fun path ->
          Span.write_chrome path;
          Printf.printf "trace: %d spans written to %s\n" (Span.count ()) path)
        trace_out;
      (fst overhead, ovh) :: (own @ own_extras @ probes)
    end
  in
  let wanted = if traced then overhead :: List.concat_map (fun w -> w.per_layer) workloads else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name metrics with
          | Some v when Float.is_finite v -> v
          | Some v ->
              problems := !problems @ [ Printf.sprintf "metric %s is %f" name v ];
              0.
          | None ->
              problems := !problems @ [ "metric missing: " ^ name ];
              0.
        in
        (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
      wanted
  in
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) !problems;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (!problems = []));
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("metrics", J.Obj metrics);
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and trace_out = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE Chrome trace output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S (have: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  | Some w when !trace = 0 || !trace = 1 ->
      run ~workload:w ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~trace_out:!trace_out
  | Some _ ->
      prerr_endline "--trace takes 0 or 1";
      exit 2
