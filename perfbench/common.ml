(* Clocks, order statistics and the result record every workload fills. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean = function
  | [] -> nan
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs
let isum xs = List.fold_left ( + ) 0 xs

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

(** One round of a workload: a fixed set of operations, set up, run and
    checked.  [rates] gives work units per wall second for each of the
    workload's configurations; [layer] carries raw per-layer numbers
    that the workload's own [layer_metrics] folds across rounds. *)
type round = {
  setup_s : float;
  wall_s : float;
  attempted : int;
  failed : int;
  problems : string list;
  rates : (string * float) list;
  layer : (string * float) list;
  virt : string;  (** every virtual-clock output of the round, printed *)
}

let values key rounds = List.filter_map (fun r -> List.assoc_opt key r.layer) rounds

let rate_values key rounds = List.filter_map (fun r -> List.assoc_opt key r.rates) rounds

(** Rounds rerun the same inputs with the same seed, so their virtual
    outputs must be byte-identical. *)
let virt_problems rounds =
  match rounds with
  | [] -> []
  | r0 :: rest ->
      List.filter_map
        (fun r ->
          if r.virt = r0.virt then None
          else Some (Printf.sprintf "virtual outputs differ between rounds: %S vs %S" r0.virt r.virt))
        rest

type scale = Full | Probe
