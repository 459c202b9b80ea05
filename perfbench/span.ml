(* Spans recorded by the benchmark around its calls into the program's
   layers.  Kept in memory while the traced run goes on and written as
   Chrome trace-event JSON at exit.  Off (one branch per call) in
   untraced runs. *)

type t = {
  id : int;
  parent : int;  (** 0 = root *)
  name : string;
  tid : int;  (** recording domain *)
  t0 : float;
  t1 : float;
  round : int;
}

let on = ref false
let round = ref 0
let next_id = Atomic.make 1
let lock = Mutex.create ()
let spans : t list ref = ref []
let nspans = ref 0
let parent_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)

let record s =
  Mutex.lock lock;
  spans := s :: !spans;
  incr nspans;
  Mutex.unlock lock

(** [with_ name f] runs [f], recording a span named [name] when tracing
    is on.  Spans opened inside [f] on the same domain are its children. *)
let with_ name f =
  if not !on then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get parent_key in
    Domain.DLS.set parent_key id;
    let round = !round in
    let t0 = Common.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Common.now () in
        Domain.DLS.set parent_key parent;
        record { id; parent; name; tid = (Domain.self () :> int); t0; t1; round })
      f
  end

(** Spans recorded after [mark] (a value of {!count}). *)
let count () = !nspans

let since mark =
  Mutex.lock lock;
  let l = List.filteri (fun i _ -> i < !nspans - mark) !spans in
  Mutex.unlock lock;
  l

let dur s = s.t1 -. s.t0
let named name l = List.filter (fun s -> s.name = name) l
let durations name l = List.map dur (named name l)

(** Self time of the spans named [name]: their duration minus the part
    covered by their direct children. *)
let self_times name l =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.replace children s.parent (dur s +. try Hashtbl.find children s.parent with Not_found -> 0.))
    l;
  List.map (fun s -> dur s -. try Hashtbl.find children s.id with Not_found -> 0.) (named name l)

let write_chrome path =
  let all = List.rev !spans in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%a,\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"round\":%d}}"
        (fun b n -> Ascy_util.Json.escape_string b n) s.name s.tid
        ((s.t0 -. base) *. 1e6)
        (dur s *. 1e6) s.id s.parent s.round)
    all;
  Buffer.add_string b "]}\n";
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc b)
