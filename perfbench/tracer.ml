(* Spans around the benchmark's calls into each layer, kept in memory
   and written as one JSON file when the run ends. A span has a name,
   a start, an end, the span that caused it and the request it belongs
   to; counters sit beside the spans under their own names. Everything
   here is only ever touched from the benchmark's main domain. *)

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** [-1] for a root span *)
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  mutable stack : int list;
  counters : (string, float) Hashtbl.t;
  origin : float;
}

let create () =
  {
    spans = [];
    next_id = 0;
    stack = [];
    counters = Hashtbl.create 16;
    origin = now ();
  }

(* [span tr name f] runs [f], recording a span when tracing is on; with
   [None] it is [f ()] and nothing else *)
let span ?(req = 0) tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = match t.stack with p :: _ -> p | [] -> -1 in
      t.stack <- id :: t.stack;
      let t0 = now () in
      let finish () =
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; req; parent; t0; t1 = now () } :: t.spans
      in
      Fun.protect ~finally:finish f

let add tr name v =
  match tr with
  | None -> ()
  | Some t ->
      Hashtbl.replace t.counters name
        (v +. Option.value (Hashtbl.find_opt t.counters name) ~default:0.)

let total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0. t.spans

let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.

(* from the first span's start to the last span's end *)
let wall t =
  match t.spans with
  | [] -> 0.
  | s :: _ ->
      List.fold_left (fun a s -> Float.max a s.t1) s.t1 t.spans
      -. List.fold_left (fun a s -> Float.min a s.t0) s.t0 t.spans

let span_names t =
  List.sort_uniq compare (List.map (fun s -> s.name) t.spans)

let write_json t path =
  let oc = open_out path in
  let spans = List.rev t.spans in
  Printf.fprintf oc "{\"spans\": [";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"name\": %S, \"req\": %d, \"parent\": %d, \
         \"start_s\": %.9f, \"end_s\": %.9f}"
        (if i = 0 then "" else ",")
        s.id s.name s.req s.parent (s.t0 -. t.origin) (s.t1 -. t.origin))
    spans;
  Printf.fprintf oc "\n], \"counters\": {";
  let cs =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters [])
  in
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "%s\n  %S: %.17g" (if i = 0 then "" else ",") k v)
    cs;
  Printf.fprintf oc "\n}}\n";
  close_out oc
