(* The benchmark's own answer oracle. It re-derives everything it checks
   from the design's timestamp columns and the generating signals, and
   never calls Logger.abstract or Property.eval, so a fault in those
   cannot hide a wrong answer. The self-test compares it with them on
   random signals. *)

open Timeprint
module Bv = Tp_bitvec.Bitvec

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

(* the properties the workloads assume or check, evaluated here in a few
   lines of their own *)
type prop =
  | P2  (** two changes in consecutive cycles somewhere *)
  | Deadline of { count : int; before : int }
      (** at least [count] changes strictly before cycle [before] *)
  | Window of { lo : int; hi : int }  (** changes only in [lo..hi] *)

let to_property = function
  | P2 -> Property.p2
  | Deadline { count; before } -> Property.deadline ~count ~before
  | Window { lo; hi } -> Property.window ~lo ~hi

let holds prop changes =
  match prop with
  | P2 ->
      let rec adj = function
        | a :: (b :: _ as rest) -> b = a + 1 || adj rest
        | _ -> false
      in
      adj changes
  | Deadline { count; before } ->
      List.length (List.filter (fun c -> c < before) changes) >= count
  | Window { lo; hi } -> List.for_all (fun c -> lo <= c && c <= hi) changes

(* XOR of the timestamp columns at the change positions, and their count *)
let abstract enc changes =
  let tp = Bv.create (Encoding.b enc) in
  List.iter (fun c -> Bv.xor_in_place tp (Encoding.timestamp enc c)) changes;
  (tp, List.length changes)

let show s = Signal.to_string s

(* the witness explains the logged entry exactly *)
let explains enc (e : Log_entry.t) s =
  let tp, k = abstract enc (Signal.changes s) in
  if k <> e.k || not (Bv.equal tp e.tp) then
    wrong "witness %s re-abstracts to (%s, %d), logged (%s, %d)" (show s)
      (Bv.to_string tp) k (Bv.to_string e.tp) e.k

(* a clean answer: valid, and the generating signal itself whenever the
   encoding's LI depth makes the preimage a singleton (2k <= d) *)
let clean enc ~gen e s =
  explains enc e s;
  if 2 * e.Log_entry.k <= Encoding.depth enc && not (Signal.equal s gen) then
    wrong "k=%d <= d/2 but witness %s differs from the generating %s" e.k
      (show s) (show gen)

(* a [Repaired w] answer: right k, TP at most [w] bits from the logged
   one, and [w] no larger than the flips actually injected *)
let repaired enc (e : Log_entry.t) ~flips ~w s =
  let tp, k = abstract enc (Signal.changes s) in
  let dist = Bv.popcount (Bv.logxor tp e.tp) in
  if k <> e.k then wrong "repaired witness has k=%d, logged %d" k e.k;
  if dist > w then wrong "repaired witness is %d bits off, claimed %d" dist w;
  if w > flips then wrong "repair weight %d exceeds the %d injected flips" w flips

let satisfies assume s =
  let ch = Signal.changes s in
  List.iter
    (fun p ->
      if not (holds p ch) then
        wrong "witness %s violates an assumed property" (show s))
    assume

(* a Check verdict never contradicts the generating signal, which is a
   reconstruction that satisfies the assumptions *)
let check_verdict prop ~gen verdict =
  let g = holds prop (Signal.changes gen) in
  match verdict with
  | `Mixed -> ()
  | `Holds_in_all when g -> ()
  | `Violated_in_all when not g -> ()
  | `Holds_in_all | `Violated_in_all | `Vacuous ->
      wrong "check verdict contradicts the generating signal %s" (show gen)
  | `Unknown -> assert false

(* Enumerate: distinct, valid, assumption-satisfying witnesses *)
let enumeration enc e ~assume signals =
  List.iter
    (fun s ->
      explains enc e s;
      satisfies assume s)
    signals;
  let sorted = List.sort_uniq Signal.compare signals in
  if List.length sorted <> List.length signals then
    wrong "enumeration returned a duplicate witness"

let count_agrees ~enumerated ~complete (n, exactness) =
  let exact = exactness = `Exact in
  if n <> enumerated || exact <> complete then
    wrong "count %d (%s) disagrees with enumeration of %d (complete=%b)" n
      (if exact then "exact" else "lower bound")
      enumerated complete
