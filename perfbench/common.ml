(* What the three workloads share: the designs, input generation, the
   round loop, latency statistics and the result record. *)

open Timeprint

(* every design is the daemon's default generator at its default seed,
   so [load name=N scheme=random m=M] builds the same encoding the
   benchmark abstracts its signals with *)
let design_seed = 0x7155
let load_params m = Printf.sprintf "scheme=random m=%d" m

type design = { name : string; enc : Encoding.t; session : Plan.session }

(* encoding generation, pack compile, pack-backed session, and the
   session's MITM tables forced in full (the triple half is lazy until
   the first k >= 5 probe), so no set-up work leaks into timed rounds *)
let build_design ?tr ~name m =
  let enc =
    Tracer.span tr "encoding.build" (fun () ->
        Encoding.random_constrained_auto ~m ~seed:design_seed ())
  in
  let pack = Tracer.span tr "pack.compile" (fun () -> Pack.compile enc) in
  let session = Plan.session ~pack enc in
  Tracer.span tr "mitm.table" (fun () ->
      let table = Plan.session_table session in
      if Combinatorial_reconstruct.feasible enc ~k:5 then begin
        let tp, k = Oracle.abstract enc [ 0; 1; 2; 3; 4 ] in
        ignore (Combinatorial_reconstruct.first ~table enc (Log_entry.make ~tp ~k))
      end);
  { name; enc; session }

let entry_of enc s =
  let tp, k = Oracle.abstract enc (Signal.changes s) in
  Log_entry.make ~tp ~k

let shuffle rs a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* the round's random state: a pure function of the seed, the round
   and a per-stream tag, so inputs never depend on timing *)
let rng ~seed ~round tag = Random.State.make [| seed; round; tag |]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

(* where each reported percentile lands: per operation kind, its share
   of the samples and its latency range, and which kinds hold the
   samples just below and above each percentile's rank; a percentile
   between two kinds would swing with their mix *)
let describe_percentiles ~label samples pcts =
  let a = Array.of_list samples in
  Array.sort (fun (_, x) (_, y) -> compare x y) a;
  let n = Array.length a in
  let kinds = List.sort_uniq compare (List.map fst samples) in
  List.iter
    (fun k ->
      let xs =
        Array.of_list
          (List.filter_map (fun (k', x) -> if k = k' then Some x else None) samples)
      in
      Array.sort compare xs;
      Printf.eprintf "%s: %-10s %5.1f%%  p10 %.6f  p50 %.6f  p90 %.6f s\n" label k
        (100. *. float_of_int (Array.length xs) /. float_of_int n)
        (percentile xs 10.) (percentile xs 50.) (percentile xs 90.))
    kinds;
  List.iter
    (fun p ->
      let r = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      let r = max 0 (min (n - 1) r) in
      let at d = fst a.(max 0 (min (n - 1) (r + d))) in
      let w = max 1 (n / 400) in
      Printf.eprintf
        "%s: p%g = %.6f s, rank %d of %d, kind %s (neighbours at -/+0.25%%: %s / %s)\n%!"
        label p (snd a.(r)) (r + 1) n (at 0) (at (-w)) (at w))
    pcts

let self_peak_rss_mb () = Harness.peak_rss_mb (Unix.getpid ())

(* set-up repeated [reps] times; the median time and the last result *)
let timed_setup ~reps f =
  let rec go i acc last =
    if i = reps then begin
      Printf.eprintf "setup: %s s\n%!"
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") acc));
      (median acc, Option.get last)
    end
    else
      let t0 = Tracer.now () in
      let v = f () in
      go (i + 1) ((Tracer.now () -. t0) :: acc) (Some v)
  in
  go 0 [] None

type outcome = {
  attempted : int;
  failed : int;
  setup_s : float;
  busy_s : float;  (** time spent inside timed operations *)
  ops : int;
  entries : int;
  latencies : (string * float) list;  (** (operation kind, seconds) *)
  tail_pct : float;
  peak_rss_mb : float;
  rounds : int;
  per_layer : (string * float * string) list;  (** trace runs only *)
}

(* whole rounds until [seconds] of timed work are done (one round when
   [seconds <= 0]); the failure share is therefore the same in every
   run *)
let run_rounds ~seconds f =
  let rec go r busy =
    let b = f r in
    let busy = busy +. b in
    if busy >= seconds then (r + 1, busy) else go (r + 1) busy
  in
  go 0 0.

let say fmt = Printf.eprintf (fmt ^^ "\n%!")
