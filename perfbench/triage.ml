(* Workload [triage]: whole-log triage through a pack-backed session and
   the emit-callback stream, repair budget 1, two jobs. One round
   streams 47 captured logs over three designs. An operation is one
   log stream; its latency is the time to triage that whole log.
   [attempted] and [failed] count entries, since an entry is what can
   fail. *)

open Timeprint
open Common

type shape = {
  m : int;
  logs : int;  (** logs per round *)
  per_k : int;  (** entries per log at each k in 0..kmax *)
  kmax : int;
  budget : int;  (** conflict budget of each stream *)
  flips : int;  (** entries per round with one flipped TP bit *)
}

(* A round sorts into three tiers of log latency. The two m=64 logs,
   136 entries each and most of them past MITM range, take 1.6-7 s
   (mostly 3-5 s) in the shared batch solver. The three named m=128
   logs take 1.3-2.5 s each, nearly all of it one fixed entry running
   out of its conflict budget; an m=64 log that dips among them only
   moves the tail by one rank within their tier. The 42 MITM-only logs
   take well under a millisecond each; there are that many so that the median, in the middle of the
   m=256 ones, rests on over a hundred samples a run. The tail percentile
   (see [tail_pct]) falls in the middle of the named tier, whose logs do
   the same work in every round and run. Every log holds the same number
   of entries at each k, so runs differ only in the signals drawn, not
   in how many hard entries they hold. *)
let shapes =
  [
    { m = 64; logs = 2; per_k = 8; kmax = 16; budget = 100_000; flips = 6 };
    { m = 128; logs = 5; per_k = 5; kmax = 5; budget = 2_000; flips = 0 };
    { m = 256; logs = 40; per_k = 5; kmax = 5; budget = 2_000; flips = 0 };
  ]

(* 3.5 of the 47 logs of a round lie above it, so it sits 1.5 logs per
   round into the named tier from either side; in a run of three rounds
   (141 logs) it keeps ten samples beyond it *)
let tail_pct = 92.5

(* The named failing operations: one fixed k=6 entry in each of the
   first three m=128 logs of every round. The stream's fast path prices
   MITM against the flat SAT baseline and sends them to SAT, which runs
   out of its 2 000-conflict budget on each. They are draws 0, 2 and 3
   of a fixed seed, so every run holds the same ones; draw 1 is decided
   within the budget in a fraction of the time, and would leave its log
   outside the named tier. *)
let named_seed = 0x6b6
let named_logs = 3

let named_entries enc =
  let rs = Random.State.make [| named_seed |] in
  let draws = Array.init 4 (fun _ -> Signal.random rs ~m:(Encoding.m enc) ~k:6) in
  [| draws.(0); draws.(2); draws.(3) |]

let make_logs ~seed ~round ~short (d : design) =
  let sh = List.find (fun sh -> sh.m = Encoding.m d.enc) shapes in
  let m = sh.m in
  let rs = rng ~seed ~round m in
  let nlogs = if short then 1 else sh.logs in
  let logs =
    List.init nlogs (fun j ->
        let len = sh.per_k * (sh.kmax + 1) in
        let gens =
          shuffle rs (Array.init len (fun i -> Signal.random rs ~m ~k:(i / sh.per_k)))
        in
        (* a named entry goes a quarter into each of the first
           [named_logs] m=128 logs *)
        let gens, named =
          if m <> 128 || j >= named_logs then (gens, Array.make len false)
          else
            let p = len / 4 in
            let fixed = (named_entries d.enc).(j) in
            ( Array.init (len + 1) (fun i ->
                  if i < p then gens.(i) else if i = p then fixed else gens.(i - 1)),
              Array.init (len + 1) (fun i -> i = p) )
        in
        let n = Array.length gens in
        {
          Layers.design = d;
          budget = sh.budget;
          entries = Array.map (entry_of d.enc) gens;
          gens;
          flips = Array.make n 0;
          named;
        })
  in
  (* one flipped TP bit in [flips] distinct entries across the round,
     all at k <= 6: at k >= 7 nearly every TP has some witness, so a
     flip there would never reach the repair ladder *)
  let nflips = if short then min sh.flips 2 else sh.flips in
  let placed = ref 0 in
  let logs_a = Array.of_list logs in
  while !placed < nflips do
    let l = logs_a.(Random.State.int rs nlogs) in
    let i = Random.State.int rs (Array.length l.entries) in
    if l.flips.(i) = 0 && l.entries.(i).Log_entry.k <= 6 then begin
      l.flips.(i) <- 1;
      let bit = Random.State.int rs (Encoding.b d.enc) in
      l.entries.(i) <- Layers.flip_bit l.entries.(i) bit;
      incr placed
    end
  done;
  logs

let describe_failure ~log (l : Layers.log) i =
  let m = Encoding.m l.design.enc and k = l.entries.(i).Log_entry.k in
  say
    "triage: named failure log %d (m=%d) entry %d k=%d: unknown. Planner misroute: the \
     stream fast path sends k=%d to SAT because MITM is priced %.1f bits \
     against the flat %.0f-bit SAT baseline; SAT ran out of its %d-conflict \
     budget"
    log m i k k (Engine.mitm_cost_bits ~m ~k) Engine.sat_cost_baseline l.budget

let run ~seed ~seconds ~short ~trace ~exe ~dir =
  let setup_s, designs =
    timed_setup ~reps:(if short then 1 else 3) (fun () ->
        List.map (fun sh -> build_design ~name:(Printf.sprintf "d%d" sh.m) sh.m) shapes)
  in
  let attempted = ref 0 and failed = ref 0 and ops = ref 0 in
  let latencies = ref [] in
  let round0 = ref [] in
  let busy_round0 = ref 0. in
  let rounds, busy_s =
    run_rounds ~seconds (fun round ->
        (* MITM-only logs first and the m=64 logs last, on a heap with no
           major-GC work left over from the last round or from input
           generation: a log then pays for the garbage of the logs
           before it in the same round only, and the named logs never
           for the m=64 ones, whose allocation varies with the signals
           a seed draws *)
        let logs = List.concat_map (make_logs ~seed ~round ~short) (List.rev designs) in
        Gc.full_major ();
        let busy = ref 0. in
        let results =
          List.mapi
            (fun j (l : Layers.log) ->
              let t0 = Tracer.now () in
              let res = Layers.stream l l.entries in
              let dt = Tracer.now () -. t0 in
              busy := !busy +. dt;
              let kind =
                if Array.exists Fun.id l.named then "m128-named"
                else Printf.sprintf "m%d" (Encoding.m l.design.enc)
              in
              latencies := (kind, dt) :: !latencies;
              incr ops;
              Array.iteri
                (fun i r ->
                  incr attempted;
                  match Layers.check l i r with
                  | `Ok -> ()
                  | `Failed ->
                      incr failed;
                      if round = 0 then describe_failure ~log:j l i)
                res;
              res)
            logs
        in
        if round = 0 then begin
          round0 := List.combine logs results;
          busy_round0 := !busy
        end;
        !busy)
  in
  let per_layer =
    match trace with
    | None -> []
    | Some t ->
        let logs = List.map fst !round0 in
        let traced = Layers.measure t ~exe ~dir ~seed ~sat_queries:true logs in
        List.iter2
          (fun (_, untraced) traced ->
            Layers.same "triage stream" (Layers.lines untraced) (Layers.lines traced))
          !round0 traced;
        let traced_wall = Tracer.total t "plan.stream" in
        say "triage: tracing overhead %.3f (traced %.3f s / untraced %.3f s, round 0)"
          (traced_wall /. !busy_round0) traced_wall !busy_round0;
        Layers.values t
  in
  {
    attempted = !attempted;
    failed = !failed;
    setup_s;
    busy_s;
    ops = !ops;
    entries = !attempted;
    latencies = !latencies;
    tail_pct;
    peak_rss_mb = self_peak_rss_mb ();
    rounds;
    per_layer;
  }
