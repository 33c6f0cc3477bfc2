(* Workload [forensics]: pointed questions about single trace-cycles,
   asked through Query + Plan.run_in on a pack-backed m=64 session with
   P2 and Dk assumed. Every entry abstracts a signal that satisfies both,
   as verified properties do. An operation is one query.

   A round asks about one entry at each k in 9..12, so every run holds
   the same mix of k. k=8 is left out: its capped Enumerate/Count take
   about 2 s with a heavy tail, and a few such entries more or less
   decided how fast a whole run went. *)

open Timeprint
open Common

let m = 64
let ks = [ 9; 10; 11; 12 ]
let budget = 100_000
let cap = 10
let dk = Oracle.Deadline { count = 2; before = m / 2 }
let assume = [ Oracle.P2; dk ]

type question = {
  label : string;
  answer : Query.answer;
  prop : Oracle.prop option;  (** the property a [Check] asks about *)
}

type item = { gen : Signal.t; entry : Log_entry.t; questions : question list }

let rec satisfying rs k =
  let s = Signal.random rs ~m ~k in
  if List.for_all (fun p -> Oracle.holds p (Signal.changes s)) assume then s
  else satisfying rs k

let make_round ~seed ~round ~short (d : design) =
  let rs = rng ~seed ~round m in
  List.map
    (fun k ->
      let gen = satisfying rs k in
      let window () =
        let lo = Random.State.int rs (m / 2) in
        Oracle.Window { lo; hi = lo + (m / 2) - 1 }
      in
      let check p =
        { label = "check"; answer = Query.Check (Oracle.to_property p); prop = Some p }
      in
      {
        gen;
        entry = entry_of d.enc gen;
        questions =
          [
            { label = "first"; answer = Query.First; prop = None };
            {
              label = "enumerate";
              answer = Query.Enumerate { max_solutions = Some cap };
              prop = None;
            };
            { label = "count"; answer = Query.Count { max_solutions = Some cap }; prop = None };
            check (window ());
            check (window ());
            check (Oracle.Deadline { count = k / 2; before = m / 2 });
          ];
      })
    (if short then [ List.hd ks ] else ks)

let ask (d : design) it q =
  Plan.run_in d.session
    (Query.make
       ~assume:(List.map Oracle.to_property assume)
       ~conflict_budget:budget ~answer:q.answer d.enc it.entry)

let render outcomes =
  List.concat_map (Tp_service.Render.outcome_lines ~max_solutions:(Some cap)) outcomes

(* every answer against the oracle; Count is checked against the
   Enumerate of the same entry *)
let check (d : design) it outcomes =
  let enumerated = ref None in
  List.iter2
    (fun q (o : Engine.outcome) ->
      match (q.answer, o) with
      | Query.First, Engine.Verdict (`Signal s) ->
          Oracle.explains d.enc it.entry s;
          Oracle.satisfies assume s
      | Query.Enumerate _, Engine.Enumeration { signals; complete } ->
          Oracle.enumeration d.enc it.entry ~assume signals;
          if not (List.exists (Signal.equal it.gen) signals) && complete then
            Oracle.wrong "complete enumeration misses the generating signal";
          enumerated := Some (List.length signals, complete)
      | Query.Count _, Engine.Count (n, exactness) -> (
          match !enumerated with
          | Some (e, complete) ->
              Oracle.count_agrees ~enumerated:e ~complete (n, exactness)
          | None -> assert false)
      | Query.Check _, Engine.Check v when v <> `Unknown ->
          Oracle.check_verdict (Option.get q.prop) ~gen:it.gen v
      | _, _ ->
          Oracle.wrong "%s on k=%d: %s" q.label it.entry.Log_entry.k
            (String.concat " / " (render [ o ])))
    it.questions outcomes

let log_of (d : design) items =
  let gens = Array.of_list (List.map (fun it -> it.gen) items) in
  {
    Layers.design = d;
    budget;
    entries = Array.of_list (List.map (fun it -> it.entry) items);
    gens;
    flips = Array.make (Array.length gens) 0;
    named = Array.make (Array.length gens) false;
  }

let run ~seed ~seconds ~short ~trace ~exe ~dir =
  let setup_s, d =
    timed_setup ~reps:(if short then 1 else 9) (fun () -> build_design ~name:"d64" m)
  in
  let attempted = ref 0 and entries = ref 0 in
  let latencies = ref [] in
  let round0 = ref [] and busy_round0 = ref 0. in
  let rounds, busy_s =
    run_rounds ~seconds (fun round ->
        let items = make_round ~seed ~round ~short d in
        let busy = ref 0. in
        let answered =
          List.map
            (fun it ->
              let outcomes =
                List.map
                  (fun q ->
                    let t0 = Tracer.now () in
                    let o, _ = ask d it q in
                    let dt = Tracer.now () -. t0 in
                    busy := !busy +. dt;
                    latencies := (q.label, dt) :: !latencies;
                    incr attempted;
                    o)
                  it.questions
              in
              incr entries;
              check d it outcomes;
              (it, outcomes))
            items
        in
        if round = 0 then begin
          round0 := answered;
          busy_round0 := !busy
        end;
        !busy)
  in
  let per_layer =
    match trace with
    | None -> []
    | Some t ->
        let tr = Some t in
        (* the same questions again, each planner call in a span *)
        List.iteri
          (fun req (it, untraced) ->
            let traced =
              List.map
                (fun q ->
                  let t0 = Tracer.now () in
                  let o, report =
                    Tracer.span ~req tr "plan.run_in" (fun () -> ask d it q)
                  in
                  if report.Plan.chosen = "sat" then begin
                    Tracer.add tr "sat.query_s" (Tracer.now () -. t0);
                    Layers.add_report_stats tr report
                  end;
                  o)
                it.questions
            in
            Layers.same "forensics answers" (render untraced) (render traced))
          !round0;
        let traced_wall = Tracer.total t "plan.run_in" in
        say "forensics: tracing overhead %.3f (traced %.3f s / untraced %.3f s)"
          (traced_wall /. !busy_round0) traced_wall !busy_round0;
        ignore
          (Layers.measure t ~exe ~dir ~seed ~sat_queries:false
             [ log_of d (List.map fst !round0) ]);
        Layers.values t
  in
  {
    attempted = !attempted;
    failed = 0;
    setup_s;
    busy_s;
    ops = !attempted;
    entries = !entries;
    latencies = !latencies;
    tail_pct = 85.;
    peak_rss_mb = self_peak_rss_mb ();
    rounds;
    per_layer;
  }
