(* The traced per-layer pass. Every workload runs it once, after its
   untraced rounds, over the designs and entries of its first round, so
   every per-layer figure is measured on that workload's own inputs.
   Each figure is the time spent in calls to one layer, taken from
   spans the benchmark puts around those calls, or a count of what the
   layer did. A layer that a workload's inputs never reach reads 0
   there. *)

open Timeprint
open Common

type log = {
  design : design;
  budget : int;  (** conflict budget of the stream *)
  entries : Log_entry.t array;
  gens : Signal.t array;  (** the generating signals *)
  flips : int array;  (** TP bits flipped into each entry after logging *)
  named : bool array;  (** entries of the named misroute set *)
}

(* One stream result against the oracle: [`Ok], or [`Failed] for an
   undecided entry of the named set; anything else raises. *)
let check log i ((verdict, health, _) : Tp_service.Render.triage) =
  let enc = log.design.enc and e = log.entries.(i) in
  match (verdict, health) with
  | `Signal s, Sat_reconstruct.Clean ->
      if log.flips.(i) = 0 then Oracle.clean enc ~gen:log.gens.(i) e s
      else Oracle.explains enc e s;
      `Ok
  | `Signal s, Sat_reconstruct.Repaired w ->
      Oracle.repaired enc e ~flips:log.flips.(i) ~w s;
      `Ok
  | `Unknown, _ when log.named.(i) -> `Failed
  | `Unknown, _ ->
      Oracle.wrong "m=%d entry %d (k=%d) undecided outside the named set"
        (Encoding.m enc) i e.Log_entry.k
  | `Unsat, _ | `Signal _, Sat_reconstruct.Quarantined ->
      Oracle.wrong "m=%d entry %d (k=%d, %d flips) quarantined"
        (Encoding.m enc) i e.Log_entry.k log.flips.(i)

let stream ?(jobs = 2) log entries =
  let out = Array.make (Array.length entries) None in
  Plan.run_stream_emit ~conflict_budget:log.budget ~repair:1 ~jobs
    log.design.session (Array.to_list entries) ~emit:(fun i r -> out.(i) <- Some r);
  Array.map Option.get out

let lines results = Array.to_list (Array.mapi Tp_service.Render.entry_line results)

let sub log idx =
  {
    log with
    entries = Array.map (fun i -> log.entries.(i)) idx;
    gens = Array.map (fun i -> log.gens.(i)) idx;
    flips = Array.map (fun i -> log.flips.(i)) idx;
    named = Array.map (fun i -> log.named.(i)) idx;
  }

let indices p a =
  Array.of_list
    (List.filter_map Fun.id
       (Array.to_list (Array.mapi (fun i x -> if p x then Some i else None) a)))

let filter_idx p idx = Array.of_list (List.filter p (Array.to_list idx))

let first_n n a = Array.sub a 0 (min n (Array.length a))

let flip_bit (e : Log_entry.t) bit =
  let tp = Tp_bitvec.Bitvec.copy e.tp in
  Tp_bitvec.Bitvec.set tp bit (not (Tp_bitvec.Bitvec.get tp bit));
  Log_entry.make ~tp ~k:e.k

let same what a b =
  if a <> b then Oracle.wrong "%s: traced answers differ from untraced" what

let add_stats tr (st : Tp_sat.Solver.stats) =
  Tracer.add tr "sat.conflicts" (float_of_int st.conflicts);
  Tracer.add tr "sat.propagations" (float_of_int st.propagations);
  Tracer.add tr "sat.decisions" (float_of_int st.decisions)

let add_report_stats tr (r : Plan.report) =
  List.iter
    (fun (s : Engine.stage) -> Option.iter (add_stats tr) s.stats)
    r.stages

(* [measure] returns the full-stream results of every log, so a
   workload that streams can compare them with its untraced round *)
let measure t ~exe ~dir ~seed ~sat_queries logs =
  let tr = Some t in
  let designs =
    List.sort_uniq compare
      (List.map (fun l -> (l.design.name, Encoding.m l.design.enc)) logs)
  in
  (* the request-shaped probes below take each design's first log *)
  let firsts =
    List.map (fun (name, _) -> List.find (fun l -> l.design.name = name) logs) designs
  in
  let is_first l = List.memq l firsts in
  (* set-up layers, rebuilt from scratch *)
  List.iter (fun (name, m) -> ignore (build_design ?tr ~name m)) designs;
  (* presolve rank check over every entry *)
  List.iter
    (fun l ->
      let shared = Plan.session_shared l.design.session in
      Tracer.span tr "presolve.check" (fun () ->
          Array.iter
            (fun e ->
              if Presolve.refutes_with shared e then
                Tracer.add tr "presolve.refuted" 1.)
            l.entries))
    logs;
  let streamed =
    List.map
      (fun l ->
        let res = Tracer.span tr "plan.stream" (fun () -> stream l l.entries) in
        Array.iteri (fun i r -> ignore (check l i r)) res;
        Array.iter
          (fun (_, _, tag) ->
            match tag with
            | `Sat st ->
                Tracer.add tr "plan.sat_routed" 1.;
                add_stats tr st
            | `Mitm -> Tracer.add tr "mitm.entries" 1.
            | `Presolve -> ())
          res;
        res)
      logs
  in
  List.iter2
    (fun l res ->
      let enc = l.design.enc in
      let table = Plan.session_table l.design.session in
      (* the MITM probes the stream's fast path made, made directly *)
      Array.iteri
        (fun i (v, _, tag) ->
          if tag = `Mitm then
            let w =
              Tracer.span tr "mitm.probe" (fun () ->
                  Combinatorial_reconstruct.first ~table enc l.entries.(i))
            in
            match (w, v) with
            | Some s, `Signal s' when Signal.equal s s' -> ()
            | None, _ -> () (* no exact-k witness: the ladder took it *)
            | _ ->
                Oracle.wrong "m=%d entry %d: direct MITM probe differs"
                  (Encoding.m enc) i)
        res;
      (* the SAT residue alone, at the workload's jobs and at one *)
      let sat_idx =
        indices (fun (_, _, tag) -> match tag with `Sat _ -> true | _ -> false) res
      in
      if Array.length sat_idx > 0 then begin
        let expect = lines (Array.map (fun i -> res.(i)) sat_idx) in
        let r2 =
          Tracer.span tr "sat.residue" (fun () -> stream l (sub l sat_idx).entries)
        in
        same "SAT residue at jobs=2" expect (lines r2);
        let r1 =
          Tracer.span tr "parallel.residue_serial" (fun () ->
              stream ~jobs:1 l (sub l sat_idx).entries)
        in
        same "SAT residue at jobs=1" expect (lines r1)
      end;
      (* the corrupted sub-log alone; an m=64 log without corruption
         gets a one-bit-flipped copy of its first entries (wider designs
         are left out: there the ladder runs past any small budget) *)
      let bad = indices (fun f -> f > 0) l.flips in
      let repair_log =
        if Array.length bad > 0 then Some (sub l bad)
        else if Encoding.m enc <> 64 then None
        else
          let idx = first_n 8 (indices not l.named) in
          let s = sub l idx in
          let rs = rng ~seed ~round:(-1) (Encoding.m enc) in
          Some
            {
              s with
              entries =
                Array.map
                  (fun e -> flip_bit e (Random.State.int rs (Encoding.b enc)))
                  s.entries;
              flips = Array.make (Array.length idx) 1;
            }
      in
      Option.iter
        (fun rl ->
          let rr = Tracer.span tr "sat.repair" (fun () -> stream rl rl.entries) in
          Array.iteri (fun i r -> ignore (check rl i r)) rr)
        repair_log;
      (* planning alone, for every entry *)
      Tracer.span tr "plan.cost_estimate" (fun () ->
          Array.iter
            (fun e ->
              let q = Query.make ~answer:Query.First enc e in
              ignore (Plan.cost_estimate l.design.session q))
            l.entries);
      (* single SAT-routed queries through the planner *)
      if sat_queries && is_first l then
        Array.iter
          (fun i ->
            let q =
              Query.make ~conflict_budget:l.budget ~answer:Query.First enc l.entries.(i)
            in
            let t0 = Tracer.now () in
            let o, report = Plan.run_in l.design.session q in
            if report.Plan.chosen = "sat" then begin
              Tracer.add tr "sat.query_s" (Tracer.now () -. t0);
              add_report_stats tr report
            end;
            match o with
            | Engine.Verdict (`Signal s) -> Oracle.explains enc l.entries.(i) s
            | Engine.Verdict `Unknown when l.named.(i) -> ()
            | _ ->
                Oracle.wrong "m=%d entry %d: run_in First undecided"
                  (Encoding.m enc) i)
          (first_n 8
             (filter_idx (fun i -> not l.named.(i) && l.flips.(i) = 0) sat_idx)))
    logs streamed;
  (* the service core in-process: a first answer runs, the repeat is a
     cache hit (distinct entries only, so the first ask is never one) *)
  let svc = Tp_service.Service.create () in
  List.iter
    (fun l ->
      ignore (Tp_service.Service.load svc ~name:l.design.name l.design.enc);
      Array.iter
        (fun i ->
          let ask () =
            let t0 = Tracer.now () in
            match
              Tp_service.Service.reconstruct svc ~design:l.design.name
                ~conflict_budget:l.budget ~answer:Query.First l.entries.(i)
            with
            | Error e ->
                Oracle.wrong "in-process service: %s"
                  (Tp_service.Service.error_line e)
            | Ok r -> (r, Tracer.now () -. t0)
          in
          let r1, t1 = ask () in
          let r2, t2 = ask () in
          (match (r1.served, r2.served) with
          | `Ran _, `Cache ->
              Tracer.add tr "service.run_s" t1;
              Tracer.add tr "cache.hit_s" t2;
              Tracer.add tr "cache.hits" 1.
          | _ -> Oracle.wrong "in-process service: repeat query not served from cache");
          if r1.outcome <> r2.outcome then
            Oracle.wrong "cache served a different answer";
          match r1.outcome with
          | Engine.Verdict (`Signal s) -> Oracle.explains l.design.enc l.entries.(i) s
          | _ -> Oracle.wrong "in-process service: First undecided")
        (let seen = Hashtbl.create 16 in
         first_n 16
           (filter_idx
              (fun i ->
                let fresh = not (Hashtbl.mem seen l.entries.(i)) in
                Hashtbl.replace seen l.entries.(i) ();
                fresh && l.flips.(i) = 0 && not l.named.(i))
              (Array.init (Array.length l.entries) Fun.id))))
    firsts;
  (* the daemon: load round trips, stats round trips, stream requests *)
  Harness.with_daemon ~exe ~dir (fun d ->
      List.iter
        (fun (name, m) ->
          let r =
            Tracer.span tr "registry.load" (fun () ->
                Harness.request d
                  (Printf.sprintf "load name=%s %s" name (load_params m)))
          in
          if Harness.is_err r then Oracle.wrong "daemon load: %s" r.header)
        designs;
      for _ = 1 to 16 do
        let r = Tracer.span tr "wire.roundtrip" (fun () -> Harness.request d "stats") in
        if Harness.is_err r then Oracle.wrong "daemon stats: %s" r.header
      done;
      List.iter
        (fun l ->
          (* no conflict budget on the wire, so the named entries stay out *)
          let idx = first_n 16 (indices not l.named) in
          let s = sub l idx in
          let body = Array.to_list (Array.map Tp_service.Wire.render_entry s.entries) in
          let r =
            Tracer.span tr "stream.request" (fun () ->
                Harness.request d ~body
                  (Printf.sprintf "stream design=%s n=%d repair=1 jobs=2" l.design.name
                     (List.length body)))
          in
          if Harness.is_err r then Oracle.wrong "daemon stream: %s" r.header;
          let local =
            let out = Array.make (Array.length s.entries) None in
            Plan.run_stream_emit ~repair:1 ~jobs:2 l.design.session
              (Array.to_list s.entries) ~emit:(fun i r -> out.(i) <- Some r);
            Array.map Option.get out
          in
          Array.iteri (fun i r -> ignore (check s i r)) local;
          let c = Tp_service.Render.count (Array.to_list local) in
          same "daemon stream"
            (lines local @ [ Tp_service.Render.summary_line c ])
            r.payload)
        firsts);
  (* flows over the three pinned scenarios *)
  List.iter
    (fun (sc : Tp_flow.Scenario.t) ->
      let observed =
        List.map
          (fun (ch : Tp_flow.Flow.channel) ->
            let session = Plan.session ~pack:(Pack.compile ch.encoding) ch.encoding in
            Tracer.span tr "flow.observe" (fun () -> Tp_flow.Flow.observe session ch))
          sc.sc_channels
      in
      let st =
        Tracer.span tr "flow.stitch" (fun () ->
            Tp_flow.Flow.stitch observed sc.sc_templates)
      in
      match Tp_flow.Scenario.check sc st with
      | [] -> ()
      | m :: _ -> Oracle.wrong "flow %s: %s" sc.sc_name m)
    (Tp_flow.Scenario.all ());
  streamed

let metrics =
  [
    ("encoding.build_s", `Span "encoding.build", "s");
    ("pack.compile_s", `Span "pack.compile", "s");
    ("mitm.table_s", `Span "mitm.table", "s");
    ("registry.load_s", `Span "registry.load", "s");
    ("presolve.check_s", `Span "presolve.check", "s");
    ("presolve.refuted", `Counter "presolve.refuted", "count");
    ("mitm.probe_s", `Span "mitm.probe", "s");
    ("mitm.entries", `Counter "mitm.entries", "count");
    ("plan.sat_routed", `Counter "plan.sat_routed", "count");
    ("plan.cost_estimate_s", `Span "plan.cost_estimate", "s");
    ("sat.query_s", `Counter "sat.query_s", "s");
    ("sat.conflicts", `Counter "sat.conflicts", "count");
    ("sat.propagations", `Counter "sat.propagations", "count");
    ("sat.decisions", `Counter "sat.decisions", "count");
    ("sat.residue_s", `Span "sat.residue", "s");
    ("sat.repair_s", `Span "sat.repair", "s");
    ("parallel.residue_serial_s", `Span "parallel.residue_serial", "s");
    ("cache.hit_s", `Counter "cache.hit_s", "s");
    ("cache.hits", `Counter "cache.hits", "count");
    ("service.run_s", `Counter "service.run_s", "s");
    ("wire.roundtrip_s", `Span "wire.roundtrip", "s");
    ("stream.request_s", `Span "stream.request", "s");
    ("flow.observe_s", `Span "flow.observe", "s");
    ("flow.stitch_s", `Span "flow.stitch", "s");
  ]

let values t =
  List.map
    (fun (name, src, unit) ->
      let v =
        match src with `Span s -> Tracer.total t s | `Counter c -> Tracer.counter t c
      in
      (name, v, unit))
    metrics
