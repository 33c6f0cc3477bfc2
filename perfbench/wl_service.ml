(* Workload [service]: one client, one connection, closed loop, against
   a spawned timeprintd that loads its designs by parameters. An
   operation is one request; its latency is the round trip from the
   first byte sent to the last payload line read. *)

open Timeprint
open Common
module Bv = Tp_bitvec.Bitvec

let daemon_args = [ "--registry-capacity"; "16" ]
let fresh_designs = [ ("a64", 64); ("b128", 128); ("c256", 256) ]
let hot_design = ("hot", 64)
let working_set = 48
let sat_budget = 100_000

(* requests per round, by kind; see the README for why these counts *)
let n_stats = 6
let n_hot = 80
let n_fresh = 22
let n_fresh_sat = 3
let n_streams = 8
let stream_len = 8

type kind = Stats | Hot | Fresh | Fresh_sat | Stream | Flow

let kind_name = function
  | Stats -> "stats"
  | Hot -> "hot"
  | Fresh -> "fresh"
  | Fresh_sat -> "fresh_sat"
  | Stream -> "stream"
  | Flow -> "flow"

type req = {
  kind : kind;
  line : string;
  body : string list;
  design : string;
  enc : Encoding.t option;
  gens : Signal.t list;  (** generating signals of the carried entries *)
  entries : Log_entry.t list;
  expect : string list option;  (** exact payload, for flows *)
}

let reconstruct_line design (e : Log_entry.t) =
  Printf.sprintf "reconstruct design=%s tp=%s k=%d first=1 budget=%d" design
    (Bv.to_string e.tp) e.k sat_budget

(* a scenario as the Flow_spec lines a client sends, with the payload
   the daemon must answer, derived in-process and held to the
   scenario's ground truth *)
let flow_request (sc : Tp_flow.Scenario.t) =
  let module S = Tp_flow.Flow_spec in
  let channels =
    List.mapi
      (fun i (ch : Tp_flow.Flow.channel) ->
        ( {
            S.cs_name = ch.name;
            cs_scheme = `Random;
            cs_m = Encoding.m ch.encoding;
            cs_b = Encoding.b ch.encoding;
            cs_seed = 41 + (7 * i);
            cs_depth = 4;
            cs_kmax = 2;
            cs_naive = Encoding.m ch.encoding;
            cs_options = [ Encoding.b ch.encoding ];
          },
          ch.entries ))
      sc.sc_channels
  in
  let spec =
    {
      S.sp_channels = channels;
      sp_templates = sc.sc_templates;
      sp_properties = [];
      sp_budget = None;
    }
  in
  let body = S.render spec in
  (match Result.bind (S.parse body) S.channels with
  | Ok chs
    when List.for_all2
           (fun (a : Tp_flow.Flow.channel) (b : Tp_flow.Flow.channel) ->
             Encoding.timestamps a.encoding = Encoding.timestamps b.encoding)
           chs sc.sc_channels ->
      ()
  | Ok _ -> Oracle.wrong "flow %s: the spec does not rebuild its channels" sc.sc_name
  | Error msg -> Oracle.wrong "flow %s: spec rejected: %s" sc.sc_name msg);
  let observed, stitched = Tp_flow.Scenario.reconstruct sc in
  (match Tp_flow.Scenario.check sc stitched with
  | [] -> ()
  | m :: _ -> Oracle.wrong "flow %s off its ground truth: %s" sc.sc_name m);
  let expect =
    List.map Tp_service.Render.flow_health_line observed
    @ List.map Tp_service.Render.flow_line stitched.flows
    @ [ Tp_service.Render.flow_summary_line stitched ]
  in
  {
    kind = Flow;
    line = Printf.sprintf "flow n=%d jobs=2" (List.length body);
    body;
    design = "";
    enc = None;
    gens = [];
    entries =
      List.concat_map (fun (ch : Tp_flow.Flow.channel) -> ch.entries) sc.sc_channels;
    expect = Some expect;
  }

let single kind design enc gen =
  let e = entry_of enc gen in
  {
    kind;
    line = reconstruct_line design e;
    body = [];
    design;
    enc = Some enc;
    gens = [ gen ];
    entries = [ e ];
    expect = None;
  }

let stats_req =
  {
    kind = Stats;
    line = "stats";
    body = [];
    design = "";
    enc = None;
    gens = [];
    entries = [];
    expect = None;
  }

type inputs = {
  encs : (string * Encoding.t) list;
  hot : Signal.t array;
  flows : req list;
}

let make_inputs ~seed =
  let encs =
    List.map
      (fun (name, m) ->
        (name, Encoding.random_constrained_auto ~m ~seed:design_seed ()))
      (fresh_designs @ [ hot_design ])
  in
  let hot_enc = List.assoc (fst hot_design) encs in
  let rs = rng ~seed ~round:(-1) 0 in
  (* distinct entries, k in 2..4, so the working set is exactly its size *)
  let seen = Hashtbl.create working_set in
  let rec draw acc n =
    if n = 0 then Array.of_list acc
    else
      let s = Signal.random rs ~m:64 ~k:(2 + Random.State.int rs 3) in
      let e = entry_of hot_enc s in
      if Hashtbl.mem seen e then draw acc n
      else begin
        Hashtbl.add seen e ();
        draw (s :: acc) (n - 1)
      end
  in
  let flows = List.map flow_request (Tp_flow.Scenario.all ()) in
  { encs; hot = draw [] working_set; flows }

let make_round ~seed ~round ~short inp =
  let rs = rng ~seed ~round 1 in
  let scale n = if short then max 1 (n / 8) else n in
  let enc name = List.assoc name inp.encs in
  let fresh i =
    let name, m = List.nth fresh_designs (i mod 3) in
    single Fresh name (enc name) (Signal.random rs ~m ~k:(2 + Random.State.int rs 4))
  in
  let stream i =
    let name, m = List.nth fresh_designs (i mod 3) in
    let gens =
      List.init stream_len (fun _ -> Signal.random rs ~m ~k:(Random.State.int rs 6))
    in
    let entries = List.map (entry_of (enc name)) gens in
    {
      kind = Stream;
      line = Printf.sprintf "stream design=%s n=%d repair=1 jobs=2" name stream_len;
      body = List.map Tp_service.Wire.render_entry entries;
      design = name;
      enc = Some (enc name);
      gens;
      entries;
      expect = None;
    }
  in
  let hot_name = fst hot_design in
  let reqs =
    List.concat
      [
        List.init (scale n_stats) (fun _ -> stats_req);
        List.init (scale n_hot) (fun _ ->
            let s = inp.hot.(Random.State.int rs working_set) in
            single Hot hot_name (enc hot_name) s);
        List.init (scale n_fresh) fresh;
        List.init (scale n_fresh_sat) (fun _ ->
            single Fresh_sat "a64" (enc "a64") (Signal.random rs ~m:64 ~k:10));
        List.init (scale n_streams) stream;
        inp.flows;
      ]
  in
  Array.to_list (shuffle rs (Array.of_list reqs))

(* the reply to one request against the oracle; [hits] is the number of
   cache-served replies so far, which the stats line must agree with *)
let check r (resp : Harness.response) ~seen ~hits =
  if Harness.is_err resp then Oracle.wrong "%s: %s" (kind_name r.kind) resp.header;
  let witness enc gen e line =
    match line with
    | "unknown" -> Oracle.wrong "%s: unknown" (kind_name r.kind)
    | "unsat" -> Oracle.wrong "%s: unsat on a clean entry" (kind_name r.kind)
    | l -> Oracle.clean enc ~gen e (Signal.of_string l)
  in
  match r.kind with
  | Stats -> (
      match
        List.find_map
          (fun l -> try Scanf.sscanf l "cache hits=%d" Option.some with _ -> None)
          resp.payload
      with
      | Some h when h = !hits -> ()
      | Some h ->
          Oracle.wrong "stats: cache hits=%d, %d replies served from cache" h !hits
      | None -> Oracle.wrong "stats: no cache line")
  | Hot | Fresh | Fresh_sat ->
      let e = List.hd r.entries in
      let cached = Harness.field resp "cached" = Some "1" in
      let key = (r.design, e) in
      if r.kind = Hot && not cached then
        Oracle.wrong "working-set request missed the cache";
      if cached && not (Hashtbl.mem seen key) then
        Oracle.wrong "first request served from cache";
      if cached then incr hits;
      Hashtbl.replace seen key ();
      (match resp.payload with
      | [ l ] -> witness (Option.get r.enc) (List.hd r.gens) e l
      | _ -> Oracle.wrong "reconstruct: %d payload lines" (List.length resp.payload))
  | Stream ->
      let n = List.length r.entries in
      if List.length resp.payload <> n + 1 then Oracle.wrong "stream: short response";
      List.iteri
        (fun i (gen, e) ->
          let l = List.nth resp.payload i in
          match
            Scanf.sscanf l "entry %d: clean  %s" (fun j s ->
                if j = i then Some s else None)
          with
          | Some s -> witness (Option.get r.enc) gen e s
          | None | (exception _) -> Oracle.wrong "stream: unexpected line %S" l)
        (List.combine r.gens r.entries);
      let summary = Printf.sprintf "%d clean, 0 repaired, 0 quarantined" n in
      if List.nth resp.payload n <> summary then
        Oracle.wrong "stream: summary %S" (List.nth resp.payload n)
  | Flow ->
      if Some resp.payload <> r.expect then
        Oracle.wrong "flow: reply differs from the in-process reconstruction"

let setup ~exe ~dir inp =
  let d = Harness.start ~exe ~dir ~args:daemon_args () in
  try
    List.iter
      (fun (name, m) ->
        let r =
          Harness.request d (Printf.sprintf "load name=%s %s" name (load_params m))
        in
        if Harness.is_err r then Oracle.wrong "load %s: %s" name r.header)
      (fresh_designs @ [ hot_design ]);
    let hot_enc = List.assoc (fst hot_design) inp.encs in
    (* fill the cache with the working set *)
    Array.iter
      (fun s ->
        let line = reconstruct_line (fst hot_design) (entry_of hot_enc s) in
        let r = Harness.request d line in
        if Harness.is_err r then Oracle.wrong "warm-up: %s" r.header)
      inp.hot;
    d
  with e ->
    Harness.abort d;
    raise e

let run ~seed ~seconds ~short ~trace ~exe ~dir =
  let inp = make_inputs ~seed in
  let reps = if short then 1 else 3 in
  let setup_times = ref [] in
  let rec set_up i =
    let t0 = Tracer.now () in
    let d = setup ~exe ~dir inp in
    setup_times := (Tracer.now () -. t0) :: !setup_times;
    if i + 1 < reps then begin
      Harness.stop d;
      set_up (i + 1)
    end
    else d
  in
  let d = set_up 0 in
  let fresh_state () =
    let seen = Hashtbl.create 256 in
    let hot_enc = List.assoc (fst hot_design) inp.encs in
    Array.iter
      (fun s -> Hashtbl.replace seen (fst hot_design, entry_of hot_enc s) ())
      inp.hot;
    (seen, ref 0)
  in
  let play ?tr d (seen, hits) reqs =
    let busy = ref 0. and lat = ref [] in
    let replies =
      List.mapi
        (fun req r ->
          let t0 = Tracer.now () in
          let resp =
            Tracer.span ~req tr ("service." ^ kind_name r.kind) (fun () ->
                Harness.request d ~body:r.body r.line)
          in
          let dt = Tracer.now () -. t0 in
          busy := !busy +. dt;
          lat := (kind_name r.kind, dt) :: !lat;
          check r resp ~seen ~hits;
          resp.payload)
        reqs
    in
    (!busy, !lat, replies)
  in
  let result =
    try
      let state = fresh_state () in
      let attempted = ref 0 and entries = ref 0 and latencies = ref [] in
      let round0 = ref ([], [], 0.) in
      let rounds, busy_s =
        run_rounds ~seconds (fun round ->
            let reqs = make_round ~seed ~round ~short inp in
            let busy, lat, replies = play d state reqs in
            attempted := !attempted + List.length reqs;
            entries :=
              List.fold_left (fun a r -> a + List.length r.entries) !entries reqs;
            latencies := lat @ !latencies;
            if round = 0 then round0 := (reqs, replies, busy);
            busy)
      in
      let rss = Harness.peak_rss_mb d.Harness.pid in
      Harness.stop d;
      (rounds, busy_s, !attempted, !entries, !latencies, rss, !round0)
    with e ->
      Harness.abort d;
      raise e
  in
  let ( rounds,
        busy_s,
        attempted,
        entries,
        latencies,
        peak_rss_mb,
        (reqs0, replies0, busy0) ) =
    result
  in
  let per_layer =
    match trace with
    | None -> []
    | Some t ->
        (* round 0 again on a daemon set up the same way, each request
           in a span: the replies must not change *)
        let d = setup ~exe ~dir inp in
        let busy, _, replies =
          try play ~tr:t d (fresh_state ()) reqs0
          with e ->
            Harness.abort d;
            raise e
        in
        Harness.stop d;
        Layers.same "service replies" replies0 replies;
        say "service: tracing overhead %.3f (traced %.3f s / untraced %.3f s, round 0)"
          (busy /. busy0) busy busy0;
        let logs =
          List.map
            (fun (name, m) ->
              let design = build_design ~name m in
              let mine =
                List.filter (fun r -> r.design = name && r.kind <> Hot) reqs0
              in
              let gens = Array.of_list (List.concat_map (fun r -> r.gens) mine) in
              let entries = Array.of_list (List.concat_map (fun r -> r.entries) mine) in
              {
                Layers.design;
                budget = sat_budget;
                entries;
                gens;
                flips = Array.make (Array.length gens) 0;
                named = Array.make (Array.length gens) false;
              })
            fresh_designs
        in
        ignore (Layers.measure t ~exe ~dir ~seed ~sat_queries:true logs);
        Layers.values t
  in
  {
    attempted;
    failed = 0;
    setup_s = median !setup_times;
    busy_s;
    ops = attempted;
    entries;
    latencies;
    tail_pct = 99.;
    peak_rss_mb;
    rounds;
    per_layer;
  }
