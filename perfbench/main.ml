(* The benchmark's entry point: one workload per run, or the self-test.

     main.exe (triage|forensics|service) --seed N --seconds S
       --trace 0|1 --daemon PATH [--short]
     main.exe selftest --daemon PATH

   The last line of standard output is the result object; progress,
   the named failures, layer shares and tracing overhead go to
   standard error. A wrong answer, or a failure outside the named set,
   exits 1 without a result. *)

open Timeprint

type opts = {
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable daemon : string;
  mutable short : bool;
}

(* the daemon's sockets and the span files *)
let out_dir = ".perfbench-run"

let usage () =
  prerr_endline
    "usage: main.exe (triage|forensics|service|selftest) [--seed N] \
     [--seconds S] [--trace 0|1] --daemon PATH [--short]";
  exit 2

let parse args =
  let o = { seed = 1; seconds = 10.; trace = false; daemon = ""; short = false } in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n ->
            o.seed <- n;
            go rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s ->
            o.seconds <- s;
            go rest
        | None -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--daemon" :: v :: rest ->
        o.daemon <- v;
        go rest
    | "--short" :: rest ->
        o.short <- true;
        go rest
    | _ -> usage ()
  in
  go args;
  if o.daemon = "" then usage ();
  o

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let emit_result (r : Common.outcome) ~trace =
  let lat = Array.of_list (List.map snd r.latencies) in
  Array.sort compare lat;
  let busy = r.busy_s in
  let metrics =
    if trace then r.per_layer
    else
      [
        ("setup_s", r.setup_s, "s");
        ("entries_per_s", float_of_int r.entries /. busy, "1/s");
        ("ops_per_s", float_of_int r.ops /. busy, "1/s");
        ("latency_p50_s", Common.percentile lat 50., "s");
        ("latency_tail_s", Common.percentile lat r.tail_pct, "s");
        ("peak_rss_mb", r.peak_rss_mb, "MiB");
      ]
  in
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
         metrics)
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.attempted r.failed body

let layer_shares t =
  let wall = Tracer.wall t in
  List.iter
    (fun name ->
      Common.say "  %-26s %6.1f%% of the %.2f s traced pass" name
        (100. *. Tracer.total t name /. wall)
        wall)
    (Tracer.span_names t)

(* the oracle against Logger.abstract and Property.eval on random
   signals, across the three designs and the property shapes *)
let selftest_oracle () =
  let rs = Random.State.make [| 0x5e1f |] in
  List.iter
    (fun m ->
      let enc = Encoding.random_constrained_auto ~m ~seed:Common.design_seed () in
      for _ = 1 to 400 do
        let k = Random.State.int rs (min m 20) in
        let s = Signal.random rs ~m ~k in
        let tp, k' = Oracle.abstract enc (Signal.changes s) in
        let e = Logger.abstract enc s in
        if k' <> e.k || not (Tp_bitvec.Bitvec.equal tp e.tp) then
          Oracle.wrong "oracle abstraction differs from Logger.abstract at m=%d" m;
        let lo = Random.State.int rs m in
        let props =
          [
            Oracle.P2;
            Oracle.Deadline
              { count = Random.State.int rs (k + 2); before = Random.State.int rs (m + 1) };
            Oracle.Window { lo; hi = lo + Random.State.int rs (m - lo) };
          ]
        in
        List.iter
          (fun p ->
            let own = Oracle.holds p (Signal.changes s) in
            if own <> Property.eval (Oracle.to_property p) s then
              Oracle.wrong "oracle property evaluation differs from Property.eval")
          props
      done)
    [ 64; 128; 256 ];
  Common.say "selftest: oracle agrees with Logger.abstract and Property.eval"

let run_workload name o =
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tracer = if o.trace then Some (Tracer.create ()) else None in
  let run =
    match name with
    | "triage" -> Triage.run
    | "forensics" -> Forensics.run
    | "service" -> Wl_service.run
    | _ -> usage ()
  in
  let r =
    run ~seed:o.seed ~seconds:(if o.short then 0. else o.seconds) ~short:o.short
      ~trace:tracer ~exe:o.daemon ~dir:out_dir
  in
  Common.say
    "%s: %d rounds, %d operations (%d failed), %.2f s timed, %d latency samples, tail p%g"
    name r.rounds r.attempted r.failed r.busy_s (List.length r.latencies) r.tail_pct;
  Common.describe_percentiles ~label:name r.latencies [ 50.; r.tail_pct ];
  Option.iter
    (fun t ->
      let file = Printf.sprintf "trace-%s-seed%d.json" name o.seed in
      let path = Filename.concat out_dir file in
      Tracer.write_json t path;
      Common.say "%s: layer shares (spans written to %s)" name path;
      layer_shares t)
    tracer;
  r

let () =
  (* a stopped run still stops its daemon: the error paths kill it *)
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle (fun _ -> raise (Harness.Daemon_error "interrupted"))))
    [ Sys.sigterm; Sys.sigint ];
  match Array.to_list Sys.argv with
  | _ :: "selftest" :: rest -> (
      let o = parse rest in
      try
        selftest_oracle ();
        List.iter
          (fun w ->
            o.short <- true;
            o.trace <- true;
            let r = run_workload w o in
            emit_result r ~trace:false;
            emit_result r ~trace:true)
          [ "triage"; "forensics"; "service" ];
        Common.say "selftest: all workloads passed their checks"
      with Oracle.Wrong msg | Harness.Daemon_error msg ->
        Common.say "selftest FAILED: %s" msg;
        exit 1)
  | _ :: name :: rest -> (
      let o = parse rest in
      match run_workload name o with
      | r -> emit_result r ~trace:o.trace
      | exception (Oracle.Wrong msg | Harness.Daemon_error msg) ->
          Common.say "%s: FAILED: %s" name msg;
          exit 1)
  | _ -> usage ()
