(* Drives a spawned timeprintd over one Unix-socket connection.

   The daemon serves one connection at a time, so the harness keeps a
   single connection and always uses it: every request is written in
   full, and every framed response is read to its last payload line
   before the next request goes out. It never hangs up on an unread
   response and never holds an idle connection open while another is
   waiting. A receive timeout turns a stalled daemon into an error
   instead of a hang. *)

type t = { pid : int; sock : string; ic : in_channel; oc : out_channel }

exception Daemon_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Daemon_error s)) fmt

let read_timeout_s = 120.

let kill_and_reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

type response = { header : string; payload : string list }

(* [ok k=v ... lines=N] then N payload lines, or one [err ...] line *)
let read_response t =
  let header =
    try input_line t.ic with
    | End_of_file -> fail "daemon closed the connection"
    | Sys_error e -> fail "reading a response: %s" e
  in
  if String.length header >= 4 && String.sub header 0 4 = "err " then
    { header; payload = [] }
  else
    let n =
      match
        List.find_map
          (fun tok ->
            match String.index_opt tok '=' with
            | Some i when String.sub tok 0 i = "lines" ->
                int_of_string_opt
                  (String.sub tok (i + 1) (String.length tok - i - 1))
            | _ -> None)
          (String.split_on_char ' ' header)
      with
      | Some n when String.length header >= 3 && String.sub header 0 3 = "ok " -> n
      | _ -> fail "garbled response header %S" header
    in
    let payload =
      List.init n (fun _ ->
          try input_line t.ic with
          | End_of_file -> fail "response truncated after %S" header
          | Sys_error e -> fail "reading a response: %s" e)
    in
    { header; payload }

let request t ?(body = []) line =
  (try
     output_string t.oc line;
     output_char t.oc '\n';
     List.iter
       (fun b ->
         output_string t.oc b;
         output_char t.oc '\n')
       body;
     flush t.oc
   with Sys_error e -> fail "sending %S: %s" line e);
  read_response t

let is_err r = String.length r.header >= 4 && String.sub r.header 0 4 = "err "

(* header field lookup: [field r "cached"] *)
let field r key =
  List.find_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i when String.sub tok 0 i = key ->
          Some (String.sub tok (i + 1) (String.length tok - i - 1))
      | _ -> None)
    (String.split_on_char ' ' r.header)

let started = ref 0

(* Spawn [exe] on a private socket under [dir] and return once [stats]
   answers on the connection the harness keeps. The daemon's own
   output goes to the benchmark's standard error, so the result line
   stays last on standard output. *)
let start ~exe ~dir ?(args = []) () =
  incr started;
  let name = Printf.sprintf "tpd-%d-%d.sock" (Unix.getpid ()) !started in
  let sock = Filename.concat dir name in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list ((exe :: args) @ [ "--socket"; sock ]))
      devnull Unix.stderr Unix.stderr
  in
  Unix.close devnull;
  let deadline = Tracer.now () +. 30. in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> fail "timeprintd exited during start-up");
        if Tracer.now () > deadline then begin
          kill_and_reap pid;
          fail "timeprintd did not open %s" sock
        end;
        Unix.sleepf 0.005;
        connect ()
  in
  let fd = connect () in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
  let t =
    { pid; sock; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  in
  (match request t "stats" with
  | r when is_err r -> fail "stats failed at start-up: %s" r.header
  | _ -> ()
  | exception e ->
      kill_and_reap pid;
      raise e);
  t

(* VmHWM of the daemon, in MiB *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> nan
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* [shutdown], read its reply, close, and require a zero exit *)
let stop t =
  let r = request t "shutdown" in
  if is_err r then fail "shutdown refused: %s" r.header;
  close_in_noerr t.ic;
  match Unix.waitpid [] t.pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> fail "timeprintd exited with code %d" c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      fail "timeprintd ended by signal %d" s

(* for error paths: make sure no daemon outlives the benchmark *)
let abort t =
  close_in_noerr t.ic;
  kill_and_reap t.pid;
  try Unix.unlink t.sock with Unix.Unix_error _ -> ()

let with_daemon ~exe ~dir ?args f =
  let t = start ~exe ~dir ?args () in
  match f t with
  | v ->
      stop t;
      v
  | exception e ->
      abort t;
      raise e
