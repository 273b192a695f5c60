(* Driving the real [clio_serve] binary: spawning and stopping it, and a
   single-threaded closed-loop load generator that multiplexes one Unix
   socket connection per client, each with one request in flight and no
   think time.  Frames are built and read with [Server.Protocol], the
   schema the server itself compiles against. *)

module P = Server.Protocol

let now = Unix.gettimeofday

(* --- files ------------------------------------------------------------ *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    mkdir_p dst;
    Array.iter
      (fun f -> copy_tree (Filename.concat src f) (Filename.concat dst f))
      (Sys.readdir src)
  end
  else write_file dst (read_file src)

(* --- server processes ------------------------------------------------- *)

(* The server binary sits beside this one in the build tree, as B19 finds
   it: _build/default/bench/e2e/clio_bench.exe → _build/default/bin. *)
let serve_exe () =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; Filename.parent_dir_name; "bin"; "clio_serve.exe" ]
  in
  if Sys.file_exists exe then exe
  else
    failwith
      (Printf.sprintf
         "server binary %s not found (build it: dune build ./bin/clio_serve.exe)"
         exe)

let server_flags = [ "--workers"; "2"; "--jobs"; "1"; "--queue"; "64" ]

type server = { pid : int; socket : string; spawned_at : float }

(* Every child still running when the benchmark exits, for any reason, is
   killed and reaped. *)
let live = ref []

let forget pid = live := List.filter (( <> ) pid) !live

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (waitpid pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ?store_dir ?log ~dir () =
  mkdir_p dir;
  (* relative, so the path stays far below the 108-byte sun_path limit *)
  let socket = Filename.concat dir "clio.sock" in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let opt flag = function None -> [] | Some v -> [ flag; v ] in
  let args =
    [ "clio_serve"; "serve"; "--socket"; socket ]
    @ server_flags @ opt "--store-dir" store_dir @ opt "--log" log
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile
      (Filename.concat dir "server.err")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let exe = serve_exe () in
  let spawned_at = now () in
  let pid = Unix.create_process exe (Array.of_list args) null null err in
  Unix.close null;
  Unix.close err;
  live := pid :: !live;
  { pid; socket; spawned_at }

(* SIGTERM and wait: the seconds until the server has drained, persisted
   (with [--store-dir]) and exited. *)
let terminate srv =
  let t0 = now () in
  Unix.kill srv.pid Sys.sigterm;
  let status = waitpid srv.pid in
  let dt = now () -. t0 in
  forget srv.pid;
  match status with
  | Unix.WEXITED 143 -> dt
  | Unix.WEXITED n -> failwith (Printf.sprintf "clio_serve exited %d on SIGTERM" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith (Printf.sprintf "clio_serve stopped by signal %d on SIGTERM" n)

let kill srv =
  Unix.kill srv.pid Sys.sigkill;
  ignore (waitpid srv.pid);
  forget srv.pid

(* Peak resident set of a live process, from /proc. *)
let vm_hwm_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* --- connections ------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; acc : Buffer.t; chunk : Bytes.t }

(* Connect, retrying while the server starts (or restores a store). *)
let connect srv =
  let deadline = now () +. 150. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX srv.socket) with
    | () -> { fd; acc = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
        | 0, _ -> ()
        | _ ->
            forget srv.pid;
            failwith "clio_serve exited during start-up (see its server.err)");
        if now () > deadline then failwith "clio_serve did not start listening";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send conn line =
  let b = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write conn.fd b !off (len - !off)
  done

(* One read; the complete lines it finished, oldest first. *)
let read_lines conn =
  let n = Unix.read conn.fd conn.chunk 0 (Bytes.length conn.chunk) in
  if n = 0 then failwith "clio_serve closed the connection";
  let lines = ref [] and start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get conn.chunk i = '\n' then begin
      Buffer.add_subbytes conn.acc conn.chunk !start (i - !start);
      lines := Buffer.contents conn.acc :: !lines;
      Buffer.clear conn.acc;
      start := i + 1
    end
  done;
  Buffer.add_subbytes conn.acc conn.chunk !start (n - !start);
  List.rev !lines

(* --- what a phase observed --------------------------------------------- *)

type obs = {
  mutable attempted : int;
  mutable ok : int;
  mutable errors : int;  (** error replies other than [overloaded] *)
  mutable overloads : int;
  mutable first_error : string option;
  latencies : (string, float list) Hashtbl.t;  (** verb → ms *)
  keep_traces : bool;
  mutable traced : (string * string * float) list;
      (** (trace id, verb, ms) of every reply, when [keep_traces] *)
  mutable cycles : ((int * int) * string list) list;
      (** completed cycles kept for checking: ((client, cycle), digests) *)
  mutable acked_inserts : int;
  rows : (string, int) Hashtbl.t;  (** largest evaluate count per [what] *)
  last_reply : P.result option array;
}

let obs ?(keep_traces = false) () =
  {
    keep_traces;
    attempted = 0;
    ok = 0;
    errors = 0;
    overloads = 0;
    first_error = None;
    latencies = Hashtbl.create 16;
    traced = [];
    cycles = [];
    acked_inserts = 0;
    rows = Hashtbl.create 4;
    last_reply = Array.make Script.clients None;
  }

let latencies o verb =
  Option.value ~default:[] (Hashtbl.find_opt o.latencies verb)

let trace_seq = ref 0

let record o ~verb ~trace ~ms (resp : P.response) =
  Hashtbl.replace o.latencies verb (ms :: latencies o verb);
  if o.keep_traces then o.traced <- (trace, verb, ms) :: o.traced;
  match resp.P.result with
  | Ok r ->
      o.ok <- o.ok + 1;
      (match r with
      | P.Inserted _ -> o.acked_inserts <- o.acked_inserts + 1
      | P.Evaluated e ->
          let key = P.what_name e.P.what ^ ".rows" in
          Hashtbl.replace o.rows key
            (max e.P.count (Option.value ~default:0 (Hashtbl.find_opt o.rows key)))
      | _ -> ());
      Some r
  | Error (P.Overloaded, _) ->
      o.overloads <- o.overloads + 1;
      None
  | Error (code, msg) ->
      o.errors <- o.errors + 1;
      if o.first_error = None then
        o.first_error <-
          Some (Printf.sprintf "%s: %s %s" verb (P.error_code_name code) msg);
      None

(* --- the closed loop --------------------------------------------------- *)

type client = {
  idx : int;
  conn : conn;
  mutable sid : string option;
  mutable cycle : int;
  mutable todo : P.request list;
  mutable digests : string list;  (** of the current cycle, newest first *)
  mutable pending : (P.request * string * float) option;
}

(* Run every client through its cycles until [until]: a client starts no
   request after the deadline (a cycle it is in the middle of stays
   unfinished) and stops once [script ~client ~cycle] returns [None].
   Cycles are numbered from [first]; the digests of each completed cycle
   satisfying [keep] are recorded.  [sids] presets the clients' sessions
   (restart cycles address restored sessions).  Returns the clients'
   sessions at the end. *)
let drive ?(first = 0) ?(keep = fun _ -> false) ?(until = infinity) ?sids o
    conns script =
  let clients =
    Array.mapi
      (fun idx conn ->
        {
          idx;
          conn;
          sid = Option.bind sids (fun a -> a.(idx));
          cycle = first;
          todo = [];
          digests = [];
          pending = None;
        })
      conns
  in
  let send_next c =
    match c.todo with
    | [] -> assert false
    | request :: rest ->
        c.todo <- rest;
        incr trace_seq;
        let trace = Printf.sprintf "c%d-%d" c.idx !trace_seq in
        let session =
          match request with P.Open_session _ -> None | _ -> c.sid
        in
        let line =
          P.encode_request
            { P.id = !trace_seq; session; request; trace_id = Some trace }
        in
        o.attempted <- o.attempted + 1;
        c.pending <- Some (request, trace, now ());
        send c.conn line
  in
  let advance c =
    if now () < until then
      if c.todo <> [] then send_next c
      else
        match script ~client:c.idx ~cycle:c.cycle with
        | None -> ()
        | Some requests ->
            c.todo <- requests;
            c.digests <- [];
            send_next c
  in
  let complete_cycle c =
    if keep c.cycle then
      o.cycles <- ((c.idx, c.cycle), List.rev c.digests) :: o.cycles;
    c.cycle <- c.cycle + 1
  in
  let on_reply c line =
    match c.pending with
    | None -> failwith "reply with no request in flight"
    | Some (request, trace, t0) ->
        let resp =
          match P.parse_response line with
          | Ok r -> r
          | Error msg -> failwith ("unparseable reply: " ^ msg)
        in
        let ms = (now () -. t0) *. 1000. in
        c.pending <- None;
        let verb = Server.Service.verb_name request in
        let result = record o ~verb ~trace ~ms resp in
        o.last_reply.(c.idx) <- result;
        (match result with
        | Some (P.Opened { session; _ }) -> c.sid <- Some session
        | Some (P.Evaluated e) -> c.digests <- e.P.digest :: c.digests
        | _ -> ());
        if request = P.Close_session then c.sid <- None;
        if c.todo = [] then complete_cycle c;
        advance c
  in
  Array.iter advance clients;
  let busy () = Array.exists (fun c -> c.pending <> None) clients in
  while busy () do
    let fds =
      Array.fold_left
        (fun acc c -> if c.pending <> None then c.conn.fd :: acc else acc)
        [] clients
    in
    match Unix.select fds [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        Array.iter
          (fun c ->
            if List.memq c.conn.fd ready then
              List.iter (on_reply c) (read_lines c.conn))
          clients
  done;
  Array.map (fun c -> c.sid) clients

(* One request, one reply, on one connection. *)
let call o conn ?session request =
  ignore
    (drive o [| conn |] ~sids:[| session |] (fun ~client:_ ~cycle ->
         if cycle = 0 then Some [ request ] else None));
  o.last_reply.(0)
