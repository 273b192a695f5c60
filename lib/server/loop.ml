module P = Protocol
module J = Obs.Json

type address = Unix_path of string | Tcp of int

type stop_reason = Drained | Interrupted of int

type config = {
  address : address;
  queue_capacity : int;
  max_frame : int;
  max_connections : int;
  workers : int;
}

let default_config address =
  {
    address;
    queue_capacity = 64;
    max_frame = 8 * 1024 * 1024;
    max_connections = 64;
    workers = 1;
  }

(* Per-connection transport state.  Replies are sequenced: every frame —
   dispatched request, parse error, overload — takes the connection's next
   sequence number when it arrives, and encoded replies are flushed into
   [outbuf] strictly in sequence order, so the wire order always matches
   submission order no matter which worker finishes first. *)
type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable outbuf : string;
  mutable closing : bool;  (** close once everything pending drains *)
  inbox : P.envelope Queue.t;  (** parsed frames awaiting dispatch *)
  mutable in_ring : bool;  (** queued in the admission ring *)
  mutable next_seq : int;  (** sequence number of the next frame *)
  mutable next_flush : int;  (** next sequence to flush into [outbuf] *)
  replies : (int, string) Hashtbl.t;  (** completed out-of-order replies *)
  mutable in_plane : int;  (** dispatched to a worker, reply not flushed *)
}

let listen_socket = function
  | Unix_path path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 16;
      fd
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen fd 16;
      fd

(* Split complete frames off the connection's input buffer. *)
let take_frames conn =
  let data = Buffer.contents conn.inbuf in
  let frames = ref [] and start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        frames := String.sub data !start (i - !start) :: !frames;
        start := i + 1
      end)
    data;
  Buffer.clear conn.inbuf;
  Buffer.add_substring conn.inbuf data !start (String.length data - !start);
  List.rev !frames

let run ?on_ready config service =
  let registry = Service.registry service in
  let telemetry = Service.telemetry service in
  let tlog level event fields = Telemetry.log telemetry level event fields in
  let lfd = listen_socket config.address in
  (* The self-pipe: workers write one byte per completed request, signal
     handlers one byte per signal, so the otherwise-indefinitely-blocked
     select below always wakes when there is something to do.  Non-blocking
     on both ends — a full pipe just means a wakeup is already pending. *)
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let wake_byte = Bytes.make 1 '!' in
  let wake () =
    try ignore (Unix.write wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()
  in
  (* [Some code] once a signal fired: the conventional exit code (130 for
     SIGINT, 143 for SIGTERM) the caller should exit with after the
     drain. *)
  let stop : int option ref = ref None in
  let prev_term =
    Sys.signal Sys.sigterm
      (Sys.Signal_handle
         (fun _ ->
           stop := Some 143;
           wake ()))
  and prev_int =
    Sys.signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           stop := Some 130;
           wake ()))
  and prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  (* The worker plane.  Completions cross back to this thread through
     [completions] (mutexed) and the self-pipe; [plane_total] is the
     loop's own count of dispatched-but-unflushed requests — the admission
     budget [queue_capacity] bounds inboxed + in-plane requests. *)
  let completions : (conn * int * string) Queue.t = Queue.create () in
  let completions_mutex = Mutex.create () in
  let workers = Par.Workers.create ~workers:config.workers ~notify:wake in
  let plane_total = ref 0 in
  let inboxed = ref 0 in
  (* Gauges mirrored into atomics so a [stats] request executing on a
     worker domain never reads this thread's mutable state. *)
  let depth_gauge = Atomic.make 0 in
  let conns_gauge = Atomic.make 0 in
  let refresh_gauges () =
    Atomic.set depth_gauge (!inboxed + !plane_total);
    Atomic.set conns_gauge (Hashtbl.length conns)
  in
  Service.set_extra_stats service (fun () ->
      let gauge name v = Obs.Prom_export.gauge name (float_of_int v) in
      [
        gauge "server.queue.depth" (Atomic.get depth_gauge);
        gauge "server.queue.capacity" config.queue_capacity;
        gauge "server.connections" (Atomic.get conns_gauge);
        gauge "server.workers" (Par.Workers.shards workers);
        gauge "server.workers.busy" (Par.Workers.busy workers);
        gauge "server.workers.dispatched" (Par.Workers.dispatched workers);
        gauge "server.workers.wait_ms" (Par.Workers.wait_ms workers);
      ]);
  let alive conn =
    match Hashtbl.find_opt conns conn.fd with
    | Some c -> c == conn
    | None -> false
  in
  let close_conn conn =
    Hashtbl.remove conns conn.fd;
    tlog Obs.Event_log.Debug "conn.close"
      [ ("connections", J.Num (float_of_int (Hashtbl.length conns))) ];
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  (* A closing connection survives until every dispatched request has come
     back and every reply byte is out — execution effects (inserts,
     shutdown) must land even when the peer hangs up early. *)
  let try_close conn =
    if
      conn.closing && alive conn && conn.outbuf = "" && conn.in_plane = 0
      && Queue.is_empty conn.inbox
    then close_conn conn
  in
  (* Flush completed replies into [outbuf] in sequence order. *)
  let rec flush_replies conn =
    match Hashtbl.find_opt conn.replies conn.next_flush with
    | Some line ->
        Hashtbl.remove conn.replies conn.next_flush;
        conn.next_flush <- conn.next_flush + 1;
        conn.outbuf <- conn.outbuf ^ line ^ "\n";
        flush_replies conn
    | None -> ()
  in
  (* An immediate (loop-synthesized) reply still takes a sequence slot, so
     it cannot overtake the reply to an earlier dispatched frame. *)
  let send_now conn response =
    let seq = conn.next_seq in
    conn.next_seq <- seq + 1;
    Hashtbl.replace conn.replies seq (P.encode_response response);
    flush_replies conn
  in
  (* The admission ring: connections with non-empty inboxes, round-robin.
     One dispatch per turn means a chatty connection cannot starve others
     out of the in-plane budget — its surplus waits in its own inbox, and
     overload falls on whoever overfills their inbox, not on whoever
     arrives while the global queue happens to be full. *)
  let ring : conn Queue.t = Queue.create () in
  let enqueue_ring conn =
    if not conn.in_ring then begin
      conn.in_ring <- true;
      Queue.add conn ring
    end
  in
  (* Pin every session's requests to its store's shard (per-session serial
     — and per-store serial, so branch-sharing sessions cannot race their
     common commit DAG); spread sessionless verbs round-robin.  Requests
     naming an unknown session take the round-robin path and fail on
     whatever shard they land on. *)
  let rr = ref 0 in
  let shard_of (env : P.envelope) =
    let next_rr () =
      let s = !rr in
      incr rr;
      s
    in
    let by_sid sid =
      match Registry.find registry sid with
      | Some s -> Registry.affinity s
      | None -> next_rr ()
    in
    match env.P.session with
    | Some sid -> by_sid sid
    | None -> (
        match env.P.request with
        | P.Open_branch { of_session; _ } -> by_sid of_session
        | _ -> next_rr ())
  in
  let dispatch conn (env : P.envelope) =
    let seq = conn.next_seq in
    conn.next_seq <- seq + 1;
    conn.in_plane <- conn.in_plane + 1;
    incr plane_total;
    tlog Obs.Event_log.Debug "request.admit"
      [
        ("id", J.Num (float_of_int env.P.id));
        ("queued", J.Num (float_of_int (!inboxed + !plane_total)));
      ];
    let shard = shard_of env in
    Par.Workers.submit workers ~shard (fun () ->
        let reply =
          try Service.handle service env
          with exn ->
            P.error ?trace_id:env.P.trace_id (Some env.P.id) P.Internal
              (Printexc.to_string exn)
        in
        let line = P.encode_response reply in
        Mutex.protect completions_mutex (fun () ->
            Queue.add (conn, seq, line) completions))
  in
  (* Move inboxed requests into the worker plane: round-robin across
     connections, bounded by the global budget (unbounded during drain —
     everything parsed must still execute). *)
  let pump ~ignore_budget =
    let budget_ok () =
      ignore_budget || !plane_total < config.queue_capacity
    in
    while budget_ok () && not (Queue.is_empty ring) do
      let conn = Queue.pop ring in
      conn.in_ring <- false;
      if alive conn then begin
        (match Queue.take_opt conn.inbox with
        | Some env ->
            decr inboxed;
            dispatch conn env
        | None -> ());
        if not (Queue.is_empty conn.inbox) then enqueue_ring conn
      end
    done
  in
  (* Hand every completed reply back to its (still-living) connection. *)
  let drain_completions () =
    let rec next () =
      match
        Mutex.protect completions_mutex (fun () ->
            Queue.take_opt completions)
      with
      | None -> ()
      | Some (conn, seq, line) ->
          decr plane_total;
          if alive conn then begin
            conn.in_plane <- conn.in_plane - 1;
            Hashtbl.replace conn.replies seq line;
            flush_replies conn;
            try_close conn
          end;
          next ()
    in
    next ()
  in
  let drain_wake () =
    let buf = Bytes.create 256 in
    let rec go () =
      match Unix.read wake_r buf 0 (Bytes.length buf) with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | 0 -> ()
      | _ -> go ()
    in
    go ()
  in
  let accept_ready () =
    match Unix.accept lfd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | fd, _ ->
        Unix.set_nonblock fd;
        let conn =
          {
            fd;
            inbuf = Buffer.create 256;
            outbuf = "";
            closing = false;
            inbox = Queue.create ();
            in_ring = false;
            next_seq = 0;
            next_flush = 0;
            replies = Hashtbl.create 4;
            in_plane = 0;
          }
        in
        if Hashtbl.length conns >= config.max_connections then begin
          (* Reject at the door, but with a frame the client can parse. *)
          conn.closing <- true;
          tlog Obs.Event_log.Warn "conn.reject"
            [ ("reason", J.Str "connection limit reached") ];
          Hashtbl.replace conns fd conn;
          send_now conn (P.error None P.Overloaded "connection limit reached")
        end
        else begin
          tlog Obs.Event_log.Debug "conn.accept"
            [ ("connections", J.Num (float_of_int (1 + Hashtbl.length conns))) ];
          Hashtbl.replace conns fd conn
        end
  in
  let admit conn frame =
    match P.parse_request frame with
    | Error (id, code, msg) ->
        Registry.count_request registry;
        Registry.count_error registry;
        tlog Obs.Event_log.Warn "request.parse_error"
          (("message", J.Str msg)
          ::
          (match id with
          | Some id -> [ ("id", J.Num (float_of_int id)) ]
          | None -> []));
        send_now conn (P.error id code msg)
    | Ok env ->
        (* Per-connection backpressure: a connection may hold at most
           [queue_capacity] frames inboxed or in flight.  The flooding
           connection overflows its own bound; everyone else's inbox
           stays shallow and drains round-robin. *)
        if Queue.length conn.inbox + conn.in_plane >= config.queue_capacity
        then begin
          Registry.count_request registry;
          Registry.count_error registry;
          Registry.count_overload registry;
          tlog Obs.Event_log.Warn "request.overload"
            (("id", J.Num (float_of_int env.P.id))
            ::
            (match env.P.trace_id with
            | Some tid -> [ ("trace_id", J.Str tid) ]
            | None -> []));
          send_now conn
            (P.error ?trace_id:env.P.trace_id (Some env.P.id) P.Overloaded
               "request queue full, retry later")
        end
        else begin
          Queue.add env conn.inbox;
          incr inboxed;
          enqueue_ring conn
        end
  in
  let read_ready conn =
    let chunk = Bytes.create 65536 in
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> close_conn conn
    | 0 ->
        (* Peer closed its write side; anything buffered without a final
           newline is not a frame.  Parsed frames still execute. *)
        conn.closing <- true;
        try_close conn
    | n ->
        Buffer.add_subbytes conn.inbuf chunk 0 n;
        List.iter (admit conn) (take_frames conn);
        if Buffer.length conn.inbuf > config.max_frame then begin
          send_now conn (P.error None P.Parse_error "frame too large");
          conn.closing <- true
        end
  in
  let write_ready conn =
    let len = String.length conn.outbuf in
    match Unix.single_write_substring conn.fd conn.outbuf 0 len with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> close_conn conn
    | n ->
        conn.outbuf <- String.sub conn.outbuf n (len - n);
        try_close conn
  in
  Unix.set_nonblock lfd;
  (match on_ready with Some f -> f () | None -> ());
  let draining () = !stop <> None || Service.draining service in
  (* Main phase: pure I/O — accept, read, admit, collect completions,
     write.  Execution happens on the worker shards.  The select blocks
     indefinitely: the self-pipe wakes it for completions and signals,
     readable sockets for everything else. *)
  while not (draining ()) do
    let reads =
      lfd :: wake_r
      :: Hashtbl.fold
           (fun fd conn acc -> if conn.closing then acc else fd :: acc)
           conns []
    and writes =
      Hashtbl.fold
        (fun fd conn acc -> if conn.outbuf <> "" then fd :: acc else acc)
        conns []
    in
    match Unix.select reads writes [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        if List.memq wake_r readable then drain_wake ();
        drain_completions ();
        List.iter
          (fun fd ->
            if fd = lfd then accept_ready ()
            else if fd <> wake_r then
              match Hashtbl.find_opt conns fd with
              | Some conn -> read_ready conn
              | None -> ())
          readable;
        pump ~ignore_budget:false;
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some conn -> write_ready conn
            | None -> ())
          writable;
        refresh_gauges ()
  done;
  (* Drain phase: no more reads or accepts.  Dispatch everything already
     parsed (budget no longer matters), wait for the workers to finish,
     flush every connection — bounded so a stuck peer cannot wedge exit. *)
  tlog Obs.Event_log.Info "server.drain"
    [
      ( "reason",
        J.Str
          (match !stop with
          | Some 130 -> "sigint"
          | Some _ -> "sigterm"
          | None -> "shutdown_request") );
      ("queued", J.Num (float_of_int (!inboxed + !plane_total)));
    ];
  pump ~ignore_budget:true;
  Par.Workers.drain workers;
  drain_completions ();
  let deadline = Unix.gettimeofday () +. 5.0 in
  let pending () =
    Hashtbl.fold (fun _ c acc -> acc || c.outbuf <> "") conns false
  in
  while pending () && Unix.gettimeofday () < deadline do
    let writes =
      Hashtbl.fold
        (fun fd conn acc -> if conn.outbuf <> "" then fd :: acc else acc)
        conns []
    in
    match Unix.select [] writes [] 0.1 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | _, writable, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some conn -> write_ready conn
            | None -> ())
          writable
  done;
  Par.Workers.shutdown workers;
  Hashtbl.iter (fun _ conn -> try Unix.close conn.fd with _ -> ()) conns;
  Hashtbl.reset conns;
  (try Unix.close lfd with Unix.Unix_error _ -> ());
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  (match config.address with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  Sys.set_signal Sys.sigpipe prev_pipe;
  let reason =
    match !stop with Some code -> Interrupted code | None -> Drained
  in
  tlog Obs.Event_log.Info "server.shutdown"
    [
      ( "exit",
        J.Num (match reason with Interrupted c -> float_of_int c | Drained -> 0.)
      );
    ];
  Telemetry.flush telemetry;
  reason
