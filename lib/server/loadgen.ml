open Relational
module P = Protocol

type spec = {
  scenario : P.scenario;
  clients : int;
  ops : int;
  limit : int option;
  keep_open : bool;
}

type outcome = {
  sent : int;
  ok : int;
  errors : int;
  overloads : int;
  echo_failures : int;
  elapsed_s : float;
  throughput : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
  latencies_us : (string * float) array;
  digests : string list array;
  mismatches : int option;
}

(* Scenario-specific script parameters: where the data walk goes and what
   an insert looks like (unique per client and step, schema-correct). *)

let walk_params = function
  | P.Paper -> ("Children", "PhoneDir", 2)
  | P.Chain _ -> ("R1", "R2", 3)
  | P.Star _ -> ("Fact", "D1", 3)

let insert_of scenario ~client ~i =
  match scenario with
  | P.Paper ->
      ( "Children",
        [|
          Value.String (Printf.sprintf "9%02d%03d" client i);
          Value.String (Printf.sprintf "Kid-%d-%d" client i);
          Value.Int (i mod 12);
          Value.String "103";
          Value.String "104";
          Value.String "d31";
        |] )
  | P.Chain _ ->
      ( "R1",
        [|
          Value.Int (1_000_000 + (client * 100_000) + i);
          Value.String (Printf.sprintf "edit-%d-%d" client i);
          Value.Int i;
        |] )
  | P.Star { leaves; _ } ->
      ( "Fact",
        Array.append
          [|
            Value.Int (1_000_000 + (client * 100_000) + i);
            Value.String (Printf.sprintf "edit-%d-%d" client i);
          |]
          (Array.make leaves Value.Null) )

(* Rounds of eight ops.  Each round forks a branch from [main] and walks
   from the scenario's root mapping there, so every offer has fresh walks
   to find however long the script runs (offers on one branch keep
   growing its graph until the walk runs out of new nodes).  The round's
   insert lands on [main], so later rounds see every earlier insert. *)
let client_requests spec ~client =
  let start, goal, max_len = walk_params spec.scenario in
  List.init spec.ops (fun i ->
      match i mod 8 with
      | 0 -> P.Branch { name = Printf.sprintf "round-%d" (i / 8) }
      | 1 -> P.Offer { start; goal; max_len }
      | 2 -> P.Evaluate { what = P.Dg; limit = spec.limit }
      | 3 -> P.Rotate
      | 4 -> P.Evaluate { what = P.Target; limit = spec.limit }
      | 5 -> P.Confirm
      | 6 -> P.Checkout { name = Version.Store.main }
      | _ ->
          let relation, row = insert_of spec.scenario ~client ~i in
          P.Insert { relation; rows = [ row ] })

(* ------------------------------------------------------------------ *)
(* The verification arm: a plain Workspace replay, no server code path.
   Branches are just named workspaces. *)

let replay_digests spec =
  Array.init spec.clients (fun client ->
      let db, kb, mapping = Version.Scenario.resolve_fresh spec.scenario in
      let ctx = Clio.Eval_ctx.create ~no_cache:true ~jobs:1 ~kb db in
      let ws = ref (Clio.Workspace.create ctx mapping) in
      let branches = Hashtbl.create 8 in
      let current = ref Version.Store.main in
      let digests = ref [] in
      let active_mapping () =
        (Clio.Workspace.active !ws).Clio.Workspace.mapping
      in
      List.iter
        (fun req ->
          match req with
          | P.Branch { name } ->
              Hashtbl.replace branches !current !ws;
              current := name
          | P.Checkout { name } ->
              Hashtbl.replace branches !current !ws;
              ws := Hashtbl.find branches name;
              current := name
          | P.Evaluate { what; _ } ->
              let rel =
                match what with
                | P.Target -> Clio.Workspace.target_view !ws
                | P.Dg ->
                    (Clio.Mapping_eval.data_associations
                       (Clio.Workspace.ctx !ws) (active_mapping ()))
                      .Fulldisj.Full_disjunction.rows
                | P.Fj ->
                    Clio.Eval_ctx.full_associations (Clio.Workspace.ctx !ws)
                      (active_mapping ()).Clio.Mapping.graph
              in
              digests := Render.digest rel :: !digests
          | P.Offer { start; goal; max_len } -> (
              try
                let alts =
                  Clio.Op_walk.data_walk (Clio.Workspace.ctx !ws)
                    (active_mapping ()) ~start ~goal ~max_len ()
                in
                if alts <> [] then
                  ws :=
                    Clio.Workspace.offer !ws
                      ~labels:
                        (List.map (fun a -> a.Clio.Op_walk.description) alts)
                      (List.map (fun a -> a.Clio.Op_walk.mapping) alts)
              with Invalid_argument _ -> ())
          | P.Rotate -> ws := Clio.Workspace.rotate !ws
          | P.Confirm -> ws := Clio.Workspace.confirm !ws
          | P.Insert { relation; rows } -> (
              try ws := Clio.Workspace.add_tuples !ws relation rows
              with Invalid_argument _ -> ())
          | _ -> ())
        (client_requests spec ~client);
      List.rev !digests)

let count_mismatches ~expected ~got =
  let per_client exp act =
    let rec go n = function
      | [], [] -> n
      | e :: es, a :: as_ -> go (if String.equal e a then n else n + 1) (es, as_)
      | rest, [] | [], rest -> n + List.length rest
    in
    go 0 (exp, act)
  in
  let total = ref 0 in
  Array.iteri
    (fun c exp -> total := !total + per_client exp (Array.get got c))
    expected;
  !total

(* ------------------------------------------------------------------ *)
(* Shared accounting. *)

type accum = {
  mutable sent : int;
  mutable ok : int;
  mutable errors : int;
  mutable overloads : int;
  mutable echo_failures : int;
  mutable latencies : (string * float) list;  (** (op, us), newest first *)
  client_digests : string list array;  (** newest first *)
}

let make_accum clients =
  {
    sent = 0;
    ok = 0;
    errors = 0;
    overloads = 0;
    echo_failures = 0;
    latencies = [];
    client_digests = Array.make clients [];
  }

(* Every loadgen request carries a trace id, and [trace] is what the reply
   must echo — a mismatch (or a missing echo) is a protocol failure. *)
let record acc ~client ~trace ~op ~latency_us (resp : P.response) =
  acc.latencies <- (op, latency_us) :: acc.latencies;
  if resp.P.trace_id <> Some trace then
    acc.echo_failures <- acc.echo_failures + 1;
  match resp.P.result with
  | Ok (P.Evaluated info) ->
      acc.ok <- acc.ok + 1;
      acc.client_digests.(client) <-
        info.P.digest :: acc.client_digests.(client)
  | Ok _ -> acc.ok <- acc.ok + 1
  | Error (P.Overloaded, _) -> acc.overloads <- acc.overloads + 1
  | Error _ -> acc.errors <- acc.errors + 1

let finish spec acc ~verify ~elapsed_s =
  let pairs = Array.of_list acc.latencies in
  Array.sort (fun (_, a) (_, b) -> Float.compare a b) pairs;
  let sorted = Array.map snd pairs in
  let digests = Array.map List.rev acc.client_digests in
  let mismatches =
    if verify then
      Some (count_mismatches ~expected:(replay_digests spec) ~got:digests)
    else None
  in
  {
    sent = acc.sent;
    ok = acc.ok;
    errors = acc.errors;
    overloads = acc.overloads;
    echo_failures = acc.echo_failures;
    elapsed_s;
    throughput = (if elapsed_s > 0. then float_of_int acc.ok /. elapsed_s else 0.);
    p50_us = Obs.Histogram.nearest_rank sorted 50.;
    p99_us = Obs.Histogram.nearest_rank sorted 99.;
    max_us = Obs.Histogram.nearest_rank sorted 100.;
    latencies_us = pairs;
    digests;
    mismatches;
  }

(* ------------------------------------------------------------------ *)
(* In-process mode: straight into Service.handle, no transport. *)

let run_inprocess ?(verify = true) service spec =
  let acc = make_accum spec.clients in
  let next_id = ref 0 in
  let fresh_id () =
    incr next_id;
    !next_id
  in
  let call ~client ?session request =
    let id = fresh_id () in
    let trace = Printf.sprintf "lg%d-%d" client id in
    let env = { P.id; session; request; trace_id = Some trace } in
    acc.sent <- acc.sent + 1;
    let t0 = Unix.gettimeofday () in
    let resp = Service.handle service env in
    record acc ~client ~trace ~op:(Service.verb_name request)
      ~latency_us:((Unix.gettimeofday () -. t0) *. 1e6)
      resp;
    resp
  in
  let t_start = Unix.gettimeofday () in
  let sids =
    Array.init spec.clients (fun client ->
        match call ~client (P.Open_session spec.scenario) with
        | { P.result = Ok (P.Opened { session; _ }); _ } -> Some session
        | _ -> None)
  in
  let scripts =
    Array.init spec.clients (fun client ->
        Array.of_list (client_requests spec ~client))
  in
  for i = 0 to spec.ops - 1 do
    for client = 0 to spec.clients - 1 do
      match sids.(client) with
      | None -> ()
      | Some sid -> ignore (call ~client ~session:sid scripts.(client).(i))
    done
  done;
  if not spec.keep_open then
    Array.iteri
      (fun client sid ->
        match sid with
        | None -> ()
        | Some sid -> ignore (call ~client ~session:sid P.Close_session))
      sids;
  finish spec acc ~verify ~elapsed_s:(Unix.gettimeofday () -. t_start)

(* ------------------------------------------------------------------ *)
(* Socket mode: one blocking connection per client, one request in
   flight each, [overloaded] replies retried with a short pause. *)

type client_conn = { fd : Unix.file_descr; buf : Buffer.t; mutable carry : string }

let connect address =
  let fd, addr =
    match address with
    | Loop.Unix_path path ->
        (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Loop.Tcp port ->
        ( Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0,
          Unix.ADDR_INET (Unix.inet_addr_loopback, port) )
  in
  Unix.connect fd addr;
  { fd; buf = Buffer.create 4096; carry = "" }

let send_line conn line =
  let bytes = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written :=
      !written + Unix.write conn.fd bytes !written (len - !written)
  done

let recv_line conn =
  let rec split () =
    match String.index_opt conn.carry '\n' with
    | Some i ->
        let line = String.sub conn.carry 0 i in
        conn.carry <-
          String.sub conn.carry (i + 1) (String.length conn.carry - i - 1);
        line
    | None ->
        let chunk = Bytes.create 65536 in
        let n = Unix.read conn.fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "server closed the connection";
        conn.carry <- conn.carry ^ Bytes.sub_string chunk 0 n;
        split ()
  in
  split ()

(* Per-client driver state for the concurrent socket mode.  Each client
   keeps at most one request in flight; [lg_pending] is the attempt
   awaiting its reply, [lg_retry] a scheduled resend after an
   [overloaded] reply. *)
type lg_phase = Lg_opening | Lg_ops | Lg_closing | Lg_done

type lg_client = {
  lg_idx : int;
  lg_conn : client_conn;
  mutable lg_sid : string option;
  mutable lg_script : P.request list;  (** remaining scripted ops *)
  mutable lg_phase : lg_phase;
  mutable lg_pending : (P.request * string * float * int) option;
      (** (request, trace, send time, retries left) *)
  mutable lg_retry : (float * P.request * int) option;
      (** (due, request, retries left) *)
}

let run_socket ?(verify = true) ~address spec =
  let acc = make_accum spec.clients in
  let next_id = ref 0 in
  let fresh_id () =
    incr next_id;
    !next_id
  in
  (* All clients run concurrently from this one thread: each keeps one
     request in flight and a single select multiplexes the replies, so a
     multi-worker server can overlap distinct sessions' requests.  Per
     connection the wire behavior matches the old serial driver: one
     request at a time, [overloaded] retried (bounded) after a 2 ms
     pause with a fresh id and trace, every attempt recorded. *)
  let clients =
    Array.init spec.clients (fun idx ->
        {
          lg_idx = idx;
          lg_conn = connect address;
          lg_sid = None;
          lg_script = client_requests spec ~client:idx;
          lg_phase = Lg_opening;
          lg_pending = None;
          lg_retry = None;
        })
  in
  let send c ~fresh request retries =
    if fresh then acc.sent <- acc.sent + 1;
    let id = fresh_id () in
    let trace = Printf.sprintf "lg%d-%d" c.lg_idx id in
    let session =
      match c.lg_phase with Lg_opening -> None | _ -> c.lg_sid
    in
    let line =
      P.encode_request { P.id; session; request; trace_id = Some trace }
    in
    c.lg_pending <- Some (request, trace, Unix.gettimeofday (), retries);
    send_line c.lg_conn line
  in
  let advance c =
    match c.lg_phase with
    | Lg_opening when c.lg_sid = None ->
        (* open failed: this client sits the run out, like the serial
           driver's [None] session *)
        c.lg_phase <- Lg_done
    | Lg_opening | Lg_ops -> (
        c.lg_phase <- Lg_ops;
        match c.lg_script with
        | req :: rest ->
            c.lg_script <- rest;
            send c ~fresh:true req 1000
        | [] ->
            if spec.keep_open then c.lg_phase <- Lg_done
            else begin
              c.lg_phase <- Lg_closing;
              send c ~fresh:true P.Close_session 1000
            end)
    | Lg_closing | Lg_done -> c.lg_phase <- Lg_done
  in
  let handle_reply c line =
    match c.lg_pending with
    | None -> failwith "reply with no request in flight"
    | Some (request, trace, t0, retries) -> (
        let resp =
          match P.parse_response line with
          | Ok r -> r
          | Error msg -> failwith ("unparseable reply: " ^ msg)
        in
        record acc ~client:c.lg_idx ~trace ~op:(Service.verb_name request)
          ~latency_us:((Unix.gettimeofday () -. t0) *. 1e6)
          resp;
        c.lg_pending <- None;
        match resp.P.result with
        | Error (P.Overloaded, _) when retries > 0 ->
            c.lg_retry <-
              Some (Unix.gettimeofday () +. 0.002, request, retries - 1)
        | result ->
            (match (c.lg_phase, result) with
            | Lg_opening, Ok (P.Opened { session; _ }) ->
                c.lg_sid <- Some session
            | _ -> ());
            advance c)
  in
  let read_client c =
    let conn = c.lg_conn in
    let chunk = Bytes.create 65536 in
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "server closed the connection"
    | n ->
        conn.carry <- conn.carry ^ Bytes.sub_string chunk 0 n;
        let rec drain () =
          if c.lg_pending <> None then
            match String.index_opt conn.carry '\n' with
            | Some i ->
                let line = String.sub conn.carry 0 i in
                conn.carry <-
                  String.sub conn.carry (i + 1)
                    (String.length conn.carry - i - 1);
                handle_reply c line;
                drain ()
            | None -> ()
        in
        drain ()
  in
  let t_start = Unix.gettimeofday () in
  Array.iter
    (fun c -> send c ~fresh:true (P.Open_session spec.scenario) 1000)
    clients;
  while not (Array.for_all (fun c -> c.lg_phase = Lg_done) clients) do
    let now = Unix.gettimeofday () in
    Array.iter
      (fun c ->
        match c.lg_retry with
        | Some (due, request, retries) when due <= now ->
            c.lg_retry <- None;
            send c ~fresh:false request retries
        | _ -> ())
      clients;
    let reads =
      Array.fold_left
        (fun fds c ->
          if c.lg_pending <> None then c.lg_conn.fd :: fds else fds)
        [] clients
    in
    let timeout =
      Array.fold_left
        (fun t c ->
          match c.lg_retry with
          | Some (due, _, _) ->
              let d = Float.max 0.0005 (due -. now) in
              Some (match t with None -> d | Some t -> Float.min t d)
          | None -> t)
        None clients
    in
    if reads = [] && timeout = None then failwith "loadgen stalled"
    else begin
      match
        Unix.select reads [] []
          (match timeout with Some t -> t | None -> -1.0)
      with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
          Array.iter
            (fun c -> if List.memq c.lg_conn.fd readable then read_client c)
            clients
    end
  done;
  let elapsed_s = Unix.gettimeofday () -. t_start in
  Array.iter
    (fun c -> try Unix.close c.lg_conn.fd with Unix.Unix_error _ -> ())
    clients;
  finish spec acc ~verify ~elapsed_s

(* One-shot client call for the scrape/top utilities: connect, send the
   envelopes in order, await one reply per envelope, close. *)
let rpc_once ~address envelopes =
  let conn = connect address in
  Fun.protect
    ~finally:(fun () -> try Unix.close conn.fd with Unix.Unix_error _ -> ())
    (fun () ->
      List.map
        (fun env ->
          send_line conn (P.encode_request env);
          match P.parse_response (recv_line conn) with
          | Ok r -> r
          | Error msg -> failwith ("unparseable reply: " ^ msg))
        envelopes)

let pp_outcome ppf (o : outcome) =
  Format.fprintf ppf
    "@[<v>requests   %d (ok %d, errors %d, overload retries %d)@,\
     elapsed    %.3f s  (%.0f ops/s)@,\
     latency    p50 %.0f us   p99 %.0f us   max %.0f us@,\
     trace echo %s@,\
     verify     %s@]"
    o.sent o.ok o.errors o.overloads o.elapsed_s o.throughput o.p50_us o.p99_us
    o.max_us
    (if o.echo_failures = 0 then "ok: every reply echoed its request's trace id"
     else Printf.sprintf "FAILED: %d replies with missing/wrong trace id"
       o.echo_failures)
    (match o.mismatches with
    | None -> "off"
    | Some 0 -> "ok: all evaluation digests match the sequential replay"
    | Some n -> Printf.sprintf "FAILED: %d digest mismatches" n)
