(* clio-serve — the long-lived mapping-refinement service, its load
   generator, and its operator clients.

     clio_serve serve --socket /tmp/clio.sock     Unix-domain socket
     clio_serve serve --tcp 7411                  loopback TCP
     clio_serve serve --socket S --log --slow-ms 50   telemetry on
     clio_serve loadgen --socket /tmp/clio.sock --clients 4 --ops 12
     clio_serve loadgen --clients 4 --ops 12      in-process (no server)
     clio_serve scrape --socket /tmp/clio.sock --check
     clio_serve top --socket /tmp/clio.sock

   The server holds one shared evaluation substrate (Eval_cache + domain
   pool) and any number of concurrent sessions; the protocol is
   newline-delimited JSON — see docs/server.md.  Telemetry (docs/
   observability.md): --log writes a leveled JSONL event log with one
   request.complete line per request (trace id, latency, cache deltas);
   requests at or above --slow-ms get their span subtree dumped as a
   Chrome-trace exemplar named by trace id; scrape fetches the Prometheus
   text exposition; top renders live server/session tables. *)

open Cmdliner
module P = Server.Protocol

let scenario_of ~scenario ~size ~rows ~seed =
  match String.lowercase_ascii scenario with
  | "paper" -> Ok P.Paper
  | "chain" -> Ok (P.Chain { n = size; rows; seed })
  | "star" -> Ok (P.Star { leaves = size; rows; seed })
  | other ->
      Error (Printf.sprintf "unknown scenario %S (paper, chain or star)" other)

let address_of socket tcp =
  match (socket, tcp) with
  | None, None -> Error "one of --socket PATH or --tcp PORT is required"
  | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
  | Some path, None -> Ok (Server.Loop.Unix_path path)
  | None, Some port -> Ok (Server.Loop.Tcp port)

(* --- shared args ------------------------------------------------------- *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Loopback TCP port $(docv).")

(* --- serve ------------------------------------------------------------- *)

let serve_run socket tcp jobs workers queue no_cache cache_mb store_dir
    metrics log log_level slow_ms exemplars exemplar_keep =
  let below_one =
    List.find_opt
      (fun (_, n) -> Option.fold ~none:false ~some:(fun n -> n < 1) n)
      [
        ("--jobs", jobs);
        ("--workers", workers);
        ("--queue", Some queue);
        ("--cache-mb", cache_mb);
      ]
  in
  match (address_of socket tcp, below_one) with
  | Error msg, _ -> `Error (true, msg)
  | Ok _, Some (flag, _) -> `Error (true, flag ^ " must be >= 1")
  | Ok _, None when log = Some "" || metrics = Some "" ->
      `Error (true, "--log/--metrics need a non-empty filename")
  | Ok address, None ->
      (* Any telemetry sink needs the Obs switch on: counters, spans and
         histograms are what the log lines, exemplars and scrapes show. *)
      if metrics <> None || log <> None || slow_ms <> None || exemplars <> None
      then Obs.enable ();
      let log_sink =
        Option.map (fun path -> Obs.Event_log.create ~level:log_level path) log
      in
      let exemplar_dir =
        match (exemplars, slow_ms) with
        | Some dir, _ -> Some dir
        | None, Some _ -> Some "clio-exemplars"
        | None, None -> None
      in
      (match exemplar_dir with
      | Some dir -> (
          try Unix.mkdir dir 0o755
          with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
      | None -> ());
      let telemetry =
        if log_sink = None && slow_ms = None && exemplar_dir = None then
          Server.Telemetry.none
        else
          Server.Telemetry.create ?log:log_sink ?slow_ms ?exemplar_dir
            ~exemplar_keep ()
      in
      let registry =
        Server.Registry.create ?jobs ~no_cache
          ?cache_bytes:(Option.map (fun mb -> mb * 1024 * 1024) cache_mb)
          ()
      in
      (* Warm boot: when --store-dir holds a manifest from a previous
         run, replay it — sessions resume on their branches with the
         shared cache re-warmed by the replay itself. *)
      (match store_dir with
      | Some dir when Sys.file_exists (Filename.concat dir "registry.json") -> (
          try
            let n = Server.Registry.restore registry ~dir in
            Printf.printf "clio_serve: restored %d session(s) from %s\n%!" n
              dir
          with Failure msg | Sys_error msg ->
            Printf.eprintf "clio_serve: cannot restore store: %s\n%!" msg;
            exit 1)
      | _ -> ());
      let service = Server.Service.create registry in
      Server.Service.set_telemetry service telemetry;
      (* Worker domains executing requests: --workers, then CLIO_WORKERS,
         then 1 (serial — the pre-worker-plane behavior). *)
      let workers =
        max 1
          (match workers with
          | Some n -> n
          | None -> (
              match Sys.getenv_opt "CLIO_WORKERS" with
              | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
              | None -> 1))
      in
      let config =
        {
          (Server.Loop.default_config address) with
          queue_capacity = queue;
          workers;
        }
      in
      Printf.printf
        "clio_serve: listening on %s (jobs %d, workers %d, queue %d)\n%!"
        (match address with
        | Server.Loop.Unix_path p -> p
        | Server.Loop.Tcp p -> Printf.sprintf "127.0.0.1:%d" p)
        (Server.Registry.jobs registry)
        config.Server.Loop.workers config.Server.Loop.queue_capacity;
      let reason = Server.Loop.run config service in
      (* Epilogue runs on every exit path — a SIGTERM'd server still
         leaves complete --metrics/--log files and a resumable store
         behind. *)
      (match store_dir with
      | Some dir -> (
          try
            Server.Registry.persist registry ~dir;
            Printf.printf "clio_serve: persisted %d session(s) to %s\n%!"
              (Server.Registry.session_count registry)
              dir
          with Sys_error msg | Failure msg ->
            Printf.eprintf "clio_serve: cannot persist store: %s\n%!" msg)
      | None -> ());
      (match metrics with
      | Some file -> (
          try
            Obs.write_metrics file;
            Printf.eprintf "metrics written to %s\n%!" file
          with Sys_error msg ->
            Printf.eprintf "clio_serve: cannot write metrics: %s\n%!" msg)
      | None -> ());
      Server.Telemetry.close telemetry;
      (match reason with
      | Server.Loop.Drained -> Printf.printf "clio_serve: drained, bye\n%!"
      | Server.Loop.Interrupted code ->
          Printf.printf "clio_serve: interrupted, exiting %d\n%!" code;
          exit code);
      `Ok ()

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Domains in the shared evaluation pool (default: CLIO_JOBS or 1).")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"K"
        ~doc:
          "Worker domains executing requests (default: CLIO_WORKERS or 1). \
           Requests within a session execute serially in admission order; \
           sessions on distinct stores execute in parallel across the \
           $(docv) workers.  Composes with --jobs: each executing request \
           may additionally fan its evaluation across the shared domain \
           pool.")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Bound on queued requests; beyond it clients get an $(i,overloaded) \
           reply (backpressure) instead of a dropped connection.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Disable the shared F(J)/D(G) memo cache (ablation switch).")

let cache_mb_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-mb" ] ~docv:"MB" ~doc:"Byte budget of the shared cache.")

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store-dir" ] ~docv:"DIR"
        ~doc:
          "Persist every open session's version store (snapshot + \
           changelog) to $(docv) at exit, and resume from it at boot when \
           a manifest is present — a restarted server comes back warm \
           with the same sessions, branches and state.")

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "metrics.json") (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the full Obs metrics state as JSON at exit (flushed on \
           SIGINT/SIGTERM too; default $(i,metrics.json)).  Enables \
           observability.")

let log_arg =
  Arg.(
    value
    & opt ~vopt:(Some "clio_serve.log") (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Append a structured JSONL event log (connections, admissions, one \
           $(i,request.complete) line per request with trace id, latency and \
           cache deltas; size-rotated).  Default $(i,clio_serve.log).  \
           Enables observability.")

let log_level_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("debug", Obs.Event_log.Debug);
             ("info", Obs.Event_log.Info);
             ("warn", Obs.Event_log.Warn);
             ("error", Obs.Event_log.Error);
           ])
        Obs.Event_log.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Minimum level written to --log: debug, info, warn, error.")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Capture a Chrome-trace exemplar (the request's span subtree, \
           linked by trace id) for every request taking at least $(docv) \
           milliseconds; 0 captures everything.  Enables observability.")

let exemplars_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "exemplars" ] ~docv:"DIR"
        ~doc:
          "Directory for slow-request exemplar traces (created if missing; \
           default $(i,clio-exemplars) when --slow-ms is set).")

let exemplar_keep_arg =
  Arg.(
    value
    & opt int Server.Telemetry.default_exemplar_keep
    & info [ "exemplar-keep" ] ~docv:"N"
        ~doc:"Exemplar files retained; the oldest beyond $(docv) are removed.")

let serve_cmd =
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the mapping-refinement server until SIGTERM/SIGINT (exit \
         143/130, telemetry flushed) or a drained $(i,shutdown) request \
         (exit 0)."
  in
  Cmd.v info
    Term.(
      ret
        (const serve_run $ socket_arg $ tcp_arg $ jobs_arg $ workers_arg
       $ queue_arg $ no_cache_arg $ cache_mb_arg
       $ store_dir_arg $ metrics_arg $ log_arg $ log_level_arg $ slow_ms_arg
       $ exemplars_arg $ exemplar_keep_arg))

(* --- loadgen ----------------------------------------------------------- *)

let loadgen_run socket tcp clients ops scenario size rows seed limit no_verify
    keep_open latencies =
  match scenario_of ~scenario ~size ~rows ~seed with
  | Error msg -> `Error (true, msg)
  | Ok scenario ->
      let spec =
        {
          Server.Loadgen.scenario;
          clients;
          ops;
          limit = (if limit > 0 then Some limit else None);
          keep_open;
        }
      in
      let verify = not no_verify in
      let outcome =
        match (socket, tcp) with
        | Some _, Some _ ->
            prerr_endline "--socket and --tcp are mutually exclusive";
            exit 2
        | Some path, None ->
            Server.Loadgen.run_socket ~verify
              ~address:(Server.Loop.Unix_path path) spec
        | None, Some port ->
            Server.Loadgen.run_socket ~verify ~address:(Server.Loop.Tcp port)
              spec
        | None, None ->
            (* No server: drive the service in-process (cold substrate). *)
            let registry = Server.Registry.create () in
            Server.Loadgen.run_inprocess ~verify
              (Server.Service.create registry)
              spec
      in
      Format.printf "%a@." Server.Loadgen.pp_outcome outcome;
      (* One "<op> <microseconds>" line per request, appended — running
         the generator several times with the same file pools the runs'
         distributions, and the op label lets a consumer slice out one
         mode (the CI overhead gate compares per-op medians: a raw p50
         mixes 15 us rotates with multi-ms offers and lands on a mode
         boundary, where it is too noisy to hold a tight ratio). *)
      (match latencies with
      | None -> ()
      | Some file -> (
          try
            let oc =
              open_out_gen [ Open_append; Open_creat ] 0o644 file
            in
            Array.iter
              (fun (op, us) -> Printf.fprintf oc "%s %.0f\n" op us)
              outcome.Server.Loadgen.latencies_us;
            close_out oc
          with Sys_error msg ->
            Printf.eprintf "latencies not written: %s\n%!" msg));
      let failed =
        outcome.Server.Loadgen.errors > 0
        || outcome.Server.Loadgen.echo_failures > 0
        || match outcome.Server.Loadgen.mismatches with
           | Some n when n > 0 -> true
           | _ -> false
      in
      if failed then `Error (false, "load generation failed") else `Ok ()

let clients_arg =
  Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Concurrent clients.")

let ops_arg =
  Arg.(value & opt int 12 & info [ "ops" ] ~docv:"N" ~doc:"Operations per client.")

let scenario_arg =
  Arg.(
    value & opt string "paper"
    & info [ "scenario" ] ~docv:"NAME" ~doc:"paper, chain or star.")

let size_arg =
  Arg.(
    value & opt int 3
    & info [ "size" ] ~docv:"N" ~doc:"Chain length / star leaves.")

let rows_arg =
  Arg.(
    value & opt int 500
    & info [ "rows" ] ~docv:"N" ~doc:"Rows per synthetic relation.")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

let limit_arg =
  Arg.(
    value & opt int 0
    & info [ "limit" ] ~docv:"N"
        ~doc:"Rows to return per evaluation (0 = digests only).")

let no_verify_arg =
  Arg.(
    value & flag
    & info [ "no-verify" ]
        ~doc:"Skip the sequential-replay digest verification.")

let keep_open_arg =
  Arg.(
    value & flag
    & info [ "keep-open" ]
        ~doc:
          "Leave the sessions open after the run (no final $(i,close)) so a \
           later $(i,digests) call — or a $(b,--store-dir) shutdown — still \
           sees them.")

let latencies_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "latencies" ] ~docv:"FILE"
        ~doc:
          "Append every request's latency (one '<op> <microseconds>' line \
           per request) to $(docv).  Reusing the file across runs pools \
           their distributions.")

let loadgen_cmd =
  let info =
    Cmd.info "loadgen"
      ~doc:
        "Drive a server (or an in-process service) with scripted clients and \
         verify results against a sequential replay.  Every request carries \
         a trace id; a reply that fails to echo it fails the run."
  in
  Cmd.v info
    Term.(
      ret
        (const loadgen_run $ socket_arg $ tcp_arg $ clients_arg $ ops_arg
       $ scenario_arg $ size_arg $ rows_arg $ seed_arg $ limit_arg
       $ no_verify_arg $ keep_open_arg $ latencies_arg))

(* --- scrape ------------------------------------------------------------ *)

let scrape_run socket tcp check out =
  match address_of socket tcp with
  | Error msg -> `Error (true, msg)
  | Ok address -> (
      match
        Server.Loadgen.rpc_once ~address
          [ { P.id = 1; session = None; request = P.Metrics_prom; trace_id = None } ]
      with
      | exception (Failure msg | Sys_error msg) -> `Error (false, msg)
      | exception Unix.Unix_error (e, fn, _) ->
          `Error (false, Printf.sprintf "%s: %s" fn (Unix.error_message e))
      | [ { P.result = Ok (P.Prom_text text); _ } ] -> (
          (match out with
          | Some file ->
              let oc = open_out file in
              output_string oc text;
              close_out oc
          | None -> print_string text);
          if not check then `Ok ()
          else
            match Obs.Prom_export.validate text with
            | Ok () ->
                Printf.eprintf "scrape: format ok\n%!";
                `Ok ()
            | Error msg -> `Error (false, "scrape format check failed: " ^ msg))
      | [ { P.result = Error (_, msg); _ } ] ->
          `Error (false, "server error: " ^ msg)
      | _ -> `Error (false, "unexpected reply"))

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Validate the exposition (name charset, histogram bucket \
           monotonicity, +Inf bucket = count) and fail on any violation.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the scrape to $(docv) instead of stdout.")

let scrape_cmd =
  let info =
    Cmd.info "scrape"
      ~doc:
        "One-shot Prometheus text-exposition scrape of a running server \
         (every counter, histogram and server/session gauge)."
  in
  Cmd.v info
    Term.(ret (const scrape_run $ socket_arg $ tcp_arg $ check_arg $ out_arg))

(* --- digests ----------------------------------------------------------- *)

(* One "sid dg-digest target-digest" line per open session, sid-sorted —
   the byte-identity witness the restart-smoke harness diffs across a
   SIGTERM + warm reboot. *)
let digests_run socket tcp =
  match address_of socket tcp with
  | Error msg -> `Error (true, msg)
  | Ok address -> (
      try
        let sids =
          match
            Server.Loadgen.rpc_once ~address
              [ { P.id = 1; session = None; request = P.Stats; trace_id = None } ]
          with
          | [ { P.result = Ok (P.Stats_report pairs); _ } ] ->
              List.filter_map
                (fun (k, _) ->
                  if String.starts_with ~prefix:"sessions." k then
                    let rest = String.sub k 9 (String.length k - 9) in
                    Option.map (fun i -> String.sub rest 0 i)
                      (String.index_opt rest '.')
                  else None)
                pairs
              |> List.sort_uniq compare
          | [ { P.result = Error (_, msg); _ } ] ->
              failwith ("server error: " ^ msg)
          | _ -> failwith "unexpected reply"
        in
        List.iter
          (fun sid ->
            match
              Server.Loadgen.rpc_once ~address
                [
                  {
                    P.id = 1;
                    session = Some sid;
                    request = P.Evaluate { what = P.Dg; limit = None };
                    trace_id = None;
                  };
                  {
                    P.id = 2;
                    session = Some sid;
                    request = P.Evaluate { what = P.Target; limit = None };
                    trace_id = None;
                  };
                ]
            with
            | [
                { P.result = Ok (P.Evaluated dg); _ };
                { P.result = Ok (P.Evaluated target); _ };
              ] ->
                Printf.printf "%s %s %s\n" sid dg.P.digest target.P.digest
            | [ { P.result = Error (_, msg); _ }; _ ]
            | [ _; { P.result = Error (_, msg); _ } ] ->
                failwith (Printf.sprintf "session %s: %s" sid msg)
            | _ -> failwith "unexpected reply")
          sids;
        `Ok ()
      with
      | Failure msg | Sys_error msg -> `Error (false, msg)
      | Unix.Unix_error (e, fn, _) ->
          `Error (false, Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let digests_cmd =
  let info =
    Cmd.info "digests"
      ~doc:
        "Print every open session's D(G) and target-view digests (one \
         $(i,sid dg target) line per session, sid-sorted).  Two servers — \
         e.g. one before and one after a $(b,--store-dir) restart — agree \
         iff their outputs are byte-identical."
  in
  Cmd.v info Term.(ret (const digests_run $ socket_arg $ tcp_arg))

(* --- top --------------------------------------------------------------- *)

(* Render one no-session [stats] reply as server + per-session tables.
   Keys arrive flat: server.* from the registry and transport,
   sessions.<sid>.<metric> for each open session. *)
let render_stats pairs =
  let b = Buffer.create 1024 in
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.1f" v
  in
  Buffer.add_string b "server\n";
  List.iter
    (fun (k, v) ->
      if String.starts_with ~prefix:"server." k then
        Printf.bprintf b "  %-32s %s\n"
          (String.sub k 7 (String.length k - 7))
          (num v))
    pairs;
  (* group sessions.<sid>.<metric> *)
  let sids = ref [] in
  let by_sid : (string, (string * float) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (k, v) ->
      if String.starts_with ~prefix:"sessions." k then
        let rest = String.sub k 9 (String.length k - 9) in
        match String.index_opt rest '.' with
        | None -> ()
        | Some i ->
            let sid = String.sub rest 0 i in
            let metric = String.sub rest (i + 1) (String.length rest - i - 1) in
            if not (Hashtbl.mem by_sid sid) then sids := sid :: !sids;
            Hashtbl.replace by_sid sid
              ((metric, v) :: Option.value ~default:[] (Hashtbl.find_opt by_sid sid)))
    pairs;
  let sids = List.rev !sids in
  if sids <> [] then begin
    Printf.bprintf b "\n%-8s %8s %7s %10s %10s %10s %5s %7s\n" "session"
      "requests" "errors" "p50(us)" "p99(us)" "max(us)" "dbv" "entries";
    List.iter
      (fun sid ->
        let m = Option.value ~default:[] (Hashtbl.find_opt by_sid sid) in
        let get name = Option.value ~default:0. (List.assoc_opt name m) in
        Printf.bprintf b "%-8s %8.0f %7.0f %10.0f %10.0f %10.0f %5.0f %7.0f\n"
          sid (get "requests") (get "errors") (get "latency_us.p50")
          (get "latency_us.p99") (get "latency_us.max") (get "db_version")
          (get "entries"))
      sids;
    (* per-op and cache attribution lines, one per session, only when
       present *)
    List.iter
      (fun sid ->
        let m = Option.value ~default:[] (Hashtbl.find_opt by_sid sid) in
        let section prefix label =
          match
            List.filter_map
              (fun (k, v) ->
                if String.starts_with ~prefix k then
                  Some
                    (Printf.sprintf "%s=%s"
                       (String.sub k (String.length prefix)
                          (String.length k - String.length prefix))
                       (num v))
                else None)
              (List.sort compare m)
          with
          | [] -> ()
          | parts ->
              Printf.bprintf b "  %-6s %s: %s\n" sid label
                (String.concat " " parts)
        in
        section "ops." "ops";
        section "cache." "cache")
      sids
  end;
  Buffer.contents b

let top_run socket tcp interval count =
  match address_of socket tcp with
  | Error msg -> `Error (true, msg)
  | Ok address -> (
      try
        for i = 1 to count do
          match
            Server.Loadgen.rpc_once ~address
              [ { P.id = i; session = None; request = P.Stats; trace_id = None } ]
          with
          | [ { P.result = Ok (P.Stats_report pairs); _ } ] ->
              if count > 1 then Printf.printf "--- sample %d/%d\n" i count;
              print_string (render_stats pairs);
              print_string "\n";
              flush stdout;
              if i < count then ignore (Unix.select [] [] [] interval)
          | [ { P.result = Error (_, msg); _ } ] ->
              failwith ("server error: " ^ msg)
          | _ -> failwith "unexpected reply"
        done;
        `Ok ()
      with
      | Failure msg | Sys_error msg -> `Error (false, msg)
      | Unix.Unix_error (e, fn, _) ->
          `Error (false, Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let interval_arg =
  Arg.(
    value & opt float 2.0
    & info [ "interval" ] ~docv:"SECS" ~doc:"Seconds between samples.")

let count_arg =
  Arg.(
    value & opt int 1
    & info [ "count" ] ~docv:"N" ~doc:"Samples to take (default one shot).")

let top_cmd =
  let info =
    Cmd.info "top"
      ~doc:
        "Render a running server's live stats: server totals and a \
         per-session table (requests, latency percentiles, per-op counts, \
         cache attribution) from the $(i,stats) request."
  in
  Cmd.v info
    Term.(
      ret (const top_run $ socket_arg $ tcp_arg $ interval_arg $ count_arg))

let () =
  let info =
    Cmd.info "clio_serve" ~version:"dev"
      ~doc:"Long-lived multi-session mapping-refinement service."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ serve_cmd; loadgen_cmd; scrape_cmd; digests_cmd; top_cmd ]))
