(* The traced run: where a workload's served time goes, layer by layer.

   Three passes over one workload and seed:
   - an untraced socket pass (the throughput baseline for the tracing
     overhead);
   - a socket pass against a server started with its existing [--log]
     (info level): each client latency is joined by trace id to the
     server's [request.complete] latency, and the difference is the time
     a request spent outside [Service.handle] (loop, queue, socket);
   - an in-process layer replay of the same scripts, with observability
     on.  Each request runs twice.  Once through [Server.Service.handle]
     on a twin registry: the request span it captures gives the handled
     time and the share of it the program's own spans cover.  And once
     decomposed into the public calls the service makes, each inside an
     [e2e.<layer>] span, so the program's own spans and counters nest
     underneath; the layer counters come from this side alone.  Spans stay
     in memory and are written at the end as a Chrome trace.  The
     replay's digests must equal both the twin's and the socket pass's. *)

module P = Server.Protocol
module J = Obs.Json
open Script

let now = Unix.gettimeofday
let reply_bytes = Obs.Histogram.make "e2e.reply.bytes"

(* --- joining client latencies to the server's event log --------------- *)

let service_latencies log =
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun path ->
      if Sys.file_exists path then
        List.iter
          (fun line ->
            match J.parse line with
            | Ok j when J.member "event" j = Some (J.Str "request.complete") -> (
                match (J.member "trace_id" j, J.member "latency_ms" j) with
                | Some (J.Str t), Some (J.Num ms) -> Hashtbl.replace tbl t ms
                | _ -> ())
            | _ -> ())
          (String.split_on_char '\n' (Drive.read_file path)))
    [ log ^ ".2"; log ^ ".1"; log ];
  tbl

(* Client latency minus service latency, per joined request. *)
let loop_waits (o : Workload.outcome) log =
  let service = service_latencies log in
  List.filter_map
    (fun (trace, _, client_ms) ->
      Option.map (fun s -> client_ms -. s) (Hashtbl.find_opt service trace))
    o.Workload.traced

(* --- the layer replay ---------------------------------------------------- *)

type replay = {
  mutable twin : Server.Service.t;
  telemetry : Server.Telemetry.t;  (** the twin's: every request an exemplar *)
  twin_sids : string option array;
  cursors : Replay.cursor array;
  handled : (string, float * float) Hashtbl.t;
      (** verb → (Service.handle ms, ms the program's spans cover), one
          binding per request handled with observability on *)
  mutable seq : int;
  mutable twin_mismatches : int;  (** decomposed vs twin digests *)
  digests : (int * int, string list) Hashtbl.t;
      (** (client, cycle) → decomposed digests, newest first *)
  mutable last_store : Version.Store.t option;
}

let twin_service telemetry registry =
  let service = Server.Service.create registry in
  Server.Service.set_telemetry service telemetry;
  service

(* The twin writes each request's captured span tree to [dir] as an
   exemplar file, which [step] reads back; only the newest is kept. *)
let make_replay ~dir resolve registry =
  let exemplar_dir = Filename.concat dir "exemplars" in
  Drive.mkdir_p exemplar_dir;
  let telemetry =
    Server.Telemetry.create ~slow_ms:0. ~exemplar_dir ~exemplar_keep:1 ()
  in
  {
    twin = twin_service telemetry registry;
    telemetry;
    twin_sids = Array.make clients None;
    cursors = Array.init clients (fun _ -> Replay.cursor resolve);
    handled = Hashtbl.create 16;
    seq = 0;
    twin_mismatches = 0;
    digests = Hashtbl.create 64;
    last_store = None;
  }

(* Run [f] leaving every counter as it was. *)
let uncounted f =
  let saved = List.map (fun c -> (c, Obs.Counter.value c)) (Obs.Counter.all ()) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (c, v) -> Obs.Counter.set c v) saved)
    f

(* The request span [Service.handle] captured under [trace], read back
   from its exemplar: the span's duration and the wall time the spans
   inside it cover (their union, so nested spans count once), in ms. *)
let handled_span rp trace =
  match Server.Telemetry.exemplar_path rp.telemetry trace with
  | Some path when Sys.file_exists path -> (
      let events =
        match J.parse (Drive.read_file path) with Ok j -> J.arr_items j | Error _ -> []
      in
      let interval e =
        match (J.member "ts" e, J.member "dur" e) with
        | Some (J.Num ts), Some (J.Num dur) -> Some (ts, ts +. dur)
        | _ -> None
      in
      (* preorder: the request span comes first *)
      match List.filter_map interval events with
      | [] -> None
      | (r0, r1) :: inner ->
          let covered, _ =
            List.fold_left
              (fun (acc, reach) (a, b) ->
                let b = Float.min b r1 in
                (acc +. Float.max 0. (b -. Float.max a reach), Float.max reach b))
              (0., r0) (List.sort compare inner)
          in
          Some ((r1 -. r0) /. 1000., covered /. 1000.))
  | _ -> None

let step rp ~client ~cycle request =
  rp.seq <- rp.seq + 1;
  let verb = Server.Service.verb_name request in
  let trace = Printf.sprintf "e2e-%d" rp.seq in
  let env =
    {
      P.id = rp.seq;
      session =
        (match request with
        | P.Open_session _ -> None
        | _ -> rp.twin_sids.(client));
      request;
      trace_id = Some trace;
    }
  in
  let reply = uncounted (fun () -> Server.Service.handle rp.twin env) in
  Option.iter (Hashtbl.add rp.handled verb) (handled_span rp trace);
  (match reply.P.result with
  | Ok (P.Opened { session; _ }) -> rp.twin_sids.(client) <- Some session
  | Ok P.Closed -> rp.twin_sids.(client) <- None
  | Ok _ -> ()
  | Error (code, msg) ->
      failwith
        (Printf.sprintf "layer replay: %s: %s %s" verb (P.error_code_name code) msg));
  let line = P.encode_request env in
  let cur = rp.cursors.(client) in
  let result =
    Obs.with_span "e2e.request"
      ~attrs:[ ("verb", verb) ]
      (fun () ->
        ignore (Replay.span "protocol.decode" (fun () -> P.parse_request line));
        let result = Replay.step cur request in
        let bytes =
          Replay.span "protocol.encode" (fun () ->
              String.length (P.encode_response reply))
        in
        Obs.observe reply_bytes (float_of_int bytes);
        result)
  in
  (match (request, cur.Replay.session) with
  | P.Open_session _, Some s -> rp.last_store <- Some s.Replay.store
  | _ -> ());
  match (result, reply.P.result) with
  | P.Evaluated mine, Ok (P.Evaluated twin) ->
      if mine.P.digest <> twin.P.digest then
        rp.twin_mismatches <- rp.twin_mismatches + 1;
      let key = (client, cycle) in
      Hashtbl.replace rp.digests key
        (mine.P.digest
        :: Option.value ~default:[] (Hashtbl.find_opt rp.digests key))
  | P.Evaluated _, _ -> rp.twin_mismatches <- rp.twin_mismatches + 1
  | _ -> ()

(* Run the clients' scripts request by request, round-robin. *)
let interleave rp ~cycle scripts =
  let scripts = Array.copy scripts in
  while Array.exists (( <> ) []) scripts do
    Array.iteri
      (fun client -> function
        | [] -> ()
        | r :: rest ->
            scripts.(client) <- rest;
            step rp ~client ~cycle r)
      scripts
  done

(* Rounds of cycles the layer replay runs (each client runs one cycle per
   round): a fixed amount of work, so the counters repeat exactly for a
   seed.  Chain-explore's rounds walk more seeds than the pool holds, so
   the replay revisits seeds the cache has already evicted. *)
let rounds = function
  | Paper_session -> 1000
  | Chain_explore -> 30
  | Chain_edit -> 6
  | Restart -> 3

(* Open/close workloads: warm up as the server did, untraced, then replay
   the rounds with spans on. *)
let replay_cycles (cfg : Workload.config) w =
  let rp =
    make_replay ~dir:cfg.dir
      (Replay.cached_resolver (Engine.Eval_cache.create ()))
      (Server.Registry.create ~jobs:1 ())
  in
  let warm = Array.init clients (fun client -> warmup cfg.sizes w ~seed:cfg.seed ~client) in
  let warm_rounds = Array.fold_left (fun m l -> max m (List.length l)) 0 warm in
  for i = 0 to warm_rounds - 1 do
    interleave rp ~cycle:(-1 - i)
      (Array.map (fun l -> Option.value ~default:[] (List.nth_opt l i)) warm)
  done;
  Obs.enable ();
  for cycle = 0 to rounds w - 1 do
    interleave rp ~cycle
      (Array.init clients (fun client ->
           Script.cycle cfg.sizes w ~seed:cfg.seed ~client ~cycle))
  done;
  (* What a drain persists and a warm boot replays: the last session's
     store, saved and loaded three times. *)
  (match rp.last_store with
  | Some store ->
      let dir = Filename.concat cfg.dir "layer-store" in
      for _ = 1 to 3 do
        Replay.span "store.save" (fun () -> Version.Store.save store ~dir);
        ignore
          (Replay.span "store.load" (fun () ->
               Version.Store.load
                 ~resolve:(Replay.cached_resolver (Engine.Eval_cache.create ()))
                 ~dir ()))
      done
  | None -> ());
  rp

(* The manifest the server persisted: which store directory holds each
   session. *)
let manifest_stores dir =
  match J.parse (Drive.read_file (Filename.concat dir "registry.json")) with
  | Ok j ->
      List.filter_map
        (fun s ->
          match (J.member "sid" s, J.member "store" s) with
          | Some (J.Str sid), Some (J.Str store) -> Some (sid, store)
          | _ -> None)
        (J.arr_items (Option.value ~default:J.Null (J.member "sessions" j)))
  | Error msg -> failwith ("layer replay: unreadable manifest: " ^ msg)

(* Restart: each cycle restores the pristine store the socket pass
   persisted (twice, as the server boots twice), edits, diffs and saves. *)
let replay_restart (cfg : Workload.config) (socket : Workload.outcome) =
  let pristine = Filename.concat cfg.dir "pristine" in
  let stores = manifest_stores pristine in
  let registry () = Server.Registry.create ~jobs:1 () in
  let rp =
    make_replay ~dir:cfg.dir
      (Replay.cached_resolver (Engine.Eval_cache.create ()))
      (registry ())
  in
  (* A fresh process: the twin restores through the registry, the
     decomposed side loads each session's store over a new cache. *)
  let boot () =
    let reg = registry () in
    Obs.disable ();
    ignore (Server.Registry.restore reg ~dir:pristine);
    Obs.enable ();
    rp.twin <- twin_service rp.telemetry reg;
    let resolve = Replay.cached_resolver (Engine.Eval_cache.create ()) in
    Array.iteri
      (fun client sid ->
        rp.twin_sids.(client) <- sid;
        Option.iter
          (fun sid ->
            let store =
              Replay.span "store.load" (fun () ->
                  Version.Store.load ~resolve
                    ~dir:(Filename.concat pristine (List.assoc sid stores))
                    ())
            in
            rp.cursors.(client).Replay.session <-
              Some { Replay.store; branch = "edits" })
          sid)
      socket.Workload.restart_sids
  in
  Obs.enable ();
  for c = 0 to rounds Restart - 1 do
    boot ();
    interleave rp ~cycle:c
      (Array.init clients (fun client ->
           restart_edit cfg.sizes ~seed:cfg.seed ~client ~cycle:c));
    boot ();
    interleave rp ~cycle:c (Array.make clients [ P.Diff { other = "main" } ]);
    Array.iteri
      (fun i (cur : Replay.cursor) ->
        Option.iter
          (fun (s : Replay.session) ->
            Replay.span "store.save" (fun () ->
                Version.Store.save s.Replay.store
                  ~dir:(Filename.concat cfg.dir (Printf.sprintf "layer-save-%d" i))))
          cur.Replay.session)
      rp.cursors
  done;
  rp

(* --- reading the trace ----------------------------------------------------- *)

let attr span k = List.assoc_opt k (Obs.Span.attrs span)

(* Duration of every span by name, outermost occurrence per nesting chain
   (a span directly inside one of the same name is not counted again). *)
let durations roots =
  let tbl = Hashtbl.create 64 in
  let rec walk parent s =
    let name = Obs.Span.name s in
    if parent <> Some name then
      Hashtbl.replace tbl name
        (Obs.Span.duration_ms s
        :: Option.value ~default:[] (Hashtbl.find_opt tbl name));
    List.iter (walk (Some name)) (Obs.Span.children s)
  in
  List.iter (walk None) roots;
  fun name -> Option.value ~default:[] (Hashtbl.find_opt tbl name)

let self_ms s =
  Obs.Span.duration_ms s
  -. List.fold_left (fun a c -> a +. Obs.Span.duration_ms c) 0. (Obs.Span.children s)

(* Per verb: request count, total request ms, and self ms per span name. *)
let self_times roots =
  let per_verb = Hashtbl.create 16 in
  List.iter
    (fun root ->
      match attr root "verb" with
      | Some verb when Obs.Span.name root = "e2e.request" ->
          let n, total, names =
            Option.value ~default:(0, 0., Hashtbl.create 16)
              (Hashtbl.find_opt per_verb verb)
          in
          let rec walk s =
            let k = Obs.Span.name s in
            Hashtbl.replace names k
              (self_ms s +. Option.value ~default:0. (Hashtbl.find_opt names k));
            List.iter walk (Obs.Span.children s)
          in
          walk root;
          Hashtbl.replace per_verb verb (n + 1, total +. Obs.Span.duration_ms root, names)
      | _ -> ())
    roots;
  Hashtbl.fold
    (fun verb (n, total, names) acc ->
      let top =
        Hashtbl.fold (fun k v acc -> (k, v /. total) :: acc) names []
        |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
      in
      (verb, n, top) :: acc)
    per_verb []
  |> List.sort compare

(* Per verb: the Service.handle ms and the ms the program's spans cover,
   of each request the twin handled with observability on. *)
let attribution rp =
  List.sort_uniq compare (Hashtbl.fold (fun verb _ acc -> verb :: acc) rp.handled [])
  |> List.map (fun verb ->
         let l = Hashtbl.find_all rp.handled verb in
         (verb, List.map fst l, List.map snd l))

(* --- the traced run -------------------------------------------------------- *)

type result = {
  metrics : (string * string * float option) list;  (** name, unit, value *)
  coverage : (string * float) list;
      (** verb → share of Service.handle the program's spans cover *)
  self : (string * int * (string * float) list) list;
  correct : bool;
  attempted : int;
  failed : int;
  notes : string list;
}

let counter = Obs.Metrics.value

let ratio a b = if b = 0 then None else Some (float_of_int a /. float_of_int b)

let run (cfg : Workload.config) w ~out_dir =
  (* one server instance per pass: the log join and the counters then
     describe a single process *)
  let cfg = { cfg with instances = 1 } in
  let untraced = Workload.run cfg w in
  let log = Filename.concat cfg.dir "server.log" in
  let traced = Workload.run ~log ~keep_all:true cfg w in
  let waits = loop_waits traced log in
  Obs.reset ();
  let rp =
    match w with
    | Restart -> replay_restart cfg traced
    | _ -> replay_cycles cfg w
  in
  Obs.disable ();
  let roots = Obs.finished_spans () in
  (* the replay against what the server answered in the traced pass *)
  let socket_mismatches =
    List.fold_left
      (fun n (key, served) ->
        match Hashtbl.find_opt rp.digests key with
        | Some mine when List.rev mine <> served -> n + 1
        | _ -> n)
      0 traced.Workload.cycles
  in
  let dur = durations roots in
  let p50 name = Metric.percentile (dur name) 50. in
  let us x = Option.map (fun v -> v *. 1000.) x in
  let attribution = attribution rp in
  let resolve_ms =
    let specs =
      match w with
      | Paper_session -> [ P.Paper ]
      | Chain_explore -> List.init 3 (explore_spec cfg.sizes ~seed:cfg.seed)
      | Chain_edit -> [ edit_spec cfg.sizes ~seed:cfg.seed ]
      | Restart -> [ restart_spec cfg.sizes ~seed:cfg.seed ]
    in
    List.concat_map
      (fun spec ->
        List.init 3 (fun _ ->
            let t0 = now () in
            ignore (Version.Scenario.resolve_fresh spec);
            (now () -. t0) *. 1000.))
      specs
  in
  let commit_ops =
    List.filter_map
      (fun op ->
        match dur ("e2e.store.commit." ^ op) with
        | [] -> None
        | l -> Some (op, l))
      [ "offer"; "rotate"; "select"; "confirm"; "insert" ]
  in
  let gauge k = List.assoc_opt k traced.Workload.sizes_seen in
  let throughput (o : Workload.outcome) = List.assoc "throughput_rps" o.Workload.values in
  let ms = "ms" and count = "count" in
  let per_verb =
    List.concat_map
      (fun (verb, hs, ns) ->
        let mh = Metric.median hs and mn = Metric.median ns in
        [
          ("service.handle_ms.p50." ^ verb, ms, Metric.percentile hs 50.);
          ( "service.unattributed_share." ^ verb,
            "ratio",
            match (mh, mn) with
            | Some h, Some n when h > 0. -> Some (1. -. (n /. h))
            | _ -> None );
        ])
      attribution
  in
  let metrics =
    [
      ("loop.wait_ms.p50", ms, Metric.percentile waits 50.);
      ("workers.wait_ms", ms, gauge "server.workers.wait_ms");
      ("loop.overloads", count, gauge "server.overloads_total");
      ("protocol.decode_us.p50", "us", us (p50 "e2e.protocol.decode"));
      ("protocol.encode_us.p50", "us", us (p50 "e2e.protocol.encode"));
      ( "protocol.reply_bytes.p50",
        "bytes",
        Some (Obs.Histogram.percentile reply_bytes 50.) );
    ]
    @ per_verb
    @ [
        ("scenario.resolve_ms.p50", ms, Metric.percentile resolve_ms 50.);
        ( "store.commit_ms.p50",
          ms,
          Metric.percentile (List.concat_map snd commit_ops) 50. );
      ]
    @ List.map
        (fun (op, l) -> ("store.commit_ms.p50." ^ op, ms, Metric.percentile l 50.))
        commit_ops
    @ [
        ("store.commit_ms.p50.merge", ms, p50 "e2e.store.merge");
        ("store.save_ms", ms, p50 "e2e.store.save");
        ("store.load_ms", ms, p50 "e2e.store.load");
        ( "version.snapshot.commits_replayed",
          count,
          Some (float_of_int (counter "version.snapshot.commits_replayed")) );
        ("op_walk.data_walk_ms.p50", ms, p50 "op_walk.data_walk");
        ("illustration.select_ms.p50", ms, p50 "illustration.select");
        ("core.target_view_ms.p50", ms, p50 "e2e.core.target_view");
        ("walk.alternatives", count, Some (float_of_int (counter "walk.alternatives")));
        ("engine.dg_ms.p50", ms, p50 "engine.dg");
        ("engine.fj_ms.p50", ms, p50 "engine.fj");
        ( "cache.dg.hit_ratio",
          "ratio",
          ratio (counter "cache.dg.hits")
            (counter "cache.dg.hits" + counter "cache.dg.misses") );
        ( "cache.fj.hit_ratio",
          "ratio",
          ratio (counter "cache.fj.hits")
            (counter "cache.fj.hits" + counter "cache.fj.misses") );
        ( "cache.evictions",
          count,
          Some
            (float_of_int
               (counter "cache.dg.evictions" + counter "cache.fj.evictions")) );
        ( "cache.promote.dg.repaired",
          count,
          Some (float_of_int (counter "cache.promote.dg.repaired")) );
        ( "cache.promote.dg.free",
          count,
          Some (float_of_int (counter "cache.promote.dg.free")) );
        ("delta.fallbacks", count, Some (float_of_int (counter "delta.fallbacks")));
        ( "cache.bytes_resident",
          "bytes",
          Some (float_of_int (counter "cache.bytes_resident")) );
        ("fulldisj.compute_ms.p50", ms, p50 "fulldisj.compute");
        ("fulldisj.min_union_ms.p50", ms, p50 "fulldisj.min_union");
        ( "fulldisj.subsumption_checks",
          count,
          Some (float_of_int (counter "fulldisj.subsumption_checks")) );
        ( "fulldisj.kept_ratio",
          "ratio",
          ratio (counter "fulldisj.assoc_kept") (counter "fulldisj.assoc_considered") );
        ("fulldisj.to_relation_ms.p50", ms, p50 "e2e.fulldisj.to_relation");
        ("render.digest_ms.p50", ms, p50 "e2e.render.digest");
        ( "render.bytes.p50",
          "bytes",
          Some (Obs.Histogram.percentile Replay.render_bytes 50.) );
        ( "algebra.join.rows_out",
          count,
          Some (float_of_int (counter "algebra.join.rows_out")) );
        ( "algebra.join.hash_probes",
          count,
          Some (float_of_int (counter "algebra.join.hash_probes")) );
        ("value_pool.bytes", "bytes", gauge "server.value_pool.bytes");
        ( "trace_overhead_pct",
          "%",
          match (throughput untraced, throughput traced) with
          | Some u, Some t when u > 0. -> Some ((u -. t) /. u *. 100.)
          | _ -> None );
      ]
  in
  let coverage =
    List.filter_map
      (fun (verb, hs, ns) ->
        match (Metric.median hs, Metric.median ns) with
        | Some h, Some n when h > 0. -> Some (verb, n /. h)
        | _ -> None)
      attribution
  in
  Drive.mkdir_p out_dir;
  let name = Script.name w in
  (* The first requests' span trees; the whole forest of a long replay
     would make a trace file too large to open. *)
  let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> [] in
  Drive.write_file
    (Filename.concat out_dir (Printf.sprintf "trace-%s.json" name))
    (Obs.Trace_export.to_chrome (take 2000 roots));
  let failed =
    untraced.Workload.failed + traced.Workload.failed + rp.twin_mismatches
    + socket_mismatches
  in
  Obs.reset ();
  {
    metrics;
    coverage;
    self = self_times roots;
    correct = failed = 0;
    attempted = untraced.Workload.attempted + traced.Workload.attempted + rp.seq;
    failed;
    notes =
      [
        Printf.sprintf "rounds replayed in process: %d" (rounds w);
        Printf.sprintf "throughput untraced %s req/s, traced %s req/s"
          (Report.value_repr (throughput untraced))
          (Report.value_repr (throughput traced));
        Printf.sprintf "requests joined to the server log: %d of %d"
          (List.length waits) (List.length traced.Workload.traced);
        Printf.sprintf "digest mismatches: replay vs Service.handle %d, replay vs socket %d"
          rp.twin_mismatches socket_mismatches;
      ];
  }

let print r =
  List.iter
    (fun (name, unit_, v) ->
      Printf.printf "%s %s %s\n" name (Report.value_repr v) unit_)
    r.metrics;
  print_endline "program spans / Service.handle (medians), per verb:";
  List.iter (fun (verb, c) -> Printf.printf "  %-9s %5.1f%%\n" verb (c *. 100.)) r.coverage;
  print_endline "self time per verb (share of the replayed request, top 6):";
  List.iter
    (fun (verb, n, top) ->
      Printf.printf "  %-9s (%d) %s\n" verb n
        (String.concat "  "
           (List.map
              (fun (k, share) -> Printf.sprintf "%s %.1f%%" k (share *. 100.))
              (List.filteri (fun i _ -> i < 6) top))))
    r.self;
  List.iter print_endline r.notes

let to_json r =
  J.Obj
    [
      ( "metrics",
        J.Obj
          (List.map
             (fun (n, u, v) ->
               ( n,
                 J.Obj
                   [
                     ("value", Option.fold ~none:J.Null ~some:(fun x -> J.Num x) v);
                     ("unit", J.Str u);
                   ] ))
             r.metrics) );
      ("coverage", J.Obj (List.map (fun (v, c) -> (v, J.Num c)) r.coverage));
      ( "self_time",
        J.Obj
          (List.map
             (fun (verb, n, top) ->
               ( verb,
                 J.Obj
                   [
                     ("requests", J.Num (float_of_int n));
                     ("share", J.Obj (List.map (fun (k, s) -> (k, J.Num s)) top));
                   ] ))
             r.self) );
      ("notes", J.Arr (List.map (fun s -> J.Str s) r.notes));
    ]
