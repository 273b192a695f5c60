module J = Obs.Json

type metrics = {
  (* One lock per session: [record_op] runs on the worker domain owning
     the session's shard while [session_gauges] may run on any other shard
     (a sessionless [stats] scrape). *)
  mutex : Mutex.t;
  per_op : (string, int) Hashtbl.t;
  (* accumulated per-request cache.* counter deltas (hits, misses,
     promote outcomes...) attributed to this session's requests *)
  cache_deltas : (string, int) Hashtbl.t;
  mutable requests : int;
  mutable errors : int;
  mutable latencies_us : float list;  (** newest first *)
  mutable latency_retained : int;  (** length of [latencies_us] *)
  mutable latency_max : float;
  mutable latency_sum : float;
  (* Workspace-shape gauges (database version, entry count, branch count)
     cached here so a stats scrape never touches the session's version
     store from a foreign domain — the owning shard refreshes them after
     every session verb ([record_op]), so they are at most one operation
     stale for sessions sharing a store across shards. *)
  mutable db_version : int;
  mutable entries : int;
  mutable branches : int;
}

(* Latency samples retained per session for the percentile report.  Beyond
   the cap the window slides: percentiles describe the most recent
   [latency_keep] requests (mean/max stay all-time).  Mirrors the
   Obs.Histogram reservoir fix — a long-lived session must not retain one
   float per request forever. *)
let latency_keep = 4096

type session = {
  sid : string;
  scenario : Protocol.scenario;
  opened_at : float;
  store : Version.Store.t;
  mutable branch : string;
  (* Shard pinning key: assigned per version *store*, so sessions sharing
     a store (open_branch) land on one worker shard and their commits —
     which mutate the shared store's tables — serialize without locks. *)
  affinity : int;
  metrics : metrics;
}

type t = {
  cache : Engine.Eval_cache.t option;
  jobs : int;
  (* Guards [sessions]: opened/found/closed from any worker shard. *)
  sessions_mutex : Mutex.t;
  sessions : (string, session) Hashtbl.t;
  next_sid : int Atomic.t;
  next_affinity : int Atomic.t;
  opened_total : int Atomic.t;
  requests_total : int Atomic.t;
  errors_total : int Atomic.t;
  overloads_total : int Atomic.t;
  started_at : float;
}

let create ?jobs ?(no_cache = false) ?cache_bytes () =
  let jobs = match jobs with Some j -> j | None -> Par.default_jobs () in
  let cache =
    if no_cache then None
    else Some (Engine.Eval_cache.create ?byte_budget:cache_bytes ())
  in
  {
    cache;
    jobs;
    sessions_mutex = Mutex.create ();
    sessions = Hashtbl.create 16;
    next_sid = Atomic.make 1;
    next_affinity = Atomic.make 0;
    opened_total = Atomic.make 0;
    requests_total = Atomic.make 0;
    errors_total = Atomic.make 0;
    overloads_total = Atomic.make 0;
    started_at = Unix.gettimeofday ();
  }

let cache t = t.cache
let jobs t = t.jobs

(* The workspace factory every session's version store resolves scenarios
   through: all contexts share the registry's one cache and jobs setting,
   so sessions (and branches, and changelog replays) key their
   memo entries into the same cache.  Deterministic per spec — resolution
   itself is memoized in [Version.Scenario]. *)
let resolver t spec =
  let db, kb, mapping = Version.Scenario.resolve spec in
  let ctx =
    match t.cache with
    | Some cache -> Clio.Eval_ctx.create ~cache ~jobs:t.jobs ~kb db
    | None -> Clio.Eval_ctx.create ~no_cache:true ~jobs:t.jobs ~kb db
  in
  Clio.Workspace.create ctx mapping

let ws s = Version.Store.checkout s.store s.branch
let affinity s = s.affinity

let fresh_metrics () =
  {
    mutex = Mutex.create ();
    per_op = Hashtbl.create 8;
    cache_deltas = Hashtbl.create 8;
    requests = 0;
    errors = 0;
    latencies_us = [];
    latency_retained = 0;
    latency_max = 0.;
    latency_sum = 0.;
    db_version = 0;
    entries = 0;
    branches = 0;
  }

let fresh_sid t = Printf.sprintf "s%d" (Atomic.fetch_and_add t.next_sid 1)

(* Refresh the cached workspace-shape gauges from the store.  Called only
   where the caller owns the store: at session creation (the opening
   request is the only one touching a fresh store; open_branch runs on the
   base session's shard) and from [record_op] on the session's shard. *)
let refresh_gauges s =
  let m = s.metrics in
  let ws = ws s in
  let db_version = Clio.Eval_ctx.version (Clio.Workspace.ctx ws) in
  let entries = List.length (Clio.Workspace.entries ws) in
  let branches = List.length (Version.Store.branch_names s.store) in
  Mutex.protect m.mutex (fun () ->
      m.db_version <- db_version;
      m.entries <- entries;
      m.branches <- branches)

let add_session t ~scenario ~store ~branch ~affinity =
  let session =
    {
      sid = fresh_sid t;
      scenario;
      opened_at = Unix.gettimeofday ();
      store;
      branch;
      affinity;
      metrics = fresh_metrics ();
    }
  in
  refresh_gauges session;
  Atomic.incr t.opened_total;
  Mutex.protect t.sessions_mutex (fun () ->
      Hashtbl.replace t.sessions session.sid session);
  session

let open_session t spec =
  let store = Version.Store.create ~resolve:(resolver t) spec in
  add_session t ~scenario:spec ~store ~branch:Version.Store.main
    ~affinity:(Atomic.fetch_and_add t.next_affinity 1)

let find t sid =
  Mutex.protect t.sessions_mutex (fun () -> Hashtbl.find_opt t.sessions sid)

(* A new session over an existing session's store, positioned on one of
   its branches — two clients refining one scenario, isolated per branch.
   The store (and through it the commit DAG) is shared by reference, and
   with it the base session's shard affinity: the new session's commits
   mutate the same store, so they must serialize onto the same shard. *)
let open_branch t ~of_session ~branch =
  match find t of_session with
  | None -> None
  | Some base ->
      if not (Version.Store.has_branch base.store branch) then
        invalid_arg (Printf.sprintf "unknown branch %S" branch)
      else
        Some
          (add_session t ~scenario:base.scenario ~store:base.store ~branch
             ~affinity:base.affinity)

let close_session t sid =
  Mutex.protect t.sessions_mutex (fun () ->
      if Hashtbl.mem t.sessions sid then begin
        Hashtbl.remove t.sessions sid;
        true
      end
      else false)

let session_count t =
  Mutex.protect t.sessions_mutex (fun () -> Hashtbl.length t.sessions)

let session_ids t =
  Mutex.protect t.sessions_mutex (fun () ->
      Hashtbl.fold (fun sid _ acc -> sid :: acc) t.sessions [])
  |> List.sort compare

let count_request t = Atomic.incr t.requests_total
let count_error t = Atomic.incr t.errors_total
let count_overload t = Atomic.incr t.overloads_total
let overloads t = Atomic.get t.overloads_total

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let record_op ?(cache_deltas = []) s ~op ~latency_us ~ok =
  let m = s.metrics in
  Mutex.protect m.mutex (fun () ->
      m.requests <- m.requests + 1;
      if not ok then m.errors <- m.errors + 1;
      Hashtbl.replace m.per_op op
        (1 + Option.value ~default:0 (Hashtbl.find_opt m.per_op op));
      List.iter
        (fun (name, d) ->
          Hashtbl.replace m.cache_deltas name
            (d + Option.value ~default:0 (Hashtbl.find_opt m.cache_deltas name)))
        cache_deltas;
      m.latencies_us <- latency_us :: m.latencies_us;
      m.latency_retained <- m.latency_retained + 1;
      (* amortized O(1): truncate back to the cap only at twice the cap *)
      if m.latency_retained > 2 * latency_keep then begin
        m.latencies_us <- take latency_keep m.latencies_us;
        m.latency_retained <- latency_keep
      end;
      m.latency_sum <- m.latency_sum +. latency_us;
      if latency_us > m.latency_max then m.latency_max <- latency_us);
  (* Off the metrics lock: reads the version store, owned by this shard. *)
  refresh_gauges s

let gauge = Obs.Prom_export.gauge

(* A session's gauges are named [session.<m>] and labeled [session=<sid>];
   [stats_key] flattens them to [sessions.<sid>.<m>].  Both directions
   live here so the naming rule has one owner. *)
let session_prefix = "session."

(* Reads only the metrics record (under its lock) — never the version
   store, which belongs to the session's worker shard.  The workspace-shape
   gauges come from the cache [record_op] maintains. *)
let session_gauges s =
  let m = s.metrics in
  let sorted, ops, cache, requests, errors, latency_sum, latency_max, dbv, entries, branches
      =
    Mutex.protect m.mutex (fun () ->
        let sorted = Array.of_list m.latencies_us in
        let ops =
          Hashtbl.fold
            (fun op n acc -> ("ops." ^ op, float_of_int n) :: acc)
            m.per_op []
          |> List.sort compare
        in
        let cache =
          Hashtbl.fold
            (fun name d acc -> (name, float_of_int d) :: acc)
            m.cache_deltas []
          |> List.sort compare
        in
        ( sorted,
          ops,
          cache,
          m.requests,
          m.errors,
          m.latency_sum,
          m.latency_max,
          m.db_version,
          m.entries,
          m.branches ))
  in
  Array.sort compare sorted;
  let p = Obs.Histogram.nearest_rank sorted in
  List.map
    (fun (m, v) -> gauge ~labels:[ ("session", s.sid) ] (session_prefix ^ m) v)
    ([
       ("requests", float_of_int requests);
       ("errors", float_of_int errors);
       ( "latency_us.mean",
         if requests = 0 then 0. else latency_sum /. float_of_int requests );
       ("latency_us.p50", p 50.);
       ("latency_us.p99", p 99.);
       ("latency_us.max", latency_max);
       ("db_version", float_of_int dbv);
       ("entries", float_of_int entries);
       ("branches", float_of_int branches);
     ]
    @ ops @ cache)

let stats_key (g : Obs.Prom_export.gauge) =
  match g.labels with
  | [ ("session", sid) ] ->
      let n = String.length session_prefix in
      Printf.sprintf "sessions.%s.%s" sid
        (String.sub g.gauge_name n (String.length g.gauge_name - n))
  | _ -> g.gauge_name

let server_gauges t =
  [
    gauge "server.sessions.open" (float_of_int (session_count t));
    gauge "server.sessions.opened_total" (float_of_int (Atomic.get t.opened_total));
    gauge "server.requests_total" (float_of_int (Atomic.get t.requests_total));
    gauge "server.errors_total" (float_of_int (Atomic.get t.errors_total));
    gauge "server.overloads_total" (float_of_int (Atomic.get t.overloads_total));
    gauge "server.uptime_s" (Unix.gettimeofday () -. t.started_at);
    gauge "server.jobs" (float_of_int t.jobs);
    (* The pool is process-global and never evicts, so these readings are
       the leak detector for long-lived servers (docs/data-plane.md). *)
    gauge "server.value_pool.count" (float_of_int (Relational.Value_pool.count ()));
    gauge "server.value_pool.bytes"
      (float_of_int (Relational.Value_pool.footprint_bytes ()));
  ]
  @
  match t.cache with
  | None -> [ gauge "server.cache.enabled" 0. ]
  | Some cache ->
      [
        gauge "server.cache.enabled" 1.;
        gauge "server.cache.entries"
          (float_of_int (Engine.Eval_cache.entry_count cache));
        gauge "server.cache.bytes_resident"
          (float_of_int (Engine.Eval_cache.bytes_resident cache));
      ]

let gauges t =
  server_gauges t
  @ List.concat_map
      (fun sid ->
        match find t sid with None -> [] | Some s -> session_gauges s)
      (session_ids t)

(* --- persistence: one directory per store, plus a session manifest ---- *)

let registry_file dir = Filename.concat dir "registry.json"
let registry_format = 1

(* Persist every open session: each distinct store (sessions opened via
   [open_branch] share one) saves under its own subdirectory, and the
   manifest records which store and branch each sid points at.  Written on
   graceful shutdown; [restore] makes the next boot resume warm. *)
let persist t ~dir =
  Version.Store.mkdir_p dir;
  let stores = ref [] in
  let store_name store =
    match List.find_opt (fun (_, s) -> s == store) !stores with
    | Some (name, _) -> name
    | None ->
        let name = Printf.sprintf "store-%d" (List.length !stores + 1) in
        stores := !stores @ [ (name, store) ];
        name
  in
  let sessions =
    List.filter_map (find t) (session_ids t)
    |> List.map (fun s ->
           J.Obj
             [
               ("sid", J.Str s.sid);
               ("branch", J.Str s.branch);
               ("store", J.Str (store_name s.store));
             ])
  in
  List.iter
    (fun (name, store) ->
      Version.Store.save store ~dir:(Filename.concat dir name))
    !stores;
  Version.Store.write_file (registry_file dir)
    (J.to_string
       (J.Obj
          [
            ("format", J.Num (float_of_int registry_format));
            ("next_sid", J.Num (float_of_int (Atomic.get t.next_sid)));
            ("sessions", J.Arr sessions);
          ]))

let fail fmt = Printf.ksprintf failwith fmt

(* Rebuild the sessions recorded by [persist]: load each store once
   (changelog replay re-warms the shared cache as a side effect) and
   re-point the recorded sids at the recovered branches.  Session metrics
   restart at zero — they describe this process's requests.  Returns the
   number of sessions restored. *)
let restore t ~dir =
  let j =
    match J.parse (Version.Store.read_file (registry_file dir)) with
    | Ok j -> j
    | Error msg -> fail "Registry.restore: unreadable manifest: %s" msg
  in
  try
    if J.int "format" j <> registry_format then
      fail "Registry.restore: unsupported manifest format";
    let next_sid = J.int "next_sid" j in
    let loaded = Hashtbl.create 4 in
    (* One affinity per distinct store, like [open_session]/[open_branch]:
       restored sessions sharing a store must land on one worker shard. *)
    let store_of name =
      match Hashtbl.find_opt loaded name with
      | Some pair -> pair
      | None ->
          let store =
            Version.Store.load ~resolve:(resolver t)
              ~dir:(Filename.concat dir name) ()
          in
          let pair = (store, Atomic.fetch_and_add t.next_affinity 1) in
          Hashtbl.replace loaded name pair;
          pair
    in
    let restored = ref 0 in
    List.iter
      (fun s ->
        let sid = J.str "sid" s in
        let branch = J.str "branch" s in
        let store, affinity = store_of (J.str "store" s) in
        if not (Version.Store.has_branch store branch) then
          fail "Registry.restore: session %s names unknown branch %S" sid branch;
        let session =
          {
            sid;
            scenario = Version.Store.spec store;
            opened_at = Unix.gettimeofday ();
            store;
            branch;
            affinity;
            metrics = fresh_metrics ();
          }
        in
        refresh_gauges session;
        Mutex.protect t.sessions_mutex (fun () ->
            Hashtbl.replace t.sessions sid session);
        Atomic.incr t.opened_total;
        incr restored)
      (J.arr "sessions" j);
    (let rec bump () =
       let cur = Atomic.get t.next_sid in
       if next_sid > cur && not (Atomic.compare_and_set t.next_sid cur next_sid)
       then bump ()
     in
     bump ());
    !restored
  with J.Bad msg -> fail "Registry.restore: %s" msg
