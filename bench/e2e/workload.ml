(* One measured run of one workload against the real server: set-up,
   the timed window and the stop, repeated over several server instances,
   then the correctness check that replays sampled cycles in process. *)

module P = Server.Protocol
open Script

type config = {
  sizes : sizes;
  seed : int;
  seconds : float;  (** length of the timed window *)
  instances : int;  (** servers the window is split over (not restart) *)
  dir : string;  (** scratch directory for sockets, stores and logs *)
}

type outcome = {
  workload : workload;
  values : (string * float option) list;
      (** every {!Metric.defs} entry; [None] where the workload never
          sends the metric's verb *)
  samples : (string * int) list;  (** per-verb latency sample counts *)
  attempted : int;
  failed : int;  (** error and overloaded replies plus digest mismatches *)
  mismatches : int;
  checked : int;  (** cycles replayed in process *)
  first_error : string option;
  sizes_seen : (string * float) list;
      (** result cardinalities and server cache/pool gauges *)
  window_s : float;
  cycles : ((int * int) * string list) list;
      (** the window's kept cycles, with their served digests *)
  traced : (string * string * float) list;
  restart_sids : string option array;
      (** restart: each client's session in the pristine store *)
}

(* What a socket phase measured, before the metrics are derived. *)
type raw = {
  obs : Drive.obs;
  probe_traces : (string * string * float) list;
      (** the harness's own requests (restart's boot pings and diffs),
          kept apart from [obs] but joined to the server log like it *)
  window_s : float;  (** time the measured requests were sent over *)
  setups : float list;
  drains : float list;
  rss : float list;
  gauges : (string * float) list;
  lost : float option;
  restart_sids : string option array;
}

(* The first cycle and every 8th are checked. *)
let sampled cycle = cycle mod 8 = 0

(* Cycle numbers of successive server instances start this far apart, so
   every instance's inserted keys are distinct. *)
let instance_stride = 1 lsl 16

let expected_digests cfg w ~client ~cycle =
  let script =
    match w with
    | Restart ->
        restart_setup cfg.sizes ~seed:cfg.seed ~client
        @ restart_edit cfg.sizes ~seed:cfg.seed ~client ~cycle
    | _ -> Script.cycle cfg.sizes w ~seed:cfg.seed ~client ~cycle
  in
  Replay.digests Replay.fresh_resolver script

let count_mismatches cfg w cycles =
  List.fold_left
    (fun n ((client, cycle), got) ->
      if sampled cycle && expected_digests cfg w ~client ~cycle <> got then n + 1
      else n)
    0 cycles

let connect_all srv = Array.init clients (fun _ -> Drive.connect srv)
let close_all = Array.iter Drive.close

let stats_of o conn =
  match Drive.call o conn P.Stats with
  | Some (P.Stats_report pairs) -> pairs
  | _ -> []

let pick keys pairs = List.filter (fun (k, _) -> List.mem k keys) pairs

let server_gauges =
  [
    "server.cache.entries";
    "server.cache.bytes_resident";
    "server.value_pool.bytes";
    "server.workers.wait_ms";
    "server.overloads_total";
  ]

let raise_on_errors what (o : Drive.obs) =
  if o.Drive.errors > 0 || o.Drive.overloads > 0 then
    failwith
      (Printf.sprintf "%s: %d error and %d overloaded replies (first: %s)" what
         o.Drive.errors o.Drive.overloads
         (Option.value ~default:"-" o.Drive.first_error))

(* --- open/close workloads --------------------------------------------- *)

(* Spawn a server and warm it up: the server, its connections and the
   set-up time. *)
let set_up ?log cfg w =
  let srv = Drive.spawn ~dir:cfg.dir ?log () in
  let conns = connect_all srv in
  let warm = Drive.obs () in
  let scripts =
    Array.init clients (fun client -> warmup cfg.sizes w ~seed:cfg.seed ~client)
  in
  ignore
    (Drive.drive warm conns (fun ~client ~cycle -> List.nth_opt scripts.(client) cycle));
  raise_on_errors "warm-up" warm;
  (srv, conns, Drive.now () -. srv.Drive.spawned_at)

(* Where a set-up is cheap, [setup_s] gets more samples than the
   instances give: extra set-ups (spawn, warm up, stop) up to
   [setup_samples] in all, while they fit in [setup_budget_s]. *)
let setup_samples = 15
let setup_budget_s = 1.

(* The window is split over [cfg.instances] servers, each set up
   (spawned and warmed) afresh and stopped after its share: the metrics
   pool every instance's samples, so no single process's placement,
   heap layout or luck decides a run. *)
let socket_run ?log ~keep_all cfg w =
  let o = Drive.obs ~keep_traces:(log <> None) () in
  let share = cfg.seconds /. float_of_int cfg.instances in
  let window_s = ref 0. and setups = ref [] and drains = ref [] and rss = ref [] in
  let gauges = ref [] in
  for instance = 0 to cfg.instances - 1 do
    let srv, conns, setup = set_up ?log cfg w in
    setups := setup :: !setups;
    let t0 = Drive.now () in
    ignore
      (Drive.drive o conns ~until:(t0 +. share)
         ~first:(instance * instance_stride)
         ~keep:(if keep_all then fun _ -> true else sampled)
         (fun ~client ~cycle ->
           Some (Script.cycle cfg.sizes w ~seed:cfg.seed ~client ~cycle)));
    window_s := !window_s +. (Drive.now () -. t0);
    gauges := pick server_gauges (stats_of (Drive.obs ()) conns.(0));
    rss := Drive.vm_hwm_mb srv.Drive.pid :: !rss;
    close_all conns;
    drains := Drive.terminate srv :: !drains
  done;
  let spent = ref 0. in
  while
    List.length !setups < setup_samples
    && !spent +. Option.get (Metric.median !setups) < setup_budget_s
  do
    let t0 = Drive.now () in
    let srv, conns, setup = set_up cfg w in
    setups := setup :: !setups;
    close_all conns;
    ignore (Drive.terminate srv);
    spent := !spent +. (Drive.now () -. t0)
  done;
  {
    obs = o;
    probe_traces = [];
    window_s = !window_s;
    setups = !setups;
    drains = !drains;
    rss = !rss;
    gauges = !gauges;
    lost = None;
    restart_sids = [||];
  }

(* --- restart ------------------------------------------------------------ *)

(* Diff of the session's branch against [main], in R1 rows. *)
let r1_drift o conn sid =
  match Drive.call o conn ~session:sid (P.Diff { other = "main" }) with
  | Some (P.Stats_report pairs) ->
      Option.value ~default:0. (List.assoc_opt "diff.rows.R1" pairs)
  | _ -> failwith "restart: diff failed"

let boot ?log o ~dir ~store_dir =
  let srv = Drive.spawn ~dir ~store_dir ?log () in
  let conns = connect_all srv in
  (match Drive.call o conns.(0) P.Ping with
  | Some P.Pong -> ()
  | _ -> failwith "restart: no pong after boot");
  (srv, conns, Drive.now () -. srv.Drive.spawned_at)

(* The window holds whole cycles: copies, boots and kills as well as
   requests.  Only the edit phases count as its length, so
   [throughput_rps] measures serving, and boots show in [setup_s]. *)
let restart_run ?log ~keep_all cfg =
  let pristine = Filename.concat cfg.dir "pristine"
  and store = Filename.concat cfg.dir "store" in
  (* Set-up: persist a store holding both clients' sessions. *)
  Drive.rm_rf pristine;
  let srv = Drive.spawn ~dir:cfg.dir ~store_dir:pristine ?log () in
  let conns = connect_all srv in
  let warm = Drive.obs () in
  let sids =
    Drive.drive warm conns (fun ~client ~cycle ->
        if cycle = 0 then Some (restart_setup cfg.sizes ~seed:cfg.seed ~client)
        else None)
  in
  raise_on_errors "restart set-up" warm;
  close_all conns;
  ignore (Drive.terminate srv);
  let o = Drive.obs ~keep_traces:(log <> None) () in
  let probes = Drive.obs ~keep_traces:(log <> None) () in
  let boots = ref [] and drains = ref [] and rss = ref [] and gauges = ref [] in
  let acked = ref 0 and lost = ref 0. and busy = ref 0. in
  let t0 = Drive.now () in
  let cycle = ref 0 in
  while !cycle = 0 || Drive.now () < t0 +. cfg.seconds do
    let c = !cycle in
    Drive.rm_rf store;
    Drive.copy_tree pristine store;
    let srv, conns, b = boot ?log probes ~dir:cfg.dir ~store_dir:store in
    boots := b :: !boots;
    let before = o.Drive.acked_inserts in
    let t = Drive.now () in
    ignore
      (Drive.drive o conns ~sids ~first:c
         ~keep:(if keep_all then fun _ -> true else sampled)
         (fun ~client ~cycle ->
           if cycle = c then Some (restart_edit cfg.sizes ~seed:cfg.seed ~client ~cycle)
           else None));
    busy := !busy +. (Drive.now () -. t);
    let acked_now = o.Drive.acked_inserts - before in
    acked := !acked + acked_now;
    gauges := pick server_gauges (stats_of (Drive.obs ()) conns.(0));
    rss := Drive.vm_hwm_mb srv.Drive.pid :: !rss;
    close_all conns;
    Drive.kill srv;
    let srv, conns, b = boot ?log probes ~dir:cfg.dir ~store_dir:store in
    boots := b :: !boots;
    let survived =
      Array.fold_left ( +. ) 0.
        (Array.mapi
           (fun i conn ->
             match sids.(i) with
             | Some sid ->
                 Float.max 0.
                   (r1_drift probes conn sid -. float_of_int cfg.sizes.restart_inserts)
             | None -> 0.)
           conns)
    in
    lost := !lost +. (float_of_int acked_now -. survived);
    rss := Drive.vm_hwm_mb srv.Drive.pid :: !rss;
    close_all conns;
    drains := Drive.terminate srv :: !drains;
    incr cycle
  done;
  {
    obs = o;
    probe_traces = probes.Drive.traced;
    window_s = !busy;
    setups = !boots;
    drains = !drains;
    rss = !rss;
    gauges = !gauges;
    lost = (if !acked = 0 then None else Some (!lost /. float_of_int !acked));
    restart_sids = sids;
  }

(* --- metrics ------------------------------------------------------------ *)

let pooled o verbs = List.concat_map (Drive.latencies o) verbs

let values { obs = o; window_s; setups; drains; rss; lost; _ } ~mismatches =
  let pct verbs q = Metric.percentile (pooled o verbs) q in
  let fail = o.Drive.errors + o.Drive.overloads + mismatches in
  [
    ("setup_s", Metric.median setups);
    ("throughput_rps", Some (float_of_int o.Drive.ok /. window_s));
    ( "error_ratio",
      Some (float_of_int fail /. float_of_int (max 1 o.Drive.attempted)) );
    ("evaluate_p50_ms", pct [ "evaluate" ] 50.);
    ("evaluate_p90_ms", pct [ "evaluate" ] 90.);
    ("evaluate_p95_ms", pct [ "evaluate" ] 95.);
    ("offer_p50_ms", pct [ "offer" ] 50.);
    ("offer_p95_ms", pct [ "offer" ] 95.);
    ("insert_p50_ms", pct [ "insert" ] 50.);
    ("insert_p95_ms", pct [ "insert" ] 95.);
    ("merge_p50_ms", pct [ "merge" ] 50.);
    ("open_p50_ms", pct [ "open" ] 50.);
    ("control_p50_ms", pct control_verbs 50.);
    ("rss_peak_mb", Metric.median rss);
    ("drain_s", Metric.median drains);
    ("acked_lost_ratio", lost);
  ]

let run ?log ?(keep_all = false) cfg w =
  Drive.mkdir_p cfg.dir;
  let raw =
    match w with
    | Restart -> restart_run ?log ~keep_all cfg
    | _ -> socket_run ?log ~keep_all cfg w
  in
  let o = raw.obs in
  let mismatches = count_mismatches cfg w o.Drive.cycles in
  {
    workload = w;
    values = values raw ~mismatches;
    samples =
      Hashtbl.fold (fun verb l acc -> (verb, List.length l) :: acc) o.Drive.latencies []
      |> List.sort compare;
    attempted = o.Drive.attempted;
    failed = o.Drive.errors + o.Drive.overloads + mismatches;
    mismatches;
    checked = List.length (List.filter (fun ((_, c), _) -> sampled c) o.Drive.cycles);
    first_error = o.Drive.first_error;
    sizes_seen =
      List.sort compare
        (Hashtbl.fold
           (fun k n acc -> (k, float_of_int n) :: acc)
           o.Drive.rows raw.gauges);
    window_s = raw.window_s;
    cycles = o.Drive.cycles;
    traced = o.Drive.traced @ raw.probe_traces;
    restart_sids = raw.restart_sids;
  }
