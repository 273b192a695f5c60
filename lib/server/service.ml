open Relational
module P = Protocol

type t = {
  registry : Registry.t;
  (* Atomic: a worker domain executing [shutdown] flips it while the I/O
     loop polls it between selects. *)
  draining : bool Atomic.t;
  mutable extra_stats : unit -> Obs.Prom_export.gauge list;
  mutable telemetry : Telemetry.t;
}

let create registry =
  {
    registry;
    draining = Atomic.make false;
    extra_stats = (fun () -> []);
    telemetry = Telemetry.none;
  }

let registry t = t.registry
let set_extra_stats t f = t.extra_stats <- f
let set_telemetry t tel = t.telemetry <- tel
let telemetry t = t.telemetry
let draining t = Atomic.get t.draining

let scheme_of rel =
  Array.to_list (Array.map Attr.to_string (Schema.attrs (Relation.schema rel)))

(* The first [limit] rows, read in place: a columnar F(J) is not boxed. *)
let rows_of rel limit =
  Option.map
    (fun k ->
      let arity = Schema.arity (Relation.schema rel) in
      List.init
        (Int.max 0 (Int.min k (Relation.cardinality rel)))
        (fun i -> List.init arity (fun c -> Value.to_string (Relation.cell rel i c))))
    limit

let entry_infos ?scores ws =
  let active = (Clio.Workspace.active ws).Clio.Workspace.id in
  List.map
    (fun (e : Clio.Workspace.entry) ->
      {
        P.entry = e.id;
        label = e.label;
        graph = Querygraph.Qgraph.to_string e.mapping.Clio.Mapping.graph;
        active = e.id = active;
        score =
          (match scores with
          | None -> None
          | Some tbl -> Hashtbl.find_opt tbl e.id);
      })
    (Clio.Workspace.entries ws)

let db_version ws = Database.version (Clio.Workspace.db ws)

let evaluate session what limit =
  let ws = Registry.ws session in
  let ctx = Clio.Workspace.ctx ws in
  let mapping = (Clio.Workspace.active ws).Clio.Workspace.mapping in
  let rel =
    match what with
    | P.Target -> Clio.Workspace.target_view ws
    | P.Dg ->
        (Clio.Mapping_eval.data_associations ctx mapping)
          .Fulldisj.Full_disjunction.rows
    | P.Fj -> Clio.Eval_ctx.full_associations ctx mapping.Clio.Mapping.graph
  in
  P.Evaluated
    {
      what;
      count = Relation.cardinality rel;
      scheme = scheme_of rel;
      digest =
        Obs.with_span Obs.Names.sp_render_digest (fun () -> Render.digest rel);
      rows = rows_of rel limit;
    }

let rank session =
  let ws = Registry.ws session in
  let kb = Clio.Workspace.kb ws in
  let old = (Clio.Workspace.active ws).Clio.Workspace.mapping.Clio.Mapping.graph in
  let scores = Hashtbl.create 8 in
  List.iter
    (fun (e : Clio.Workspace.entry) ->
      Hashtbl.replace scores e.id
        (Schemakb.Rank.total
           (Schemakb.Rank.score ~kb ~old e.mapping.Clio.Mapping.graph)))
    (Clio.Workspace.entries ws);
  P.Entries (entry_infos ~scores ws)

(* Every mutation runs as a commit on the session's current branch: the
   op is applied and recorded in the store's DAG, which is what makes the
   state branchable, mergeable and replayable after a restart.  When the
   op raises (bad arguments), nothing is recorded. *)
let commit session op =
  Version.Store.commit session.Registry.store ~branch:session.Registry.branch
    op

(* Execute a session verb against [session]. *)
let run_session_verb t session request =
  match request with
  | P.Close_session ->
      ignore (Registry.close_session t.registry session.Registry.sid);
      P.Closed
  | P.Evaluate { what; limit } -> evaluate session what limit
  | (P.Offer _ | P.Rotate | P.Select _ | P.Delete _ | P.Confirm) as verb ->
      P.Entries (entry_infos (commit session (Option.get (P.op_of_request verb))))
  | P.Insert { relation; rows } ->
      let before = db_version (Registry.ws session) in
      let ws = commit session (Version.Op.Insert { relation; rows }) in
      let after = db_version ws in
      P.Inserted { fresh = after <> before; version = after }
  | P.Rank -> rank session
  | P.Stats ->
      P.Stats_report
        (List.map
           (fun (g : Obs.Prom_export.gauge) -> (g.gauge_name, g.value))
           (Registry.session_gauges session))
  | P.Branch { name } ->
      let ws =
        Version.Store.branch session.Registry.store
          ~from:session.Registry.branch name
      in
      session.Registry.branch <- name;
      P.Branched { branch = name; version = db_version ws }
  | P.Checkout { name } ->
      let ws = Version.Store.checkout session.Registry.store name in
      session.Registry.branch <- name;
      P.Checked_out { branch = name; version = db_version ws }
  | P.Merge { from_ } ->
      let rows =
        Version.Store.merge session.Registry.store
          ~into:session.Registry.branch ~from:from_
      in
      P.Merged
        {
          branch = session.Registry.branch;
          rows;
          version = db_version (Registry.ws session);
        }
  | P.Diff { other } ->
      P.Stats_report
        (Version.Store.diff session.Registry.store ~a:session.Registry.branch
           ~b:other)
  | P.Branches ->
      P.Branch_list
        {
          current = session.Registry.branch;
          branches = Version.Store.branches session.Registry.store;
        }
  | P.Ping | P.Open_session _ | P.Open_branch _ | P.Metrics_prom | P.Shutdown
    ->
      assert false (* handled before session dispatch *)

let verb_name = P.verb_name

let opened_reply id (session : Registry.session) =
  let db = Clio.Workspace.db (Registry.ws session) in
  P.ok id
    (P.Opened
       {
         session = session.Registry.sid;
         relations = Database.relation_names db;
         version = Database.version db;
       })

(* The registry's gauges and the transport's: what a no-session [stats]
   reply and a [metrics_prom] scrape both render. *)
let gauges t = Registry.gauges t.registry @ t.extra_stats ()

(* Execute the request, returning the reply and (for session verbs) the
   session it ran against, so the caller can attribute the request's
   latency and cache deltas to it. *)
let dispatch t (env : P.envelope) =
  let id = env.id in
  if Atomic.get t.draining && env.request <> P.Shutdown then
    (P.error (Some id) P.Unavailable "server is draining", None)
  else
    match env.request with
    | P.Ping -> (P.ok id P.Pong, None)
    | P.Stats when env.session = None ->
        ( P.ok id
            (P.Stats_report
               (List.map
                  (fun (g : Obs.Prom_export.gauge) ->
                    (Registry.stats_key g, g.value))
                  (gauges t))),
          None )
    | P.Metrics_prom ->
        ( P.ok id
            (P.Prom_text
               (Obs.Prom_export.render ~gauges:(gauges t)
                  (Obs.Metrics.snapshot ()))),
          None )
    | P.Shutdown ->
        Atomic.set t.draining true;
        (P.ok id P.Bye, None)
    | P.Open_session spec -> begin
        match Version.Scenario.validate spec with
        | Error msg -> (P.error (Some id) P.Bad_request msg, None)
        | Ok () ->
            let session = Registry.open_session t.registry spec in
            (opened_reply id session, None)
      end
    | P.Open_branch { of_session; branch } -> begin
        (* Server-level like [Open_session]: names its base session
           explicitly rather than through the envelope. *)
        match Registry.open_branch t.registry ~of_session ~branch with
        | None ->
            ( P.error (Some id) P.Unknown_session
                (Printf.sprintf "no session %S" of_session),
              None )
        | Some session -> (opened_reply id session, None)
        | exception Invalid_argument msg ->
            (P.error (Some id) P.Bad_request msg, None)
      end
    | request -> begin
        match env.session with
        | None ->
            ( P.error (Some id) P.Bad_request
                "this request needs a \"session\" field",
              None )
        | Some sid -> begin
            match Registry.find t.registry sid with
            | None ->
                ( P.error (Some id) P.Unknown_session
                    (Printf.sprintf "no session %S" sid),
                  None )
            | Some session ->
                let reply =
                  match run_session_verb t session request with
                  | result -> P.ok id result
                  | exception Invalid_argument msg ->
                      P.error (Some id) P.Bad_request msg
                  | exception Not_found ->
                      P.error (Some id) P.Bad_request "unknown entry"
                  | exception exn ->
                      P.error (Some id) P.Internal (Printexc.to_string exn)
                in
                (reply, Some session)
          end
      end

let cache_prefix = "cache."

let is_cache_delta (name, _) =
  String.length name >= String.length cache_prefix
  && String.sub name 0 (String.length cache_prefix) = cache_prefix

let handle t (env : P.envelope) =
  Registry.count_request t.registry;
  (* Every request runs under a scope: the client's trace id when sent,
     a server-assigned one otherwise.  The scope captures the request's
     span subtree and counter deltas for the log line / exemplar. *)
  let trace_id =
    match env.trace_id with Some tid -> tid | None -> Obs.Scope.fresh_id ()
  in
  let op = verb_name env.request in
  let (reply, session), record =
    Obs.Scope.run
      ~attrs:[ ("op", op); ("request_id", string_of_int env.id) ]
      ~trace_id Obs.Names.sp_request
      (fun () -> dispatch t env)
  in
  let ok = Stdlib.Result.is_ok reply.P.result in
  let cache_deltas = List.filter is_cache_delta record.Obs.Scope.deltas in
  (match session with
  | Some session ->
      Registry.record_op session ~cache_deltas ~op
        ~latency_us:(record.Obs.Scope.duration_ms *. 1000.)
        ~ok
  | None -> ());
  if not ok then Registry.count_error t.registry;
  Telemetry.request_complete t.telemetry ~record ~cache_deltas ~op ~id:env.id
    ~session:
      (match session with
      | Some s -> Some s.Registry.sid
      | None -> env.session)
    ~ok
    ~client_traced:(env.trace_id <> None);
  (* Echo the trace id only when the client sent one: trace-id-less
     clients get replies byte-identical to the pre-telemetry wire. *)
  { reply with P.trace_id = env.trace_id }

let handle_frame t line =
  let reply =
    match P.parse_request line with
    | Error (id, code, msg) ->
        Registry.count_request t.registry;
        Registry.count_error t.registry;
        P.error id code msg
    | Ok env -> handle t env
  in
  P.encode_response reply
