(* In-process execution of request scripts through the library's public
   functions, with the same meaning [Server.Service] gives each verb.

   Two callers: the correctness check replays sampled cycles over a fresh,
   cache-less resolution of each scenario (no server, socket, worker
   plane or cache, so it shares none of the served path's shortcuts), and
   the traced layer replay runs whole workloads over a cached resolution
   with observability on.  Every call into a layer sits inside an
   [e2e.<layer>] span; with observability off the spans cost nothing. *)

open Relational
module P = Server.Protocol
module Store = Version.Store

let span name f = Obs.with_span ("e2e." ^ name) f
let render_bytes = Obs.Histogram.make "e2e.render.bytes"

(* How a scenario spec becomes the session's root workspace. *)
type resolver = P.scenario -> Clio.Workspace.t

(* The correctness oracle: a private database value and no cache. *)
let fresh_resolver : resolver =
 fun spec ->
  let db, kb, mapping =
    span "scenario.resolve" (fun () -> Version.Scenario.resolve_fresh spec)
  in
  Clio.Workspace.create
    (Clio.Eval_ctx.create ~no_cache:true ~jobs:1 ~kb db)
    mapping

(* What the server's registry builds with [--jobs 1]: the memoized
   resolution and one shared cache. *)
let cached_resolver cache : resolver =
 fun spec ->
  let db, kb, mapping =
    span "scenario.resolve" (fun () -> Version.Scenario.resolve spec)
  in
  span "core.workspace_create" (fun () ->
      Clio.Workspace.create
        (Clio.Eval_ctx.create ~cache ~jobs:1 ~kb db)
        mapping)

type session = { store : Store.t; mutable branch : string }

let digest rel =
  let text = Render.relation rel in
  Obs.observe render_bytes (float_of_int (String.length text));
  Digest.to_hex (Digest.string text)

let rows_of rel limit =
  Option.map
    (fun k ->
      let rows = ref [] and taken = ref 0 in
      (try
         Relation.iter
           (fun tup ->
             if !taken >= k then raise Exit;
             incr taken;
             rows := Array.to_list (Array.map Value.to_string tup) :: !rows)
           rel
       with Exit -> ());
      List.rev !rows)
    limit

let evaluate ws what limit =
  let ctx = Clio.Workspace.ctx ws in
  let mapping = (Clio.Workspace.active ws).Clio.Workspace.mapping in
  let rel =
    match what with
    | P.Target ->
        span "core.target_view" (fun () -> Clio.Workspace.target_view ws)
    | P.Dg ->
        let fd =
          span "engine.dg" (fun () ->
              Clio.Mapping_eval.data_associations ctx mapping)
        in
        span "fulldisj.to_relation" (fun () ->
            Fulldisj.Full_disjunction.to_relation fd)
    | P.Fj ->
        span "engine.fj" (fun () ->
            Clio.Eval_ctx.full_associations ctx mapping.Clio.Mapping.graph)
  in
  let digest = span "render.digest" (fun () -> digest rel) in
  span "service.reply" (fun () ->
      P.Evaluated
        {
          what;
          count = Relation.cardinality rel;
          scheme =
            Array.to_list
              (Array.map Attr.to_string (Schema.attrs (Relation.schema rel)));
          digest;
          rows = rows_of rel limit;
        })

let entries ?scores ws =
  span "service.entries" (fun () ->
      let active = (Clio.Workspace.active ws).Clio.Workspace.id in
      P.Entries
        (List.map
           (fun (e : Clio.Workspace.entry) ->
             {
               P.entry = e.id;
               label = e.label;
               graph =
                 Querygraph.Qgraph.to_string e.mapping.Clio.Mapping.graph;
               active = e.id = active;
               score = Option.bind scores (fun tbl -> Hashtbl.find_opt tbl e.id);
             })
           (Clio.Workspace.entries ws)))

let version ws = Database.version (Clio.Workspace.db ws)

let commit s op =
  span ("store.commit." ^ Version.Op.name op) (fun () ->
      Store.commit s.store ~branch:s.branch op)

let checkout s = span "store.checkout" (fun () -> Store.checkout s.store s.branch)

let rank s =
  let ws = checkout s in
  let scores =
    span "schemakb.rank" (fun () ->
        let kb = Clio.Workspace.kb ws in
        let old =
          (Clio.Workspace.active ws).Clio.Workspace.mapping.Clio.Mapping.graph
        in
        let tbl = Hashtbl.create 8 in
        List.iter
          (fun (e : Clio.Workspace.entry) ->
            Hashtbl.replace tbl e.id
              (Schemakb.Rank.total
                 (Schemakb.Rank.score ~kb ~old e.mapping.Clio.Mapping.graph)))
          (Clio.Workspace.entries ws);
        tbl)
  in
  entries ~scores ws

(* Execute one session verb.  Raises like the service's session verbs do
   ([Invalid_argument], [Not_found]) on arguments the session rejects. *)
let exec s = function
  | P.Evaluate { what; limit } -> evaluate (checkout s) what limit
  | P.Offer { start; goal; max_len } ->
      entries (commit s (Version.Op.Offer { start; goal; max_len }))
  | P.Rotate -> entries (commit s Version.Op.Rotate)
  | P.Select { entry } -> entries (commit s (Version.Op.Select { entry }))
  | P.Delete { entry } -> entries (commit s (Version.Op.Delete { entry }))
  | P.Confirm -> entries (commit s Version.Op.Confirm)
  | P.Insert { relation; rows } ->
      let before = version (checkout s) in
      let after = version (commit s (Version.Op.Insert { relation; rows })) in
      P.Inserted { fresh = after <> before; version = after }
  | P.Rank -> rank s
  | P.Branch { name } ->
      let ws =
        span "store.branch" (fun () -> Store.branch s.store ~from:s.branch name)
      in
      s.branch <- name;
      P.Branched { branch = name; version = version ws }
  | P.Checkout { name } ->
      let ws = span "store.checkout" (fun () -> Store.checkout s.store name) in
      s.branch <- name;
      P.Checked_out { branch = name; version = version ws }
  | P.Merge { from_ } ->
      let rows =
        span "store.merge" (fun () ->
            Store.merge s.store ~into:s.branch ~from:from_)
      in
      P.Merged { branch = s.branch; rows; version = version (checkout s) }
  | P.Diff { other } ->
      P.Stats_report
        (span "store.diff" (fun () ->
             Store.diff s.store ~a:s.branch ~b:other))
  | P.Close_session -> P.Closed
  | r ->
      invalid_arg
        ("Replay.exec: verb not used by the benchmark: "
        ^ Server.Service.verb_name r)

let open_session resolve spec =
  let store = span "store.create" (fun () -> Store.create ~resolve spec) in
  let s = { store; branch = Store.main } in
  let db = Clio.Workspace.db (Store.checkout store Store.main) in
  ( s,
    P.Opened
      {
        session = "local";
        relations = Database.relation_names db;
        version = Database.version db;
      } )

(* A client's position in its script: the session it has open, if any. *)
type cursor = { resolve : resolver; mutable session : session option }

let cursor resolve = { resolve; session = None }

let step cur request =
  match (request, cur.session) with
  | P.Open_session spec, _ ->
      let s, reply = open_session cur.resolve spec in
      cur.session <- Some s;
      reply
  | _, None -> invalid_arg "Replay.step: no session open"
  | r, Some s ->
      let reply = exec s r in
      if r = P.Close_session then cur.session <- None;
      reply

(* The evaluation digests of a script run from scratch, in order. *)
let digests resolve requests =
  let cur = cursor resolve in
  List.filter_map
    (fun r ->
      match step cur r with P.Evaluated e -> Some e.P.digest | _ -> None)
    requests
