open Relational
open Fulldisj

type t = {
  db : Database.t;
  kb : Schemakb.Kb.t;
  cache : Eval_cache.t option;
  incremental : bool;
  jobs : int;
  pool : Par.Pool.t option;
  branch_root : int option;
      (** database version this context's branch forked at — promotions
          from at-or-below it reuse state shared with sibling branches and
          count as [cache.promote.cross_branch.*] *)
}

(* A process-wide default honoured by [create] — how `clio_cli --no-cache`
   reaches every context built behind cmdliner's back. *)
let caching_default = ref true
let set_caching_default b = caching_default := b

(* Same pattern for `--no-incremental`. *)
let incremental_default = ref true
let set_incremental_default b = incremental_default := b

(* Same pattern for `--jobs`; [Par.default_jobs] also reads CLIO_JOBS. *)
let set_jobs_default = Par.set_default_jobs

let create ?(no_cache = false) ?cache ?incremental ?jobs ?kb db =
  let kb = match kb with Some kb -> kb | None -> Schemakb.Kb.of_database db in
  let cache =
    if no_cache || not !caching_default then None
    else
      match cache with Some c -> Some c | None -> Some (Eval_cache.create ())
  in
  let incremental =
    match incremental with Some b -> b | None -> !incremental_default
  in
  let jobs = match jobs with Some j -> j | None -> Par.default_jobs () in
  {
    db;
    kb;
    cache;
    incremental;
    jobs;
    pool = Par.get_pool ~jobs;
    branch_root = None;
  }

(* Single-shot contexts for one-off evaluation over a bare database: no
   cache, no knowledge base, sequential. *)
let transient db =
  {
    db;
    kb = Schemakb.Kb.empty;
    cache = None;
    incremental = false;
    jobs = 1;
    pool = None;
    branch_root = None;
  }

let db t = t.db
let kb t = t.kb
let cache t = t.cache
let cached t = Option.is_some t.cache
let incremental t = t.incremental
let jobs t = t.jobs
let pool t = t.pool
let lookup t name = Database.find t.db name
let version t = Database.version t.db

let with_db ?kb t db =
  { t with db; kb = (match kb with Some kb -> kb | None -> t.kb) }

let with_kb t kb = { t with kb }
let without_cache t = { t with cache = None }
let with_jobs t jobs = { t with jobs; pool = Par.get_pool ~jobs }
let branch_root t = t.branch_root
let with_branch_root t v = { t with branch_root = Some v }

let base_source t = Source.of_db t.db

(* --- promotion through the delta chain --------------------------------- *)

(* On a miss at the current version, walk the database's recorded history
   newest-first looking for the same key at an ancestor version.  Along the
   walk we fold the steps into (a) the cumulative inserted tuples per
   relation and (b) the set of poisoned relations (rewritten non-insert-only).
   A [New_relation] step is a no-op here: a graph mentioning the new
   relation cannot have cache entries at versions before it existed, so
   deeper peeks just miss.  Poisoning only grows as the walk deepens, so
   the first ancestor whose entry exists decides the outcome:

   - no graph base touched at all     → promote for free (same payload);
   - touched bases all insert-only    → repair by delta join;
   - any graph base poisoned          → no ancestor can help; recompute.

   [peek] probes the cache at one ancestor version; [free]/[repair] build
   the promoted payload (and bump their counters).  [cross] is the
   cross-branch counter for this tier: on a branched version graph, a
   branch's history runs back through its fork point into the trunk shared
   with sibling branches, so a promotion whose source entry sits at or
   below the context's [branch_root] is warm state inherited across
   branches — typically cached by a sibling session or the shared root. *)
let note_cross_branch t ~cross ~from_version =
  match t.branch_root with
  | Some root when from_version <= root -> Obs.count cross
  | _ -> ()

let promote_via_chain t ~bases ~cross ~peek ~free ~repair =
  let merge_changed pairs =
    List.fold_left
      (fun acc (rel, tups) ->
        match List.assoc_opt rel acc with
        | Some prev -> (rel, prev @ tups) :: List.remove_assoc rel acc
        | None -> (rel, tups) :: acc)
      [] pairs
  in
  let rec walk steps ~changed ~poisoned =
    match steps with
    | [] -> None
    | step :: rest -> (
        let changed, poisoned =
          match step.Delta.kind with
          | Delta.Insert { relation; tuples } ->
              ((relation, tuples) :: changed, poisoned)
          | Delta.Rewrite { relation } -> (changed, relation :: poisoned)
          | Delta.New_relation _ | Delta.Constraints_only -> (changed, poisoned)
        in
        if List.exists (fun b -> List.mem b poisoned) bases then begin
          Obs.count Obs.Names.delta_fallbacks;
          None
        end
        else
          match peek step.Delta.from_version with
          | Some payload -> (
              note_cross_branch t ~cross ~from_version:step.Delta.from_version;
              match
                merge_changed
                  (List.filter (fun (rel, _) -> List.mem rel bases) changed)
              with
              | [] -> Some (free payload)
              | touched -> Some (repair payload ~changed:touched))
          | None -> walk rest ~changed ~poisoned)
  in
  walk (Database.history t.db) ~changed:[] ~poisoned:[]

let graph_bases g =
  Querygraph.Qgraph.nodes g
  |> List.map (fun n -> n.Querygraph.Qgraph.base)
  |> List.sort_uniq String.compare

(* Engine entry spans (engine.fj / engine.dg): tagged with the active
   request scope's trace id so a slow wire request's exemplar trace shows
   exactly which engine evaluations it triggered, and with the cache
   outcome ("hit" | "miss" | "promoted-free" | "promoted-repaired" | "off")
   once known.  One branch when observability is disabled. *)
let with_engine_span name f =
  if not (Obs.enabled ()) then f ()
  else
    Obs.with_span name (fun () ->
        (match Obs.Scope.current () with
        | Some id -> Obs.set_attr "trace_id" id
        | None -> ());
        f ())

let set_cache_attr outcome = if Obs.enabled () then Obs.set_attr "cache" outcome

let full_associations t j =
  with_engine_span Obs.Names.sp_engine_fj @@ fun () ->
  match t.cache with
  | None ->
      set_cache_attr "off";
      Join_eval.full_associations (base_source t) j
  | Some cache -> (
      let version = version t in
      let key = Graph_key.of_graph j in
      match Eval_cache.find_fj cache ~version key with
      | Some r ->
          set_cache_attr "hit";
          r
      | None ->
          let promoted =
            if not t.incremental then None
            else
              promote_via_chain t ~bases:(graph_bases j)
                ~cross:Obs.Names.cache_promote_fj_cross_branch
                ~peek:(fun v -> Eval_cache.peek_fj cache ~version:v key)
                ~free:(fun r ->
                  Obs.count Obs.Names.cache_promote_fj_free;
                  set_cache_attr "promoted-free";
                  r)
                ~repair:(fun r ~changed ->
                  Obs.count Obs.Names.cache_promote_fj_repaired;
                  set_cache_attr "promoted-repaired";
                  let src = Source.with_pool t.pool (base_source t) in
                  Join_eval.canonical
                    (Algebra.union r
                       (Join_eval.full_associations_delta src j ~changed)))
          in
          let r =
            match promoted with
            | Some r -> r
            | None ->
                set_cache_attr "miss";
                Join_eval.full_associations (base_source t) j
          in
          Eval_cache.add_fj cache ~version key r;
          r)

let source t =
  let base = Source.with_pool t.pool (base_source t) in
  match t.cache with
  | None -> base
  | Some _ -> Source.with_fj (full_associations t) base

(* The source carries the F(J) hook, so even a D(G)-tier miss reuses
   per-subgraph materializations shared with other graphs. *)
let compute t g = Full_disjunction.compute (source t) g

let data_associations t g =
  with_engine_span Obs.Names.sp_engine_dg @@ fun () ->
  match t.cache with
  | None ->
      set_cache_attr "off";
      compute t g
  | Some cache -> (
      let version = version t in
      let key = Graph_key.of_graph g in
      match Eval_cache.find_dg cache ~version key with
      | Some r ->
          set_cache_attr "hit";
          r
      | None ->
          let promoted =
            if not t.incremental then None
            else
              promote_via_chain t ~bases:(graph_bases g)
                ~cross:Obs.Names.cache_promote_dg_cross_branch
                ~peek:(fun v -> Eval_cache.peek_dg cache ~version:v key)
                ~free:(fun r ->
                  Obs.count Obs.Names.cache_promote_dg_free;
                  set_cache_attr "promoted-free";
                  r)
                ~repair:(fun old ~changed ->
                  Obs.count Obs.Names.cache_promote_dg_repaired;
                  set_cache_attr "promoted-repaired";
                  let src = Source.with_pool t.pool (base_source t) in
                  Full_disjunction.delta src g ~old ~changed)
          in
          let r =
            match promoted with
            | Some r -> r
            | None ->
                set_cache_attr "miss";
                compute t g
          in
          Eval_cache.add_dg cache ~version key r;
          r)

let possible_associations t g = Full_disjunction.possible_associations (source t) g
