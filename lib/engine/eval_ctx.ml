open Relational
open Fulldisj

type t = {
  db : Database.t;
  kb : Schemakb.Kb.t;
  cache : Eval_cache.t option;
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

(* Same pattern for `--jobs`; [Par.default_jobs] also reads CLIO_JOBS. *)
let set_jobs_default = Par.set_default_jobs

let create ?(no_cache = false) ?cache ?jobs ?kb db =
  let kb = match kb with Some kb -> kb | None -> Schemakb.Kb.of_database db in
  let cache =
    if no_cache || not !caching_default then None
    else
      match cache with Some c -> Some c | None -> Some (Eval_cache.create ())
  in
  let jobs = match jobs with Some j -> j | None -> Par.default_jobs () in
  {
    db;
    kb;
    cache;
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
    pool = None;
    branch_root = None;
  }

let db t = t.db
let kb t = t.kb
let cache t = t.cache
let pool t = t.pool
let lookup t name = Database.find t.db name
let version t = Database.version t.db

let with_db ?kb t db =
  { t with db; kb = (match kb with Some kb -> kb | None -> t.kb) }

let with_jobs t jobs = { t with pool = Par.get_pool ~jobs }
let branch_root t = t.branch_root
let with_branch_root t v = { t with branch_root = Some v }

let base_source t = Source.of_db t.db

(* --- memoized tiers and promotion through the delta chain -------------- *)

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

(* What distinguishes the two memoized tiers: their span, cache table and
   promotion counters. *)
type 'a tier = {
  span : string;
  find : Eval_cache.t -> version:int -> Graph_key.t -> 'a option;
  peek : Eval_cache.t -> version:int -> Graph_key.t -> 'a option;
  add : Eval_cache.t -> version:int -> Graph_key.t -> 'a -> unit;
  free : Obs.Counter.t;
  repaired : Obs.Counter.t;
  cross : Obs.Counter.t;
}

let fj_tier =
  {
    span = Obs.Names.sp_engine_fj;
    find = Eval_cache.find_fj;
    peek = Eval_cache.peek_fj;
    add = Eval_cache.add_fj;
    free = Obs.Names.cache_promote_fj_free;
    repaired = Obs.Names.cache_promote_fj_repaired;
    cross = Obs.Names.cache_promote_fj_cross_branch;
  }

let dg_tier =
  {
    span = Obs.Names.sp_engine_dg;
    find = Eval_cache.find_dg;
    peek = Eval_cache.peek_dg;
    add = Eval_cache.add_dg;
    free = Obs.Names.cache_promote_dg_free;
    repaired = Obs.Names.cache_promote_dg_repaired;
    cross = Obs.Names.cache_promote_dg_cross_branch;
  }

(* On a miss at the current version, walk the database's recorded history
   newest-first looking for the same key at an ancestor version, folding
   the steps into the cumulative inserted tuples per relation.  Every
   recorded step is insert-only ([Database.replace] records none: it
   starts a new lineage with an empty history).  A [New_relation] step is
   a no-op here: a graph mentioning the new relation cannot have cache
   entries at versions before it existed, so deeper peeks just miss.  The
   first ancestor whose entry exists decides the outcome:

   - no graph base touched at all     → promote for free (same payload);
   - otherwise                        → [repair] by delta join.

   On a branched version graph, a branch's history runs back through its
   fork point into the trunk shared with sibling branches, so a promotion
   whose source entry sits at or below the context's [branch_root] is warm
   state inherited across branches — typically cached by a sibling session
   or the shared root — and counts as [tier.cross]. *)
let promote_via_chain t tier cache key g ~repair =
  let bases = graph_bases g in
  let merge_changed pairs =
    List.fold_left
      (fun acc (rel, tups) ->
        match List.assoc_opt rel acc with
        | Some prev -> (rel, prev @ tups) :: List.remove_assoc rel acc
        | None -> (rel, tups) :: acc)
      [] pairs
  in
  let rec walk steps ~changed =
    match steps with
    | [] -> None
    | step :: rest -> (
        let changed =
          match step.Delta.kind with
          | Delta.Insert { relation; tuples } -> (relation, tuples) :: changed
          | Delta.New_relation _ | Delta.Constraints_only -> changed
        in
        let from_version = step.Delta.from_version in
        match tier.peek cache ~version:from_version key with
        | Some payload -> (
            (match t.branch_root with
            | Some root when from_version <= root -> Obs.count tier.cross
            | _ -> ());
            match
              merge_changed
                (List.filter (fun (rel, _) -> List.mem rel bases) changed)
            with
            | [] ->
                Obs.count tier.free;
                set_cache_attr "promoted-free";
                Some payload
            | touched ->
                Obs.count tier.repaired;
                set_cache_attr "promoted-repaired";
                let src = Source.with_pool t.pool (base_source t) in
                Some (repair src payload ~changed:touched))
        | None -> walk rest ~changed)
  in
  walk (Database.history t.db) ~changed:[]

(* The one miss → promote → compute path: a hit at the current version,
   else an ancestor entry promoted through the delta chain, else
   [compute] from scratch; whatever was not a hit is cached at the
   current version. *)
let memoized t tier g ~repair ~compute =
  with_engine_span tier.span @@ fun () ->
  match t.cache with
  | None ->
      set_cache_attr "off";
      compute ()
  | Some cache -> (
      let version = version t in
      let key = Graph_key.of_graph g in
      match tier.find cache ~version key with
      | Some r ->
          set_cache_attr "hit";
          r
      | None ->
          let r =
            match promote_via_chain t tier cache key g ~repair with
            | Some r -> r
            | None ->
                set_cache_attr "miss";
                compute ()
          in
          tier.add cache ~version key r;
          r)

let full_associations t j =
  memoized t fj_tier j
    ~repair:(fun src r ~changed ->
      Join_eval.canonical
        (Algebra.union r (Join_eval.full_associations_delta src j ~changed)))
    ~compute:(fun () -> Join_eval.full_associations (base_source t) j)

let source t =
  let base = Source.with_pool t.pool (base_source t) in
  match t.cache with
  | None -> base
  | Some _ -> Source.with_fj (full_associations t) base

(* The source carries the F(J) hook, so even a D(G)-tier miss reuses
   per-subgraph materializations shared with other graphs. *)
let data_associations t g =
  memoized t dg_tier g
    ~repair:(fun src old ~changed -> Full_disjunction.delta src g ~old ~changed)
    ~compute:(fun () -> Full_disjunction.compute (source t) g)
