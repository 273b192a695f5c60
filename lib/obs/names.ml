(* The single authoritative list of counter handles and span names used by
   the instrumented pipeline.  Bench tables, the CLI and the tests all go
   through these values, so a string key cannot silently drift between
   producers and consumers.

   Naming convention (see docs/observability.md):
     <layer>.<operation>[.<measure>]
   all lowercase, dot-separated; counters name the thing counted in plural
   ("rows", "checks", "probes"). *)

(* --- counters: relational algebra operators --- *)

let select_rows_in = Counter.make "algebra.select.rows_in"
let select_rows_out = Counter.make "algebra.select.rows_out"
let project_rows = Counter.make "algebra.project.rows"
let product_rows_out = Counter.make "algebra.product.rows_out"
let join_hash_probes = Counter.make "algebra.join.hash_probes"
let join_loop_comparisons = Counter.make "algebra.join.loop_comparisons"
let join_rows_out = Counter.make "algebra.join.rows_out"
let outer_join_dangling = Counter.make "algebra.outer_join.dangling"
let outer_union_rows = Counter.make "algebra.outer_union.rows"

(* --- counters: relation storage --- *)

(* Rows whose boxed tuples were interned into id columns
   ([Relation.columns] on a relation that had no columns yet).  Base
   relations are interned once, when a database stores them; an
   evaluation over stored relations interns only what it builds itself. *)
let relation_rows_interned = Counter.make "relation.rows_interned"

(* --- counters: full disjunction / minimum union --- *)

let subsumption_checks = Counter.make "fulldisj.subsumption_checks"
let index_probes = Counter.make "fulldisj.index_probes"
let assoc_considered = Counter.make "fulldisj.assoc_considered"
let assoc_kept = Counter.make "fulldisj.assoc_kept"
let categories = Counter.make "fulldisj.categories"

(* --- counters: mapping evaluation and operators --- *)

let eval_examples = Counter.make "mapping_eval.examples"
let eval_positive = Counter.make "mapping_eval.positive_examples"
let chase_occurrences = Counter.make "chase.occurrences"
let chase_alternatives = Counter.make "chase.alternatives"
let walk_paths = Counter.make "walk.paths_enumerated"
let walk_alternatives = Counter.make "walk.alternatives"
let illustration_candidates = Counter.make "illustration.candidates_considered"
let illustration_selected = Counter.make "illustration.examples_selected"

(* --- counters: memoized evaluation engine (lib/engine) --- *)

let cache_fj_hits = Counter.make "cache.fj.hits"
let cache_fj_misses = Counter.make "cache.fj.misses"
let cache_fj_evictions = Counter.make "cache.fj.evictions"
let cache_dg_hits = Counter.make "cache.dg.hits"
let cache_dg_misses = Counter.make "cache.dg.misses"
let cache_dg_evictions = Counter.make "cache.dg.evictions"

(* A gauge, not a monotonic counter: the cache's approximate resident
   footprint after the most recent insert/evict (set via [Counter.set]). *)
let cache_bytes_resident = Counter.make "cache.bytes_resident"

(* --- counters: incremental delta maintenance --- *)

let delta_records = Counter.make "delta.records"

(* Bumped when recording a step pushes the oldest step out of a database's
   bounded changelog window — from then on versions behind the drop are no
   longer recorded ancestors, so promotion from them falls back to a
   from-scratch evaluation instead of silently repairing a stale entry. *)
let delta_history_evicted = Counter.make "delta.history_evicted"
let cache_promote_dg_free = Counter.make "cache.promote.dg.free"
let cache_promote_dg_repaired = Counter.make "cache.promote.dg.repaired"

(* --- counters: branching version store (lib/version) --- *)

(* D(G) promotions whose source entry was cached at or below the
   session's branch-fork version — warm state inherited from the common
   ancestor of another branch rather than from this branch's own
   history. *)
let cache_promote_dg_cross_branch = Counter.make "cache.promote.cross_branch.dg"
let version_branches = Counter.make "version.branches"
let version_merges = Counter.make "version.merges"
let version_commits = Counter.make "version.commits"
let version_snapshot_saves = Counter.make "version.snapshot.saves"
let version_snapshot_loads = Counter.make "version.snapshot.loads"
let version_snapshot_commits_replayed =
  Counter.make "version.snapshot.commits_replayed"

(* --- counters: lineage / explanation --- *)

let explain_derivations = Counter.make "explain.derivations"
let explain_tuples_matched = Counter.make "explain.tuples_matched"

(* --- span names --- *)

let sp_illustrate = "clio.illustrate"
let sp_data_associations = "mapping_eval.data_associations"
let sp_examples = "mapping_eval.examples"
let sp_eval = "mapping_eval.eval"
let sp_fulldisj = "fulldisj.compute"
let sp_categories = "fulldisj.categories"

(* [naive]'s hash dedup of the padded categories' tuples *)
let sp_dedup = "fulldisj.dedup"

(* [compute_relation]'s column concat of the padded categories, a set
   without a dedup pass unless a base relation holds an all-null row *)
let sp_concat = "fulldisj.concat"

let sp_min_union = "fulldisj.min_union"
let sp_full_associations = "fulldisj.full_associations"
let sp_oj_plan = "outerjoin.plan"
let sp_oj_join = "outerjoin.join"
let sp_oj_sweep = "outerjoin.sweep"
let sp_illustration_select = "illustration.select"
let sp_evolve = "evolution.evolve"
let sp_chase = "op_chase.chase"
let sp_walk = "op_walk.data_walk"
let sp_explain = "explain.of_target_tuple"
let sp_why_null = "explain.why_null"

(* Server request scope and the engine entry points it captures: the
   request span is the root of every per-request exemplar trace; the
   engine spans carry trace-id and cache-outcome attributes. *)
let sp_request = "server.request"
let sp_engine_fj = "engine.fj"
let sp_engine_dg = "engine.dg"

(* The rest of an evaluate reply: the relation rendered and hashed into
   the reply digest. *)
let sp_render_digest = "render.digest"
