(* The full benchmark harness.

   The paper's evaluation is its running example (Figures 1-12 and the
   numbered Examples) — there are no performance tables.  Accordingly this
   harness has three parts:

   1. Regenerate every figure/example (experiments F*/E*/S2 of DESIGN.md),
      exactly as bin/figures.exe does, so `dune exec bench/main.exe`
      reproduces the complete evaluation in one run.

   2. Performance benchmarks (experiments B1-B20 and B22) for the
      algorithms whose cost the paper alludes to ("we make use of
      evaluation and optimization techniques for the minimal union
      operator to efficiently compute D(G)"): minimum union naive vs
      sweep, full disjunction naive vs indexed vs outer-join plan,
      sufficient illustration selection, walk enumeration, chase scans,
      end-to-end mapping evaluation, FK mining, illustration evolution,
      and the engine's memo cache (B9 walk-alternative reuse, B10 session
      replay — each cached vs no-cache, the ablation of lib/engine), the
      B14 jobs=1 vs jobs=4 ablation of the lib/par domain pool, the B15
      example-edit replay (incremental delta maintenance vs a fresh
      context per edit), the B16 server load generator (lib/server's
      multi-session service under scripted client traffic, cold vs warm
      shared-cache substrate), the B17 columnar data plane
      (million-tuple full disjunction + subsumption on the columnar
      kernels), the B18 restart-resume of the branching version store,
      the B19 socket worker plane, the B20 served digest
      ([render/digest]) and the B22 cold offer ([engine/offer-cold], with
      its selection step alone as [core/illustration-select]).

   3. Operator-counter and allocation tables (lib/obs): the same arms run
      again with observability enabled, reporting subsumption checks,
      index probes, rows scanned and GC words allocated per algorithm —
      the algorithmic explanation of the timings in part 2 — followed by
      the verified B16, B18 and B19 headlines.

   Every arm is declared once, in [arms]: parts 2 and 3 and the bench
   JSON all read that one table.

   Pass --no-figures, --no-bench or --no-stats to skip a part.

   Machine-readable output: --label NAME and/or --out FILE additionally
   write a bench JSON document (BENCH_<label>.json by default) combining
   the part-2 Bechamel timings ("benchmarks", empty with --no-bench) with
   the part-3 operator counters, histogram percentiles and allocation
   stats ("workloads"), in the schema consumed by bench/compare.exe.
   --quick shrinks workload sizes and measurement quotas for CI smoke
   runs (bench/baseline.json is a --quick capture). *)

open Bechamel
open Relational
module Qgraph = Querygraph.Qgraph

let argv = Array.to_list Sys.argv

(* "--name VALUE" or "--name=VALUE". *)
let flag_value name =
  let prefix = name ^ "=" in
  let starts_with p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let rec go = function
    | [] -> None
    | a :: v :: _ when a = name -> Some v
    | a :: rest ->
        if starts_with prefix a then
          Some (String.sub a (String.length prefix) (String.length a - String.length prefix))
        else go rest
  in
  go argv

let quick = List.mem "--quick" argv
let label = flag_value "--label"
let out_file = flag_value "--out"

let seeded seed = Random.State.make [| seed |]

(* --- the arm table ---

   An arm is one workload, declared once: its name and [start], which
   readies one consumer's instance of the arm and returns its run.  Part
   2 times the run under Bechamel; part 3 runs it once untimed and
   counts the second run, the steady state part 2 times.  Data an arm
   only reads is built when the table is built (large inputs: in a
   [Lazy.t] that [start] forces), so neither the timings nor the counts
   pay for it.  An arm whose runs change state its next run sees builds
   that state inside [start], so part 2 and part 3 each get their own
   and the count does not depend on how many runs Bechamel made. *)

type arm = { name : string; start : unit -> unit -> unit }

let arm name run = { name; start = (fun () -> run) }

(* An arm over lazily built data, forced by [start]. *)
let arm_on data name run = { name; start = (fun () -> run (Lazy.force data)) }

(* --- B1: minimum union — pairwise oracle vs the columnar sweep --- *)

let minunion_input size =
  (* Sparse tuples over a tiny domain maximize subsumption pressure. *)
  Synth.Gen_db.sparse_tuples (seeded 42) ~rows:size ~arity:6 ~null_prob:0.45 ~domain:8
  |> List.filteri (fun _ t -> not (Tuple.all_null t))

(* The sweep's input: the tuples as one relation, interned up front so the
   timed call measures the kernel, not the columns' first build. *)
let minunion_relation tuples =
  let rel =
    Relation.create ~allow_all_null:true "R"
      (Schema.make "R" (List.init 6 (Printf.sprintf "c%d")))
      tuples
  in
  ignore (Relation.columns rel);
  rel

let minunion_sizes = if quick then [ 100; 400 ] else [ 100; 400; 1600 ]

let minunion_arms =
  List.concat_map
    (fun size ->
      let tuples = minunion_input size in
      let rel = minunion_relation tuples in
      [
        arm (Printf.sprintf "minunion/naive/%d" size) (fun () ->
            ignore (Fulldisj.Min_union.remove_subsumed_naive tuples));
        arm (Printf.sprintf "minunion/sweep/%d" size) (fun () ->
            ignore (Fulldisj.Min_union.sweep rel));
      ])
    minunion_sizes
  @
  (* Skewed values (Zipf): a few huge buckets, where the sweep's
     most-selective-column probe pays off. *)
  let skewed =
    Synth.Gen_db.skewed_tuples (seeded 43) ~rows:1600 ~arity:6 ~null_prob:0.45
      ~domain:64 ()
    |> List.filter (fun t -> not (Tuple.all_null t))
    |> minunion_relation
  in
  [
    arm "minunion/skew-sweep/1600" (fun () ->
        ignore (Fulldisj.Min_union.sweep skewed));
  ]

(* --- B2: full disjunction — naive vs indexed vs outer-join plan --- *)

let fulldisj_configs =
  if quick then [ (3, 60); (4, 60) ] else [ (3, 150); (4, 150); (5, 100) ]

let fulldisj_arms =
  List.concat_map
    (fun (n, rows) ->
      let inst =
        Synth.Gen_graph.chain (seeded 7) ~n ~rows ~null_prob:0.25 ~orphan_prob:0.2 ()
      in
      let src = Fulldisj.Source.of_fn (Database.find inst.Synth.Gen_graph.db) in
      let g = inst.Synth.Gen_graph.graph in
      let tag algo = Printf.sprintf "fulldisj/%s/n%d-r%d" algo n rows in
      [
        arm (tag "naive") (fun () -> ignore (Fulldisj.Full_disjunction.naive src g));
        arm (tag "indexed") (fun () ->
            ignore (Fulldisj.Full_disjunction.compute src g));
        arm (tag "outerjoin") (fun () ->
            ignore (Fulldisj.Outerjoin_plan.full_disjunction src g));
      ])
    fulldisj_configs

(* The identity mapping of a generated graph: one target column per
   alias, fed by the alias's id. *)
let identity_mapping ?target_filters (inst : Synth.Gen_graph.instance) =
  let aliases = Qgraph.aliases inst.Synth.Gen_graph.graph in
  Clio.Mapping.make ~graph:inst.Synth.Gen_graph.graph ~target:"T"
    ~target_cols:(List.map (fun a -> "c_" ^ a) aliases)
    ~correspondences:
      (List.map
         (fun a -> Clio.Correspondence.identity ("c_" ^ a) (Attr.make a "id"))
         aliases)
    ?target_filters ()

(* --- B3: sufficient-illustration selection --- *)

let illustration_arms =
  let inst =
    Synth.Gen_graph.star (seeded 9) ~leaves:4 ~rows:120 ~null_prob:0.3 ~orphan_prob:0.2 ()
  in
  let db = inst.Synth.Gen_graph.db in
  let m = identity_mapping inst in
  let universe = Clio.Mapping_eval.examples (Clio.Eval_ctx.transient db) m in
  [
    arm "illustration/select" (fun () ->
        ignore
          (Clio.Sufficiency.select ~universe ~target_cols:m.Clio.Mapping.target_cols ()));
    arm "illustration/universe" (fun () ->
        ignore (Clio.Mapping_eval.examples (Clio.Eval_ctx.transient db) m));
  ]

(* --- B4: walk enumeration --- *)

let walk_arms =
  List.map
    (fun (leaves, max_len) ->
      let inst = Synth.Gen_graph.star (seeded 11) ~leaves ~rows:10 () in
      let m =
        Clio.Mapping.make
          ~graph:(Qgraph.singleton ~alias:"Fact" ~base:"Fact")
          ~target:"T" ~target_cols:[ "x" ] ()
      in
      let goal = Printf.sprintf "D%d" leaves in
      arm (Printf.sprintf "walk/leaves%d-len%d" leaves max_len) (fun () ->
          ignore
            (Clio.Op_walk.walk_alternatives ~kb:inst.Synth.Gen_graph.kb m ~start:"Fact"
               ~goal ~max_len ())))
    [ (4, 2); (8, 2); (8, 3) ]

(* --- B5: chase scans over the interned id columns --- *)

let chase_sizes = if quick then [ 500; 2000 ] else [ 500; 2000; 8000 ]

let chase_arms =
  List.map
    (fun rows ->
      let inst = Synth.Gen_graph.chain (seeded 13) ~n:4 ~rows () in
      let db = inst.Synth.Gen_graph.db in
      let m =
        Clio.Mapping.make
          ~graph:(Qgraph.singleton ~alias:"R1" ~base:"R1")
          ~target:"T" ~target_cols:[ "x" ] ()
      in
      arm (Printf.sprintf "chase/scan/rows%d" rows) (fun () ->
          ignore
            (Clio.Op_chase.chase (Clio.Eval_ctx.transient db) m ~attr:(Attr.make "R1" "id")
               ~value:(Value.Int (rows / 2)))))
    chase_sizes

(* --- B6: end-to-end mapping evaluation and illustration (paper
   database) --- *)

let mapping_arms =
  let db = Paperdata.Figure1.database in
  [
    arm "mapping/eval-section2" (fun () ->
        ignore
          (Clio.Mapping_eval.eval (Clio.Eval_ctx.transient db)
             Paperdata.Running.section2_mapping));
    arm "mapping/examples-fig9" (fun () ->
        ignore
          (Clio.Mapping_eval.examples (Clio.Eval_ctx.transient db)
             Paperdata.Running.mapping));
    arm "mapping/sql-outer-join" (fun () ->
        ignore
          (Clio.Mapping_sql.outer_join ~root:"Children"
             Paperdata.Running.section2_mapping));
    arm "illustrate/paper" (fun () ->
        ignore (Clio.illustrate (Clio.Eval_ctx.transient db) Paperdata.Running.mapping));
  ]

(* --- B7: inclusion-dependency mining --- *)

let mine_sizes = if quick then [ 200 ] else [ 200; 800 ]

let mine_arms =
  List.map
    (fun rows ->
      let inst = Synth.Gen_graph.star (seeded 17) ~leaves:5 ~rows () in
      arm (Printf.sprintf "mine/rows%d" rows) (fun () ->
          ignore (Schemakb.Mine.inclusion_dependencies inst.Synth.Gen_graph.db)))
    mine_sizes

(* --- B8: illustration evolution after a walk --- *)

let evolve_arms =
  let db = Paperdata.Figure1.database in
  let kb = Paperdata.Figure1.kb in
  let old_m = Paperdata.Running.mapping_g1 in
  let old_ill = Clio.illustrate (Clio.Eval_ctx.transient db) old_m in
  let new_m =
    (List.hd (Clio.Op_walk.walk_alternatives ~kb old_m ~start:"Children" ~goal:"PhoneDir"
                ~max_len:2 ()))
      .Clio.Op_walk.mapping
  in
  [
    arm "evolve/walk-extension" (fun () ->
        ignore
          (Clio.Evolution.evolve (Clio.Eval_ctx.transient db) ~old_mapping:old_m
             ~old_illustration:old_ill new_m));
  ]

(* --- B9: walk alternatives — shared-subgraph reuse in the engine cache ---

   The interactive loop evaluates many near-identical graphs: a walk's
   alternatives share the base graph's subgraphs (FJ tier), and rotating
   back to an alternative re-runs the exact same D(G) (DG tier).  Each
   run replays that loop inside one fresh context, cached vs no-cache —
   the ablation of lib/engine.  Part 3's cache.* counters are the
   hit/miss story behind the timing difference. *)

let engine_walk_instance =
  Synth.Gen_graph.chain (seeded 37) ~n:3 ~rows:(if quick then 150 else 400)
    ~null_prob:0.25 ~orphan_prob:0.2 ()

(* The mapping T(c) <- R1.id a chain session starts from. *)
let r1_mapping =
  Clio.Mapping.make
    ~graph:(Qgraph.singleton ~alias:"R1" ~base:"R1")
    ~target:"T" ~target_cols:[ "c" ]
    ~correspondences:[ Clio.Correspondence.identity "c" (Attr.make "R1" "id") ]
    ()

(* [r1_mapping] and its walk alternatives from R1 to each goal within
   [max_len] steps. *)
let chain_walk_mappings (inst : Synth.Gen_graph.instance) ~max_len goals =
  let alts goal =
    Clio.Op_walk.walk_alternatives ~kb:inst.Synth.Gen_graph.kb r1_mapping
      ~start:"R1" ~goal ~max_len ()
    |> List.map (fun (a : Clio.Op_walk.alternative) -> a.Clio.Op_walk.mapping)
  in
  r1_mapping :: List.concat_map alts goals

(* R1, R1-R2, R1-R2-R3: the alternatives overlap pairwise, so the FJ tier
   shares their common induced subgraphs across mappings. *)
let engine_walk_mappings =
  chain_walk_mappings engine_walk_instance ~max_len:2 [ "R2"; "R3" ]

let engine_walk_replay ~no_cache () =
  let inst = engine_walk_instance in
  let ctx =
    Clio.Eval_ctx.create ~no_cache ~kb:inst.Synth.Gen_graph.kb
      inst.Synth.Gen_graph.db
  in
  (* Offer: every alternative's example universe. *)
  List.iter
    (fun m -> ignore (Clio.Mapping_eval.examples ctx m))
    engine_walk_mappings;
  (* Rotate twice through the alternatives, re-rendering each target view. *)
  for _ = 1 to 2 do
    List.iter
      (fun m -> ignore (Clio.Mapping_eval.target_view ctx m))
      engine_walk_mappings
  done

(* --- B10: session replay — offer/rotate/confirm through Workspace --- *)

let engine_session_alternatives =
  Clio.Op_walk.walk_alternatives ~kb:Paperdata.Figure1.kb Paperdata.Running.mapping_g1
    ~start:"Children" ~goal:"PhoneDir" ~max_len:2 ()
  |> List.map (fun (a : Clio.Op_walk.alternative) -> a.Clio.Op_walk.mapping)

let engine_session_replay ~no_cache () =
  let ctx =
    Clio.Eval_ctx.create ~no_cache ~kb:Paperdata.Figure1.kb
      Paperdata.Figure1.database
  in
  let ws = Clio.Workspace.create ctx Paperdata.Running.mapping_g1 in
  let ws = ref (Clio.Workspace.offer ws engine_session_alternatives) in
  for _ = 1 to 2 * List.length engine_session_alternatives do
    ws := Clio.Workspace.rotate !ws;
    ignore (Clio.Workspace.target_view !ws)
  done;
  ignore (Clio.Workspace.render (Clio.Workspace.confirm !ws))

let engine_cache_arms =
  [
    arm "engine/walk-reuse/cached" (engine_walk_replay ~no_cache:false);
    arm "engine/walk-reuse/no-cache" (engine_walk_replay ~no_cache:true);
    arm "engine/session-replay/cached" (engine_session_replay ~no_cache:false);
    arm "engine/session-replay/no-cache" (engine_session_replay ~no_cache:true);
  ]

(* --- B15: example-edit replay — incremental maintenance ablation ---

   The other hot mutation of the interactive loop: the user adds an example
   tuple to a base relation (op_example, Workspace.add_tuples) and the
   session refreshes against the updated instance — every alternative's
   D(G) is maintained (Workspace evolves each entry's illustration) and
   the active target view re-renders (WYSIWYG).  Each run warms one
   caching context, then replays a burst of single-tuple inserts with a
   refresh after each.  The incremental arm keeps its context across the
   edits and repairs the cached D(G) entries through the recorded
   delta chain (F(J) entries are a per-version memo); the no-incremental arm starts a fresh context per edit —
   the work a kept cache does once every edit has bumped the database
   version and stranded it — so each refresh re-evaluates from scratch.
   Part 3's cache.promote.* / delta.* counters are the promotion story
   behind the timings.  (Illustration selection, the other per-edit cost
   of the full Workspace path, is version-independent and benchmarked
   separately — B8/B11.) *)

let engine_edit_instance =
  Synth.Gen_graph.chain (seeded 47) ~n:4 ~rows:(if quick then 150 else 400)
    ~null_prob:0.25 ~orphan_prob:0.2 ()

(* The session's walk alternatives R1, R1-R2, R1-R2-R3, R1-R2-R3-R4
   overlap pairwise, so at each version the FJ tier shares their
   subgraphs. *)
let engine_edit_mappings =
  chain_walk_mappings engine_edit_instance ~max_len:3 [ "R2"; "R3"; "R4" ]

let engine_edit_tuples =
  (* Fresh ids far beyond the generator's key space (so every edit really
     inserts); the FK points at an existing R2 id, so each edit extends the
     join result, not just the base relation. *)
  List.init (if quick then 6 else 8) (fun i ->
      [|
        Value.Int (1_000_000 + i);
        Value.String (Printf.sprintf "edit-%d" i);
        Value.Int i;
      |])

let engine_edit_replay ~incremental () =
  let inst = engine_edit_instance in
  let context db = Clio.Eval_ctx.create ~kb:inst.Synth.Gen_graph.kb db in
  let ctx = ref (context inst.Synth.Gen_graph.db) in
  let active = List.hd (List.rev engine_edit_mappings) in
  let refresh () =
    List.iter
      (fun m -> ignore (Clio.Mapping_eval.data_associations !ctx m))
      engine_edit_mappings;
    ignore (Clio.Mapping_eval.target_view !ctx active)
  in
  refresh ();
  List.iter
    (fun t ->
      let db = Database.insert_tuples (Clio.Eval_ctx.db !ctx) "R1" [ t ] in
      ctx := if incremental then Clio.Eval_ctx.with_db !ctx db else context db;
      refresh ())
    engine_edit_tuples

(* The served edit: [Workspace.add_tuples] on a session that has walked
   R1 to R3 over a 2000-row 3-chain and confirmed the walk, as the
   server's chain-edit sessions do.  One run inserts one fresh R1 row,
   repairs the cached D(G) and evolves the illustration onto it.  Each
   consumer of the arm edits its own session, built by [start]; every run
   inserts a key no earlier run on that session used. *)
let workspace_session () =
  let inst =
    Synth.Gen_graph.chain (seeded 59) ~n:3 ~rows:2000 ~null_prob:0.25
      ~orphan_prob:0.2 ()
  in
  let ctx =
    Clio.Eval_ctx.create ~jobs:1 ~kb:inst.Synth.Gen_graph.kb
      inst.Synth.Gen_graph.db
  in
  let alts =
    Clio.Op_walk.data_walk ctx r1_mapping ~start:"R1" ~goal:"R3" ~max_len:3 ()
  in
  let ws =
    Clio.Workspace.offer (Clio.Workspace.create ctx r1_mapping)
      (List.map (fun (a : Clio.Op_walk.alternative) -> a.Clio.Op_walk.mapping) alts)
  in
  Clio.Workspace.confirm ws

let workspace_edits () =
  let ws = ref (workspace_session ()) and edits = ref 0 in
  fun () ->
    incr edits;
    let key = 2_000_000 + !edits in
    ws :=
      Clio.Workspace.add_tuples !ws "R1"
        [
          [|
            Value.Int key;
            Value.String (Printf.sprintf "edit-%d" key);
            Value.Int (key mod 2000);
          |];
        ]

let engine_edit_arms =
  [
    arm "engine/example-edit/incremental" (engine_edit_replay ~incremental:true);
    arm "engine/example-edit/no-incremental"
      (engine_edit_replay ~incremental:false);
    { name = "engine/example-edit/workspace"; start = workspace_edits };
  ]

(* --- B20 render/digest: the served evaluate's digest ---

   [Render.digest] over the D(G) of a fresh B15 workspace session, the
   4273-row, 346 KB table a served chain-edit evaluate hashes.  Part 3's
   minor and major words are one warm digest's: it renders into its
   domain's kept buffer, so neither grows with the text. *)
let render_dg =
  lazy
    (let ws = workspace_session () in
     Fulldisj.Full_disjunction.to_relation
       (Clio.Mapping_eval.data_associations (Clio.Workspace.ctx ws)
          (Clio.Workspace.active ws).Clio.Workspace.mapping))

let render_arms =
  [ arm_on render_dg "render/digest" (fun dg () -> ignore (Render.digest dg)) ]

(* --- B22: a cold offer, the first step of a served chain-explore cycle ---

   [Op.apply Offer] (walk R1 to R3 within 3 steps, then evolve an
   illustration onto each alternative) on a session rooted at R1 of a
   3-chain of 4000-row relations (1000 with --quick), the step a served
   chain-explore cycle opens with.  The context is cache-less, so every
   run joins, min-unions and selects afresh for each alternative, as a
   served offer does when its D(G)s miss.  [core/illustration-select]
   times the last step alone: greedy selection over the examples of the
   first alternative. *)
let b22_session =
  lazy
    (let inst =
       Synth.Gen_graph.chain (seeded 61) ~n:3 ~rows:(if quick then 1000 else 4000)
         ~null_prob:0.25 ~orphan_prob:0.2 ()
     in
     let ctx =
       Clio.Eval_ctx.create ~no_cache:true ~jobs:1 ~kb:inst.Synth.Gen_graph.kb
         inst.Synth.Gen_graph.db
     in
     Clio.Workspace.create ctx (Version.Scenario.rooted_mapping ~root:"R1"))

let b22_offer = Version.Op.Offer { start = "R1"; goal = "R3"; max_len = 3 }

let b22_universe =
  lazy
    (let ws = Version.Op.apply (Lazy.force b22_session) b22_offer in
     let m = (Clio.Workspace.active ws).Clio.Workspace.mapping in
     ( Clio.Mapping_eval.examples (Clio.Workspace.ctx ws) m,
       m.Clio.Mapping.target_cols ))

let offer_arms =
  [
    arm_on b22_session "engine/offer-cold" (fun ws () ->
        ignore (Version.Op.apply ws b22_offer));
    arm_on b22_universe "core/illustration-select"
      (fun (universe, target_cols) () ->
        ignore (Clio.Sufficiency.select ~universe ~target_cols ()));
  ]

(* --- B16: server loadgen — the multi-session service under scripted
   load ---

   Drives lib/server's Service directly (no socket) with the B16 client
   script: N sessions opened from the paper scenario, each cycling
   branch → offer → evaluate D(G) → rotate → evaluate target → confirm →
   checkout main → insert, interleaved round-robin.  The ablation is substrate temperature: the
   cold arm builds a fresh registry (empty shared Eval_cache) per run,
   the warm arm reuses one persistent registry across runs, so every
   session's pre-insert evaluations hit entries left by earlier runs at
   the scenario's shared base version — the memo sharing a long-lived
   server exists to provide.  Part 3's cache.* counters show the warm
   substrate absorbing the cold arm's misses. *)

let b16_spec =
  {
    Server.Loadgen.scenario = Server.Protocol.Paper;
    clients = 4;
    ops = (if quick then 6 else 12);
    limit = None;
    keep_open = false;
  }

let b16_service () = Server.Service.create (Server.Registry.create ~jobs:1 ())

let b16_run service () =
  ignore (Server.Loadgen.run_inprocess ~verify:false service b16_spec)

(* Telemetry arm: the warm substrate again, but with the request plane
   fully armed — Obs on, every request running inside an Obs.Scope
   (counter snapshot + captured span subtree) and leaving one JSONL line
   in an event log.  Against the plain warm arm this prices the
   observability tax the telemetry-smoke CI job gates at 5% on p50. *)
let telemetry_service () =
  let service = b16_service () in
  let file = Filename.temp_file "clio_bench_telemetry" ".log" in
  at_exit (fun () -> try Sys.remove file with Sys_error _ -> ());
  let log = Obs.Event_log.create ~level:Obs.Event_log.Info file in
  Server.Service.set_telemetry service (Server.Telemetry.create ~log ());
  service

(* Run [f] with observability on, leaving the switch as found: part 2
   times with Obs off, part 3 counts with Obs on and a live workload
   span. *)
let with_obs f =
  let was_enabled = Obs.enabled () in
  if not was_enabled then Obs.enable ();
  Fun.protect ~finally:(fun () -> if not was_enabled then Obs.disable ()) f

let server_arms =
  [
    arm "server/loadgen/cold" (fun () -> b16_run (b16_service ()) ());
    { name = "server/loadgen/warm"; start = (fun () -> b16_run (b16_service ())) };
    {
      name = "server/loadgen/telemetry";
      start =
        (fun () ->
          let run = b16_run (telemetry_service ()) in
          fun () -> with_obs run);
    };
  ]

(* --- B11: illustration at scale — full universe vs sampled slice --- *)

let sampling_arms =
  let inst =
    Synth.Gen_graph.chain (seeded 23) ~n:3 ~rows:4000 ~null_prob:0.2 ~orphan_prob:0.15 ()
  in
  let db = inst.Synth.Gen_graph.db in
  let m = identity_mapping inst in
  [
    arm "sampling/full-illustrate" (fun () ->
        let universe = Clio.Mapping_eval.examples (Clio.Eval_ctx.transient db) m in
        ignore
          (Clio.Sufficiency.select ~universe ~target_cols:m.Clio.Mapping.target_cols ()));
    arm "sampling/sliced-illustrate" (fun () ->
        ignore
          (Clio.Sampling.illustrate_sampled ~seed:3 ~per_relation:12
             (Clio.Eval_ctx.transient db) m));
  ]

(* --- B12: the hash join against its nested-loop oracle, and attribute
   matching --- *)

let join_arms =
  let st = seeded 29 in
  let mk name rows =
    Relation.create name
      (Schema.make name [ "k"; "p" ])
      (List.init rows (fun i ->
           Tuple.make [ Value.Int (Random.State.int st (rows / 2)); Value.Int i ]))
  in
  let l = mk "L" 3000 and r = mk "R" 3000 in
  let p = Predicate.eq_cols (Attr.make "L" "k") (Attr.make "R" "k") in
  let l2 = mk "L2" 600 and r2 = mk "R2" 600 in
  let p2 = Predicate.eq_cols (Attr.make "L2" "k") (Attr.make "R2" "k") in
  [
    arm "join/hash/3000" (fun () -> ignore (Algebra.join p l r));
    arm "join/nested-loop/600" (fun () -> ignore (Algebra.join_nested_loop p2 l2 r2));
    arm "match/kids-columns" (fun () ->
        ignore
          (Schemakb.Match.suggest Paperdata.Figure1.database
             ~target_cols:[ "ID"; "name"; "affiliation"; "contactPh"; "BusSchedule" ]));
  ]

(* --- B13: static category pruning (required aliases) --- *)

let pruning_arms =
  let inst =
    Synth.Gen_graph.star (seeded 31) ~leaves:4 ~rows:200 ~null_prob:0.25
      ~orphan_prob:0.2 ()
  in
  let db = inst.Synth.Gen_graph.db in
  let m =
    identity_mapping inst
      ~target_filters:[ Predicate.Is_not_null (Expr.col "T" "c_Fact") ]
  in
  [
    arm "pruning/full-eval" (fun () ->
        ignore (Clio.Mapping_eval.eval (Clio.Eval_ctx.transient db) m));
    arm "pruning/pruned-eval" (fun () ->
        ignore (Clio.Mapping_analysis.eval_pruned (Clio.Eval_ctx.transient db) m));
  ]

(* --- B14: parallel evaluation — domain-pool ablation (jobs=1 vs jobs=4) ---

   The same D(G) computed sequentially and over a 4-domain Par pool, on
   the large synth star: the naive algorithm materializes an F(J) per
   connected subgraph, which is exactly the Par.map fan-out inside
   Full_disjunction.  No cache, so both arms do full work every run.  On a single-core host the two
   arms time alike (parity, not speedup): CI only arms compare.exe's
   `--require-faster par/jobs4 par/jobs1 1.5` gate when the runner
   reports 2+ cores. *)

let par_arms =
  let inst =
    Synth.Gen_graph.star (seeded 41) ~leaves:4 ~rows:(if quick then 100 else 250)
      ~null_prob:0.25 ~orphan_prob:0.2 ()
  in
  let db = inst.Synth.Gen_graph.db in
  let g = inst.Synth.Gen_graph.graph in
  let eval jobs () =
    let src = Fulldisj.Source.with_pool (Par.get_pool ~jobs) (Fulldisj.Source.of_db db) in
    ignore (Fulldisj.Full_disjunction.naive src g)
  in
  [ arm "par/jobs1" (eval 1); arm "par/jobs4" (eval 4) ]

(* --- B17: columnar data plane — million-tuple full disjunction +
   subsumption ---

   A three-relation FK chain built column-natively (interned int keys
   plus a string payload per relation), evaluated end to end through
   [Full_disjunction.compute_relation]: per-category joins, padded
   union, min-union subsumption sweep, canonical order.  Part 3 counts
   the hash probes, subsumption checks and index probes of the pipeline. *)

let b17_instance =
  lazy
    (let st = seeded 53 in
     let rows = if quick then 120_000 else 350_000 in
     let names = [ "A"; "B"; "C" ] in
     let db =
       Synth.Gen_db.columnar_chain_db st ~names ~rows ~payload_domain:(rows / 4)
         ~null_prob:0.2 ()
     in
     let edges = [ ("A", "B"); ("B", "C") ] in
     let graph =
       Qgraph.make
         (List.map (fun n -> (n, n)) names)
         (List.map
            (fun (c, p) ->
              (c, p, Predicate.eq_cols (Attr.make c ("fk_" ^ p)) (Attr.make p "id")))
            edges)
     in
     (db, graph))

let colplane_arms =
  [
    arm_on b17_instance "colplane/columnar" (fun (db, g) () ->
        ignore
          (Fulldisj.Full_disjunction.compute_relation (Fulldisj.Source.of_db db) g
             ~categories:(Querygraph.Subgraphs.connected_node_sets g)));
  ]

(* --- B18: branching version store — warm-restart vs cold-restart
   ablation ---

   A fork-heavy store persisted once: one chain-scenario session whose
   trunk is forked into K branches, each committing a private example
   insert.  Both arms then simulate a server reboot — fresh registry,
   [Registry.restore] replaying the snapshot + changelog — and evaluate
   D(G) on every branch, trunk first.  The warm arm restores over a
   shared cache: the trunk evaluation fills entries at the fork-root
   version and every sibling branch promotes them across the fork
   ([cache.promote.cross_branch.dg]); the cold arm (no cache) recomputes
   each branch from scratch.  The counter table and headline check the
   promotions fire and the per-branch digests match byte-for-byte. *)

let b18_store_dir =
  lazy
    (let dir = Filename.temp_file "clio_b18_store" "" in
     Sys.remove dir;
     let registry = Server.Registry.create ~jobs:1 () in
     let session =
       Server.Registry.open_session registry
         (Server.Protocol.Chain { n = 3; rows = (if quick then 400 else 2000); seed = 7 })
     in
     let store = session.Server.Registry.store in
     for k = 1 to 6 do
       let name = Printf.sprintf "fork-%d" k in
       ignore (Version.Store.branch store ~from:Version.Store.main name);
       ignore
         (Version.Store.commit store ~branch:name
            (Version.Op.Insert
               {
                 relation = "R1";
                 rows =
                   [
                     [|
                       Value.Int (2_000_000 + k);
                       Value.String name;
                       Value.Int k;
                     |];
                   ];
               }))
     done;
     Server.Registry.persist registry ~dir;
     dir)

let b18_digests ~warm dir =
  let registry = Server.Registry.create ~jobs:1 ~no_cache:(not warm) () in
  ignore (Server.Registry.restore registry ~dir);
  let stores =
    List.fold_left
      (fun acc sid ->
        match Server.Registry.find registry sid with
        | Some s when not (List.memq s.Server.Registry.store acc) ->
            s.Server.Registry.store :: acc
        | _ -> acc)
      []
      (Server.Registry.session_ids registry)
    |> List.rev
  in
  List.concat_map
    (fun store ->
      List.map
        (fun branch ->
          let ws = Version.Store.checkout store branch in
          let ctx = Clio.Workspace.ctx ws in
          let mapping = (Clio.Workspace.active ws).Clio.Workspace.mapping in
          let rel =
            Fulldisj.Full_disjunction.to_relation
              (Clio.Mapping_eval.data_associations ctx mapping)
          in
          (branch, Render.digest rel))
        (Version.Store.branch_names store))
    stores

let restart_arms =
  [
    arm_on b18_store_dir "version/restart/warm" (fun dir () ->
        ignore (b18_digests ~warm:true dir));
    arm_on b18_store_dir "version/restart/cold" (fun dir () ->
        ignore (b18_digests ~warm:false dir));
  ]

(* --- B19: concurrent request execution — socket throughput, workers=4
   vs workers=1 ---

   The real server binary over a Unix socket, one long-lived process per
   arm, identical except for --workers.  The measured unit is one
   concurrent Loadgen.run_socket burst: 4 clients driven from one
   multiplexed thread, each with one request in flight, sessions opened
   per burst so each client's post-insert evaluations are private work
   the 4-worker arm can overlap across its shards.  --jobs stays 1 so
   the only parallelism under test is the worker plane.  Digest parity
   against the sequential in-process replay is proved by one verified
   priming burst per arm (and the B19 headline re-checks it); the timed
   bursts then run with verification off.  On a single-core host the two
   arms time alike: CI only arms compare.exe's `--require-faster
   server/socket/workers4 server/socket/workers1 1.5` gate when the
   runner reports 2+ cores. *)

let b19_spec =
  {
    Server.Loadgen.scenario =
      Server.Protocol.Chain { n = 3; rows = (if quick then 150 else 400); seed = 11 };
    clients = 4;
    ops = 12;
    limit = None;
    keep_open = false;
  }

let b19_serve_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "clio_serve.exe"))

let b19_spawn workers =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "clio-b19-w%d-%d.sock" workers (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process b19_serve_exe
      [|
        "clio_serve"; "serve"; "--socket"; path; "--jobs"; "1"; "--workers";
        string_of_int workers; "--queue"; "64";
      |]
      null null Unix.stderr
  in
  Unix.close null;
  at_exit (fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ());
  (* Wait until the server is accepting, then prove digest parity once:
     the verified burst replays every client sequentially in process and
     compares evaluation digests byte-for-byte. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] 0.05);
        wait ()
  in
  wait ();
  let primed =
    Server.Loadgen.run_socket ~verify:true
      ~address:(Server.Loop.Unix_path path) b19_spec
  in
  if primed.Server.Loadgen.mismatches <> Some 0 then
    failwith
      (Printf.sprintf "B19 workers=%d: digest mismatch vs sequential replay"
         workers);
  path

let b19_server_w1 = lazy (b19_spawn 1)
let b19_server_w4 = lazy (b19_spawn 4)

let b19_burst path () =
  ignore
    (Server.Loadgen.run_socket ~verify:false
       ~address:(Server.Loop.Unix_path path) b19_spec)

let socket_arms =
  [
    arm_on b19_server_w1 "server/socket/workers1" b19_burst;
    arm_on b19_server_w4 "server/socket/workers4" b19_burst;
  ]

let arms =
  minunion_arms @ fulldisj_arms @ illustration_arms @ walk_arms @ chase_arms
  @ mapping_arms @ mine_arms @ evolve_arms @ engine_cache_arms
  @ engine_edit_arms @ render_arms @ server_arms @ sampling_arms @ join_arms
  @ pruning_arms @ par_arms @ colplane_arms @ restart_arms @ socket_arms
  @ offer_arms

(* --- part 2: timings --- *)

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~stabilize:false ()
  in
  let time a =
    let test = Test.make ~name:a.name (Staged.stage (a.start ())) in
    let anl = Analyze.all ols instance (Benchmark.all cfg [ instance ] test) in
    match Option.bind (Hashtbl.find_opt anl a.name) Analyze.OLS.estimates with
    | Some (e :: _) -> (a.name, e)
    | _ -> (a.name, nan)
  in
  let sorted =
    List.map time arms |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let pretty ns =
    if Float.is_nan ns then "n/a"
    else if ns > 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
    else Printf.sprintf "%8.0f ns" ns
  in
  Printf.printf "%-32s %12s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 46 '-');
  List.iter (fun (name, ns) -> Printf.printf "%-32s %12s\n" name (pretty ns)) sorted;
  sorted

(* --- part 3: counts ---

   Each arm runs once untimed and once more with observability
   on, under a root span, capturing (a) the operator counters — exact
   operation counts, independent of machine noise, (b) the GC
   allocation delta of the run, and (c) the span-duration histograms
   with percentiles.  The printed tables and the bench JSON document
   both read these measurements.  Counter keys come from Obs.Names, the
   same authoritative list the pipeline increments. *)

type measurement = {
  counters : (string * int) list;
  hists : (string * Obs.Histogram.stats) list;
  alloc : Obs.Span.alloc;
}

let no_alloc = { Obs.Span.minor_words = 0.; major_words = 0.; promoted_words = 0. }

let measure a =
  let run = a.start () in
  run ();
  Obs.enable ();
  Obs.reset ();
  Obs.Span.with_span "workload" run;
  let snap = Obs.Metrics.(nonzero (snapshot ())) in
  let alloc =
    match Obs.finished_spans () with
    | [ root ] -> Obs.Span.alloc root
    | _ -> no_alloc
  in
  Obs.disable ();
  Obs.reset ();
  ( a.name,
    {
      counters = snap.Obs.Metrics.counters;
      hists =
        (* The synthetic root would otherwise pollute the per-span data. *)
        List.filter (fun (n, _) -> n <> "span.workload") snap.Obs.Metrics.histograms;
      alloc;
    } )

let run_measurements () = List.map measure arms

let counter_table measured ~title ~columns rows =
  let counter name c =
    match List.assoc_opt name measured with
    | Some m -> Option.value ~default:0 (List.assoc_opt (Obs.Counter.name c) m.counters)
    | None -> 0
  in
  print_endline title;
  print_newline ();
  let width =
    List.fold_left (fun w label -> max w (String.length label)) 8 rows
  in
  Printf.printf "%-*s" width "workload";
  List.iter (fun (h, _) -> Printf.printf " %16s" h) columns;
  print_newline ();
  Printf.printf "%s\n" (String.make (width + (17 * List.length columns)) '-');
  List.iter
    (fun label ->
      Printf.printf "%-*s" width label;
      List.iter (fun (_, c) -> Printf.printf " %16d" (counter label c)) columns;
      print_newline ())
    rows;
  print_newline ()

let run_counter_tables measured =
  let counter_table = counter_table measured in
  let names prefix =
    List.filter_map
      (fun (name, _) ->
        if String.starts_with ~prefix name then Some name else None)
      measured
  in
  counter_table ~title:"B1 — subsumption removal: exact work per algorithm"
    ~columns:
      [
        ("subs.checks", Obs.Names.subsumption_checks);
        ("index.probes", Obs.Names.index_probes);
      ]
    (names "minunion/");
  counter_table
    ~title:
      "B2/B3 — full disjunction D(G): exact work per algorithm (chain graphs)"
    ~columns:
      [
        ("subs.checks", Obs.Names.subsumption_checks);
        ("index.probes", Obs.Names.index_probes);
        ("assoc.considered", Obs.Names.assoc_considered);
        ("join.rows_out", Obs.Names.join_rows_out);
      ]
    (names "fulldisj/");
  counter_table
    ~title:"B5 — chase: occurrences scanned up vs alternatives offered"
    ~columns:
      [
        ("occurrences", Obs.Names.chase_occurrences);
        ("alternatives", Obs.Names.chase_alternatives);
      ]
    (names "chase/");
  counter_table ~title:"B3/B6 — end-to-end illustration on the paper mapping"
    ~columns:
      [
        ("examples", Obs.Names.eval_examples);
        ("ill.candidates", Obs.Names.illustration_candidates);
        ("ill.selected", Obs.Names.illustration_selected);
      ]
    (names "illustrate/");
  counter_table
    ~title:"B9/B10 — engine cache: memo traffic per tier (cached vs no-cache)"
    ~columns:
      [
        ("fj.hits", Obs.Names.cache_fj_hits);
        ("fj.misses", Obs.Names.cache_fj_misses);
        ("dg.hits", Obs.Names.cache_dg_hits);
        ("dg.misses", Obs.Names.cache_dg_misses);
        ("bytes", Obs.Names.cache_bytes_resident);
      ]
    (names "engine/");
  counter_table
    ~title:
      "B15 — incremental maintenance: promotions (example edits)"
    ~columns:
      [
        ("delta.records", Obs.Names.delta_records);
        ("promote.dg.free", Obs.Names.cache_promote_dg_free);
        ("promote.dg.rep", Obs.Names.cache_promote_dg_repaired);
      ]
    (names "engine/example-edit/");
  counter_table
    ~title:"B16 — server loadgen: memo traffic, cold vs warm substrate"
    ~columns:
      [
        ("fj.hits", Obs.Names.cache_fj_hits);
        ("fj.misses", Obs.Names.cache_fj_misses);
        ("dg.hits", Obs.Names.cache_dg_hits);
        ("dg.misses", Obs.Names.cache_dg_misses);
        ("bytes", Obs.Names.cache_bytes_resident);
      ]
    (names "server/");
  counter_table
    ~title:
      "B17 — columnar data plane: million-tuple full disjunction"
    ~columns:
      [
        ("join.probes", Obs.Names.join_hash_probes);
        ("join.rows_out", Obs.Names.join_rows_out);
        ("subs.checks", Obs.Names.subsumption_checks);
        ("index.probes", Obs.Names.index_probes);
      ]
    (names "colplane/");
  counter_table
    ~title:
      "B18 — branching version store: restart replay + cross-branch \
       promotion (warm vs cold)"
    ~columns:
      [
        ("replayed", Obs.Names.version_snapshot_commits_replayed);
        ("cross.dg", Obs.Names.cache_promote_dg_cross_branch);
        ("promote.dg.free", Obs.Names.cache_promote_dg_free);
      ]
    (names "version/restart/");
  (* B18 headline: both reboot arms must agree byte-for-byte on every
     branch — the warm cache is an optimization, never an answer change. *)
  (let dir = Lazy.force b18_store_dir in
   let warm = b18_digests ~warm:true dir in
   let cold = b18_digests ~warm:false dir in
   let agree =
     List.length warm = List.length cold
     && List.for_all2
          (fun (b1, d1) (b2, d2) -> String.equal b1 b2 && String.equal d1 d2)
          warm cold
   in
   Printf.printf
     "B18 — restart-resume headline: %d branches re-evaluated, warm vs cold \
      digests %s\n\n"
     (List.length warm)
     (if agree then "byte-identical" else "MISMATCH"));
  counter_table
    ~title:"B22 — cold offer: rows interned, join work and selection"
    ~columns:
      [
        ("rows.interned", Obs.Names.relation_rows_interned);
        ("join.rows_out", Obs.Names.join_rows_out);
        ("examples", Obs.Names.eval_examples);
        ("ill.candidates", Obs.Names.illustration_candidates);
        ("ill.selected", Obs.Names.illustration_selected);
      ]
    (names "engine/offer-cold" @ names "core/illustration-select");
  (* B16 headline: one verified run per arm, end-to-end numbers; the warm
     arms run once unverified first, as part 3 does. *)
  let b16_outcome ~prime service =
    if prime then b16_run service ();
    Server.Loadgen.run_inprocess ~verify:true service b16_spec
  in
  print_endline
    (Printf.sprintf
       "B16 — server loadgen headline (%d clients x %d ops, paper scenario)"
       b16_spec.Server.Loadgen.clients b16_spec.Server.Loadgen.ops);
  print_newline ();
  Printf.printf "%-6s %10s %10s %10s %8s %10s\n" "arm" "ops/s" "p50(us)"
    "p99(us)" "errors" "verified";
  Printf.printf "%s\n" (String.make 60 '-');
  let outcome_row fmt label o =
    Printf.printf fmt label o.Server.Loadgen.throughput o.Server.Loadgen.p50_us
      o.Server.Loadgen.p99_us o.Server.Loadgen.errors
      (match o.Server.Loadgen.mismatches with
      | Some 0 -> "yes"
      | Some n -> Printf.sprintf "NO(%d)" n
      | None -> "off")
  in
  List.iter
    (fun (label, outcome) ->
      outcome_row "%-6s %10.0f %10.0f %10.0f %8d %10s\n" label (outcome ()))
    [
      ("cold", fun () -> b16_outcome ~prime:false (b16_service ()));
      ("warm", fun () -> b16_outcome ~prime:true (b16_service ()));
      ( "telem",
        fun () -> with_obs (fun () -> b16_outcome ~prime:true (telemetry_service ())) );
    ];
  print_newline ();
  (* B19 headline: the socket arms, one verified concurrent burst each —
     end-to-end throughput plus the byte-for-byte digest check against
     the sequential in-process replay. *)
  print_endline
    (Printf.sprintf
       "B19 — concurrent request execution headline (%d clients x %d ops, \
        chain scenario, socket)"
       b19_spec.Server.Loadgen.clients b19_spec.Server.Loadgen.ops);
  print_newline ();
  Printf.printf "%-10s %10s %10s %10s %8s %10s\n" "arm" "ops/s" "p50(us)"
    "p99(us)" "errors" "verified";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun (label, server) ->
      outcome_row "%-10s %10.0f %10.0f %10.0f %8d %10s\n" label
        (Server.Loadgen.run_socket ~verify:true
           ~address:(Server.Loop.Unix_path (Lazy.force server))
           b19_spec))
    [ ("workers=1", b19_server_w1); ("workers=4", b19_server_w4) ];
  print_newline ();
  (* Allocation per arm: the memory-side counterpart of part 2. *)
  let width =
    List.fold_left (fun w (n, _) -> max w (String.length n)) 8 measured
  in
  print_endline "GC allocation per arm run (words)";
  print_newline ();
  Printf.printf "%-*s %14s %14s %14s\n" width "workload" "minor" "major"
    "promoted";
  Printf.printf "%s\n" (String.make (width + 45) '-');
  List.iter
    (fun (name, m) ->
      Printf.printf "%-*s %14.0f %14.0f %14.0f\n" width name
        m.alloc.Obs.Span.minor_words m.alloc.Obs.Span.major_words
        m.alloc.Obs.Span.promoted_words)
    measured;
  print_newline ()

(* --- bench JSON (consumed by bench/compare.exe) ---

   {
     "schema_version": 1, "kind": "bench", "label": ...,
     "environment": { ... as the metrics JSON ... },
     "benchmarks": { "<arm>": { "time_ns": ... }, ... },
     "workloads":  { "<arm>": { "counters": {...}, "alloc": {...},
                                "histograms": {...} }, ... }
   } *)

let bench_json ~label ~times ~measured =
  let open Obs.Json in
  let workload_json (m : measurement) =
    Obj
      [
        ("counters", Obs.Metrics.counters_json m.counters);
        ( "alloc",
          Obj
            [
              ("minor_words", Num m.alloc.Obs.Span.minor_words);
              ("major_words", Num m.alloc.Obs.Span.major_words);
              ("promoted_words", Num m.alloc.Obs.Span.promoted_words);
            ] );
        ("histograms", Obs.Metrics.histograms_json m.hists);
      ]
  in
  Obj
    [
      ("schema_version", Num 1.);
      ("kind", Str "bench");
      ("label", Str label);
      ("quick", Bool quick);
      ("environment", Obs.Metrics.environment_json ());
      ( "benchmarks",
        Obj
          (List.map (fun (name, ns) -> (name, Obj [ ("time_ns", Num ns) ])) times)
      );
      ( "workloads",
        Obj (List.map (fun (name, m) -> (name, workload_json m)) measured) );
    ]

let write_bench_json ~label ~file ~times ~measured =
  let oc = open_out file in
  output_string oc (Obs.Json.to_string_pretty (bench_json ~label ~times ~measured));
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "bench json written to %s\n" file

let () =
  let figures = not (List.mem "--no-figures" argv) in
  let bench = not (List.mem "--no-bench" argv) in
  let stats = not (List.mem "--no-stats" argv) in
  let json = label <> None || out_file <> None in
  if figures then begin
    print_endline "######################################################";
    print_endline "# Part 1: paper evaluation — figures and examples   #";
    print_endline "######################################################\n";
    List.iter
      (fun (id, descr, render) ->
        Printf.printf "==== %s — %s ====\n%s\n\n" id descr (render ()))
      Paperdata.Report.all
  end;
  let times =
    if bench then begin
      print_endline "######################################################";
      print_endline "# Part 2: performance benchmarks (B1-B20, B22)      #";
      print_endline "######################################################\n";
      run_benchmarks ()
    end
    else []
  in
  let measured = if stats || json then run_measurements () else [] in
  if stats then begin
    print_endline "######################################################";
    print_endline "# Part 3: operator counters & allocation (lib/obs)  #";
    print_endline "######################################################\n";
    run_counter_tables measured
  end;
  if json then begin
    let label = Option.value label ~default:"run" in
    let file =
      match out_file with
      | Some f -> f
      | None -> Printf.sprintf "BENCH_%s.json" label
    in
    write_bench_json ~label ~file ~times ~measured
  end
