(* Cross-module QCheck properties on random synthetic instances: ordering
   laws of subsumption, full-disjunction/rooted-plan agreement under the
   mapping pipeline, sufficiency of greedy selection, continuity of
   evolution after random walk extensions. *)

open Relational
open Clio
module Qgraph = Querygraph.Qgraph

let qtest t = QCheck_alcotest.to_alcotest ~long:false t

(* --- subsumption is a partial order (on deduped tuples) --- *)

let tuple_gen arity =
  QCheck2.Gen.(
    map Array.of_list
      (list_repeat arity
         (frequency
            [ (1, return Value.Null); (2, map (fun i -> Value.Int i) (int_range 0 2)) ])))

let prop_subsume_reflexive =
  QCheck2.Test.make ~name:"subsumes reflexive" ~count:200 (tuple_gen 4) (fun t ->
      Tuple.subsumes t t)

let prop_subsume_antisymmetric =
  QCheck2.Test.make ~name:"subsumes antisymmetric" ~count:500
    QCheck2.Gen.(pair (tuple_gen 3) (tuple_gen 3))
    (fun (a, b) ->
      if Tuple.subsumes a b && Tuple.subsumes b a then Tuple.equal a b else true)

let prop_subsume_transitive =
  QCheck2.Test.make ~name:"subsumes transitive" ~count:500
    QCheck2.Gen.(triple (tuple_gen 3) (tuple_gen 3) (tuple_gen 3))
    (fun (a, b, c) ->
      if Tuple.subsumes a b && Tuple.subsumes b c then Tuple.subsumes a c else true)

(* --- random chain instance + identity mapping --- *)

let instance_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100000 in
    let* n = int_range 2 4 in
    let* rows = int_range 1 15 in
    return (seed, n, rows))

let make_instance (seed, n, rows) =
  let st = Random.State.make [| seed |] in
  Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.25 ~orphan_prob:0.25 ()

(* Identity mapping over each node's id column. *)
let identity_mapping (inst : Synth.Gen_graph.instance) =
  let aliases = Qgraph.aliases inst.Synth.Gen_graph.graph in
  let cols = List.map (fun a -> "c_" ^ a) aliases in
  Mapping.make ~graph:inst.Synth.Gen_graph.graph ~target:"T" ~target_cols:cols
    ~correspondences:
      (List.map (fun a -> Correspondence.identity ("c_" ^ a) (Attr.make a "id")) aliases)
    ()

let prop_eval_algorithms_agree =
  QCheck2.Test.make ~name:"mapping eval agrees across algorithms" ~count:50 instance_gen
    (fun params ->
      let inst = make_instance params in
      let m = identity_mapping inst in
      let db = inst.Synth.Gen_graph.db in
      let g = inst.Synth.Gen_graph.graph in
      let src = Fulldisj.Source.of_db db in
      (* Q_M over a D(G) computed outside the engine. *)
      let eval_over fd = Mapping_eval.apply fd m in
      let served = Mapping_eval.eval (Eval_ctx.transient db) m in
      Relation.equal_contents served
        (eval_over (Fulldisj.Full_disjunction.naive src g))
      && Relation.equal_contents served
           (eval_over (Fulldisj.Outerjoin_plan.full_disjunction src g)))

let prop_rooted_sql_equivalence =
  QCheck2.Test.make ~name:"rooted left-join = Q_M when root forced" ~count:50
    instance_gen (fun params ->
      let inst = make_instance params in
      let m = identity_mapping inst in
      let root = List.hd (Qgraph.aliases inst.Synth.Gen_graph.graph) in
      let m =
        Mapping.add_target_filter m (Predicate.Is_not_null (Expr.col "T" ("c_" ^ root)))
      in
      Mapping_sql.rooted_equivalent (Eval_ctx.transient inst.Synth.Gen_graph.db) ~root m)

let prop_selection_sufficient =
  QCheck2.Test.make ~name:"greedy selection is sufficient" ~count:50 instance_gen
    (fun params ->
      let inst = make_instance params in
      let m = identity_mapping inst in
      let universe = Mapping_eval.examples (Eval_ctx.transient inst.Synth.Gen_graph.db) m in
      let ill =
        Sufficiency.select ~universe ~target_cols:m.Mapping.target_cols ()
      in
      Sufficiency.is_sufficient ~universe ~target_cols:m.Mapping.target_cols ill)

let prop_positive_examples_match_eval =
  QCheck2.Test.make ~name:"positive examples = mapping query result" ~count:50
    instance_gen (fun params ->
      let inst = make_instance params in
      let m = identity_mapping inst in
      let m =
        Mapping.add_source_filter m
          (Predicate.Is_not_null
             (Expr.col (List.hd (Qgraph.aliases inst.Synth.Gen_graph.graph)) "id"))
      in
      let db = inst.Synth.Gen_graph.db in
      let from_examples =
        Mapping_eval.examples (Eval_ctx.transient db) m
        |> List.filter Example.is_positive
        |> List.map (fun e -> e.Example.target_tuple)
        |> List.sort_uniq Tuple.compare
      in
      let from_eval = Relation.tuples (Mapping_eval.eval (Eval_ctx.transient db) m) |> List.sort Tuple.compare in
      List.length from_examples = List.length from_eval
      && List.for_all2 Tuple.equal from_examples from_eval)

(* --- walks on random star instances --- *)

let star_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100000 in
    let* leaves = int_range 2 4 in
    return (seed, leaves))

let prop_walk_alternatives_preserve_g =
  QCheck2.Test.make ~name:"walk alternatives contain G induced" ~count:30 star_gen
    (fun (seed, leaves) ->
      let st = Random.State.make [| seed |] in
      let inst = Synth.Gen_graph.star st ~leaves ~rows:5 () in
      let g0 = Qgraph.singleton ~alias:"Fact" ~base:"Fact" in
      let m = Mapping.make ~graph:g0 ~target:"T" ~target_cols:[ "x" ] () in
      let goal = "D1" in
      let alts =
        Op_walk.walk_alternatives ~kb:inst.Synth.Gen_graph.kb m ~start:"Fact" ~goal
          ~max_len:2 ()
      in
      alts <> []
      && List.for_all
           (fun (a : Op_walk.alternative) ->
             let g = a.Op_walk.mapping.Mapping.graph in
             Qgraph.is_connected g
             && Qgraph.equal (Qgraph.induced g [ "Fact" ]) g0
             && List.exists
                  (fun n -> String.equal n.Qgraph.base goal)
                  (Qgraph.nodes g))
           alts)

(* --- evolution continuity after an extension --- *)

let prop_every_association_has_continuation =
  QCheck2.Test.make ~name:"D(G) embeds into D(G') continuations" ~count:40
    instance_gen (fun params ->
      let inst = make_instance params in
      let g' = inst.Synth.Gen_graph.graph in
      let aliases = Qgraph.aliases g' in
      if List.length aliases < 2 then true
      else
        (* Drop one leaf to get G, then check every example of G has a
           continuation among G''s examples. *)
        let leaf =
          List.find_opt
            (fun a -> List.length (Qgraph.neighbours g' a) <= 1)
            (List.rev aliases)
        in
        match leaf with
        | None -> true
        | Some leaf when List.length aliases = 1 -> ignore leaf; true
        | Some leaf ->
            let keep = List.filter (fun a -> a <> leaf) aliases in
            let g = Qgraph.induced g' keep in
            if not (Qgraph.is_connected g) then true
            else
              let db = inst.Synth.Gen_graph.db in
              let mk graph cols_of =
                Mapping.make ~graph ~target:"T"
                  ~target_cols:(List.map (fun a -> "c_" ^ a) cols_of)
                  ~correspondences:
                    (List.map
                       (fun a -> Correspondence.identity ("c_" ^ a) (Attr.make a "id"))
                       cols_of)
                  ()
              in
              let old_m = mk g keep in
              let new_m = mk g' keep in
              let lookup = Database.find db in
              let old_scheme = Qgraph.scheme ~lookup g in
              let new_scheme = Qgraph.scheme ~lookup g' in
              let old_exs = Mapping_eval.examples (Eval_ctx.transient db) old_m in
              let new_exs = Mapping_eval.examples (Eval_ctx.transient db) new_m in
              List.for_all
                (fun old_e ->
                  Evolution.continuations ~old_scheme ~new_scheme old_e new_exs <> [])
                old_exs)

let prop_evolve_sufficient_and_continuous =
  QCheck2.Test.make ~name:"evolved illustration sufficient + continuous" ~count:30
    star_gen (fun (seed, leaves) ->
      let st = Random.State.make [| seed |] in
      let inst = Synth.Gen_graph.star st ~leaves ~rows:6 ~null_prob:0.3 () in
      let db = inst.Synth.Gen_graph.db in
      let g0 = Qgraph.singleton ~alias:"Fact" ~base:"Fact" in
      let m0 =
        Mapping.make ~graph:g0 ~target:"T" ~target_cols:[ "x" ]
          ~correspondences:[ Correspondence.identity "x" (Attr.make "Fact" "id") ]
          ()
      in
      let old_ill = Clio.illustrate (Eval_ctx.transient db) m0 in
      match
        Op_walk.walk_alternatives ~kb:inst.Synth.Gen_graph.kb m0 ~start:"Fact" ~goal:"D1"
          ~max_len:1 ()
      with
      | [] -> true
      | (alt : Op_walk.alternative) :: _ ->
          let new_m = alt.Op_walk.mapping in
          let evolved =
            Evolution.evolve (Eval_ctx.transient db) ~old_mapping:m0 ~old_illustration:old_ill new_m
          in
          let universe = Mapping_eval.examples (Eval_ctx.transient db) new_m in
          Sufficiency.is_sufficient ~universe ~target_cols:new_m.Mapping.target_cols
            evolved
          && Evolution.is_continuous (Eval_ctx.transient db) ~old_mapping:m0 ~old_illustration:old_ill
               ~new_mapping:new_m evolved)

(* --- the hoisted continuation check = the projection-based one --- *)

(* The definition the hoisted check replaced: project the new tuple onto
   the old scheme, attribute by attribute, then test subsumption. *)
let oracle_continues ~old_scheme ~new_scheme old_e new_e =
  let positions =
    Array.to_list (Schema.attrs old_scheme) |> List.map (Schema.index new_scheme)
  in
  let proj = Tuple.project new_e.Example.tuple positions in
  Tuple.subsumes proj old_e.Example.tuple

let oracle_evolve ctx ~old_scheme ~new_scheme ~old_illustration (new_m : Mapping.t) =
  let universe = Mapping_eval.examples ctx new_m in
  let seed =
    List.filter_map
      (fun old_e ->
        match
          List.filter (oracle_continues ~old_scheme ~new_scheme old_e) universe
        with
        | [] -> None
        | c :: _ -> Some c)
      old_illustration
  in
  let seed =
    List.fold_left
      (fun acc e -> if Illustration.mem e acc then acc else acc @ [ e ])
      [] seed
  in
  Sufficiency.select ~seed ~universe ~target_cols:new_m.Mapping.target_cols ()

let oracle_is_continuous ~old_scheme ~new_scheme ~old_illustration ~universe
    illustration =
  List.for_all
    (fun old_e ->
      let continues = oracle_continues ~old_scheme ~new_scheme old_e in
      (not (List.exists continues universe))
      || List.exists (fun e -> Illustration.mem e illustration && continues e) universe)
    old_illustration

let walk_gen =
  QCheck2.Gen.(
    let* params = instance_gen in
    let* start = int_range 0 3 in
    let* goal = int_range 0 3 in
    return (params, start, goal))

let prop_continuations_match_oracle =
  QCheck2.Test.make
    ~name:"continuations, evolve and is_continuous = projection oracle"
    ~count:100 walk_gen (fun (params, start, goal) ->
      let inst = make_instance params in
      let db = inst.Synth.Gen_graph.db in
      let aliases = Qgraph.aliases inst.Synth.Gen_graph.graph in
      let pick i = List.nth aliases (i mod List.length aliases) in
      let start = pick start and goal = pick goal in
      let ctx = Eval_ctx.transient db in
      let m0 =
        Mapping.make
          ~graph:(Qgraph.singleton ~alias:start ~base:start)
          ~target:"T" ~target_cols:[ "x"; "y" ]
          ~correspondences:[ Correspondence.identity "x" (Attr.make start "id") ]
          ()
      in
      let old_exs = Mapping_eval.examples ctx m0 in
      let old_ill = Clio.illustrate ctx m0 in
      let lookup = Database.find db in
      let old_scheme = Qgraph.scheme ~lookup m0.Mapping.graph in
      Op_walk.walk_alternatives ~kb:inst.Synth.Gen_graph.kb m0 ~start ~goal
        ~max_len:2 ()
      |> List.for_all (fun (alt : Op_walk.alternative) ->
             let new_m = alt.Op_walk.mapping in
             let new_scheme = Qgraph.scheme ~lookup new_m.Mapping.graph in
             let universe = Mapping_eval.examples ctx new_m in
             let evolved =
               Evolution.evolve ctx ~old_mapping:m0 ~old_illustration:old_ill new_m
             in
             List.for_all
               (fun old_e ->
                 List.equal ( == )
                   (Evolution.continuations ~old_scheme ~new_scheme old_e universe)
                   (List.filter
                      (oracle_continues ~old_scheme ~new_scheme old_e)
                      universe))
               old_exs
             && List.equal Example.equal evolved
                  (oracle_evolve ctx ~old_scheme ~new_scheme
                     ~old_illustration:old_ill new_m)
             && List.for_all
                  (fun ill ->
                    Bool.equal
                      (Evolution.is_continuous ctx ~old_mapping:m0
                         ~old_illustration:old_exs ~new_mapping:new_m ill)
                      (oracle_is_continuous ~old_scheme ~new_scheme
                         ~old_illustration:old_exs ~universe ill))
                  [ evolved; Clio.illustrate ctx new_m; [] ]))

(* Old and new schemes over random attributes, the new one a shuffled
   superset of the old; old examples and candidates with random nulls, so
   a null the user saw may face any value. *)
let continuation_gen =
  QCheck2.Gen.(
    let* old_arity = int_range 0 4 in
    let* extra = int_range 0 3 in
    let attrs = List.init (old_arity + extra) (fun i -> Attr.make "R" (Printf.sprintf "a%d" i)) in
    let* new_attrs = shuffle_l attrs in
    let value = frequency [ (1, return Value.Null); (3, map (fun i -> Value.Int i) (int_range 0 1)) ] in
    let example arity =
      let* cells = array_repeat arity value in
      return
        {
          Example.tuple = cells;
          coverage = Fulldisj.Coverage.singleton "R";
          target_tuple = [||];
          positive = true;
        }
    in
    let* olds = list_size (int_range 1 4) (example old_arity) in
    let* candidates = list_size (int_range 0 12) (example (old_arity + extra)) in
    return
      ( Schema.of_attrs (List.filteri (fun i _ -> i < old_arity) attrs),
        Schema.of_attrs new_attrs,
        olds,
        candidates ))

let prop_continues_match_oracle =
  QCheck2.Test.make ~name:"continues = projection oracle on random tuples"
    ~count:500 continuation_gen (fun (old_scheme, new_scheme, olds, candidates) ->
      List.for_all
        (fun old_e ->
          List.equal ( == )
            (Evolution.continuations ~old_scheme ~new_scheme old_e candidates)
            (List.filter (oracle_continues ~old_scheme ~new_scheme old_e) candidates))
        olds)

(* --- one-pass sufficiency requirements = the three-pass definition --- *)

let oracle_distinct_coverages universe =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun e ->
      let key = Fulldisj.Coverage.to_list (Example.coverage e) in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some (Example.coverage e)
      end)
    universe

let oracle_satisfiable ~target_cols universe req =
  List.exists (fun e -> Sufficiency.satisfies ~target_cols e req) universe

let oracle_graph_requirements ~universe =
  List.map (fun c -> Sufficiency.Cover c) (oracle_distinct_coverages universe)

let oracle_filter_requirements ~universe =
  oracle_distinct_coverages universe
  |> List.concat_map (fun c ->
         List.filter
           (oracle_satisfiable ~target_cols:[] universe)
           [ Sufficiency.Polarity (c, true); Sufficiency.Polarity (c, false) ])

let oracle_correspondence_requirements ~universe ~target_cols =
  oracle_distinct_coverages universe
  |> List.concat_map (fun c ->
         List.concat_map
           (fun b ->
             List.filter
               (oracle_satisfiable ~target_cols universe)
               [ Sufficiency.Attr_null (c, b, false); Sufficiency.Attr_null (c, b, true) ])
           target_cols)

let requirement_equal (a : Sufficiency.requirement) (b : Sufficiency.requirement) =
  let open Sufficiency in
  match (a, b) with
  | Cover c, Cover d -> Fulldisj.Coverage.equal c d
  | Polarity (c, p), Polarity (d, q) -> Fulldisj.Coverage.equal c d && Bool.equal p q
  | Attr_null (c, x, n), Attr_null (d, y, m) ->
      Fulldisj.Coverage.equal c d && String.equal x y && Bool.equal n m
  | _ -> false

(* Examples over a few aliases, coverages built in either order (equal
   sets, different trees), target columns that may repeat. *)
let universe_gen =
  QCheck2.Gen.(
    let* target_cols = list_size (int_range 0 4) (oneofl [ "a"; "b"; "c" ]) in
    let ncols = List.length target_cols in
    let example =
      let* aliases = list_size (int_range 1 3) (oneofl [ "R"; "S"; "T" ]) in
      let* reversed = bool in
      let* positive = bool in
      let* cells =
        list_repeat ncols
          (frequency [ (1, return Value.Null); (2, map (fun i -> Value.Int i) small_nat) ])
      in
      let coverage =
        Fulldisj.Coverage.of_list (if reversed then List.rev aliases else aliases)
      in
      return
        {
          Example.tuple = [||];
          coverage;
          target_tuple = Array.of_list cells;
          positive;
        }
    in
    let* universe = list_size (int_range 0 30) example in
    return (target_cols, universe))

let prop_requirements_match_oracle =
  QCheck2.Test.make ~name:"requirements = three-pass definition, order included"
    ~count:300 universe_gen (fun (target_cols, universe) ->
      List.equal requirement_equal
        (Sufficiency.requirements ~universe ~target_cols)
        (oracle_graph_requirements ~universe
        @ oracle_filter_requirements ~universe
        @ oracle_correspondence_requirements ~universe ~target_cols)
      && List.equal requirement_equal
           (Sufficiency.graph_requirements ~universe)
           (oracle_graph_requirements ~universe)
      && List.equal requirement_equal
           (Sufficiency.filter_requirements ~universe)
           (oracle_filter_requirements ~universe)
      && List.equal requirement_equal
           (Sufficiency.correspondence_requirements ~universe ~target_cols)
           (oracle_correspondence_requirements ~universe ~target_cols))

(* --- chase always yields valid mappings --- *)

let prop_chase_mappings_valid =
  QCheck2.Test.make ~name:"chase alternatives are valid mappings" ~count:30
    instance_gen (fun params ->
      let inst = make_instance params in
      let db = inst.Synth.Gen_graph.db in
      let aliases = Qgraph.aliases inst.Synth.Gen_graph.graph in
      let root = List.hd aliases in
      let g0 = Qgraph.singleton ~alias:root ~base:root in
      let m = Mapping.make ~graph:g0 ~target:"T" ~target_cols:[ "x" ] () in
      let r = Database.get db root in
      match Relation.tuples r with
      | [] -> true
      | t :: _ ->
          let v = t.(0) in
          Op_chase.chase (Eval_ctx.transient db) m ~attr:(Attr.make root "id") ~value:v
          |> List.for_all (fun (a : Op_chase.alternative) ->
                 Qgraph.is_connected a.Op_chase.mapping.Mapping.graph
                 && Qgraph.node_count a.Op_chase.mapping.Mapping.graph = 2))

(* --- sampling soundness over random instances --- *)

let prop_sampling_sound =
  QCheck2.Test.make ~name:"sampled slices are sound" ~count:25
    QCheck2.Gen.(triple (int_range 0 10000) (int_range 2 4) (int_range 10 80))
    (fun (seed, n, rows) ->
      let st = Random.State.make [| seed |] in
      let inst =
        Synth.Gen_graph.random_tree st ~n ~rows ~null_prob:0.25 ~orphan_prob:0.2 ()
      in
      let m = identity_mapping inst in
      let universe, ill =
        Sampling.illustrate_sampled ~seed ~per_relation:5 (Eval_ctx.transient inst.Synth.Gen_graph.db) m
      in
      Sampling.sound (Eval_ctx.transient inst.Synth.Gen_graph.db) m ~slice_universe:universe
      && Sufficiency.is_sufficient ~universe ~target_cols:m.Mapping.target_cols ill)

(* --- mapping persistence round-trips on random instances --- *)

let prop_mapping_io_roundtrips =
  QCheck2.Test.make ~name:"Mapping_io round-trips" ~count:40
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 2 5))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let inst = Synth.Gen_graph.random_tree st ~n ~rows:5 () in
      let m = identity_mapping inst in
      let m =
        Mapping.add_target_filter
          (Mapping.add_source_filter m
             (Predicate.Cmp
                ( Predicate.Ge,
                  Expr.col (List.hd (Qgraph.aliases inst.Synth.Gen_graph.graph)) "id",
                  Expr.Const (Relational.Value.Int 0) )))
          (Predicate.Is_not_null
             (Expr.col "T" ("c_" ^ List.hd (Qgraph.aliases inst.Synth.Gen_graph.graph))))
      in
      let kb = inst.Synth.Gen_graph.kb in
      Mapping_io.roundtrips ~db:inst.Synth.Gen_graph.db ~kb m)

let () =
  Alcotest.run "properties"
    [
      ( "subsumption-order",
        [
          qtest prop_subsume_reflexive;
          qtest prop_subsume_antisymmetric;
          qtest prop_subsume_transitive;
        ] );
      ( "mapping-pipeline",
        [
          qtest prop_eval_algorithms_agree;
          qtest prop_rooted_sql_equivalence;
          qtest prop_selection_sufficient;
          qtest prop_positive_examples_match_eval;
        ] );
      ( "operators",
        [
          qtest prop_walk_alternatives_preserve_g;
          qtest prop_every_association_has_continuation;
          qtest prop_evolve_sufficient_and_continuous;
          qtest prop_chase_mappings_valid;
          qtest prop_sampling_sound;
          qtest prop_mapping_io_roundtrips;
          qtest prop_continuations_match_oracle;
          qtest prop_continues_match_oracle;
          qtest prop_requirements_match_oracle;
        ] );
    ]
