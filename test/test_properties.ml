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
      let eval_over (fd : Fulldisj.Full_disjunction.result) =
        Relation.create ~allow_all_null:true m.Mapping.target
          (Mapping.target_schema m)
          (List.filter_map (Mapping_eval.apply_one fd m)
             fd.Fulldisj.Full_disjunction.associations)
      in
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
        ] );
    ]
