(* Tests for examples, illustrations, sufficiency (Definitions 4.2–4.6) and
   focus (Definition 4.7), on the paper's running mapping (experiments E4.3
   and E4.8). *)

open Relational
open Fulldisj
open Clio
module Qgraph = Querygraph.Qgraph

let db = Paperdata.Figure1.database
let m = Paperdata.Running.mapping
let target_cols = Paperdata.Running.kids_cols
let universe = Mapping_eval.examples (Eval_ctx.transient db) m

let scheme =
  (Mapping_eval.data_associations (Eval_ctx.transient db) m).Full_disjunction.scheme

let label e = Coverage.label ~short:Paperdata.Figure1.short (Example.coverage e)
let select () = Sufficiency.select ~universe ~target_cols ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Example basics --- *)

let test_universe_size () = Alcotest.(check int) "11 examples" 11 (List.length universe)

let test_positive_examples () =
  let pos = List.filter Example.is_positive universe in
  (* Joe, Maya (CPPhS) and Ann (CPPh); Bob fails age<7; the rest fail
     Kids.ID not-null. *)
  Alcotest.(check int) "three positives" 3 (List.length pos);
  List.iter
    (fun e ->
      Alcotest.(check bool) "coverage includes Children" true
        (Coverage.mem "Children" (Example.coverage e)))
    pos

let test_negative_example_bob () =
  let bob =
    List.find
      (fun e ->
        Value.equal e.Example.target_tuple.(1) (Value.String "Bob"))
      universe
  in
  Alcotest.(check bool) "negative" true (Example.is_negative bob);
  Alcotest.(check string) "full coverage" "CPPhS" (label bob);
  Alcotest.(check string) "tag" "CPPhS -" (Example.tag ~short:Paperdata.Figure1.short bob)

let test_example_target_tuple_computed_without_filters () =
  (* Even negative examples show what the target tuple would have been. *)
  let s777 =
    List.find (fun e -> String.equal (label e) "S") universe
  in
  Alcotest.(check bool) "BusSchedule visible" true
    (Value.equal s777.Example.target_tuple.(4) (Value.String "7:30am"));
  Alcotest.(check bool) "ID null" true (Value.is_null s777.Example.target_tuple.(0))

(* --- Sufficiency: Definition 4.2 (query graph) --- *)

let test_sufficient_illustration_is_sufficient () =
  let ill = select () in
  Alcotest.(check bool) "graph" true
    (Sufficiency.is_sufficient_graph ~universe ~target_cols ill);
  Alcotest.(check bool) "filters" true
    (Sufficiency.is_sufficient_filters ~universe ~target_cols ill);
  Alcotest.(check bool) "correspondences" true
    (Sufficiency.is_sufficient_correspondences ~universe ~target_cols ill);
  Alcotest.(check bool) "mapping" true (Sufficiency.is_sufficient ~universe ~target_cols ill)

let test_selection_smaller_than_universe () =
  let ill = select () in
  Alcotest.(check bool) "proper subset" true
    (List.length ill < List.length universe);
  List.iter
    (fun e -> Alcotest.(check bool) "from universe" true (Illustration.mem e universe))
    ill

(* E4.3: dropping one CPPhS example keeps sufficiency; dropping the PPh
   example breaks the graph requirement. *)
let test_e43_drop_one_cpphs_keeps_sufficiency () =
  let ill = select () in
  let cpphs = List.filter (fun e -> String.equal (label e) "CPPhS") ill in
  (* Universe has Joe, Maya (+) and Bob (-) at CPPhS; sufficiency needs one
     (+) and one (-): if selection kept more than two, dropping a spare
     positive is safe. *)
  match List.filter Example.is_positive cpphs with
  | _ :: _ ->
      let one_pos = List.hd (List.filter Example.is_positive cpphs) in
      let smaller =
        List.filter (fun e -> not (Example.equal e one_pos)) (universe)
      in
      (* Re-select from a universe with that example dropped: still
         sufficient w.r.t. the original universe because another CPPhS
         positive exists. *)
      let re = Sufficiency.select ~universe:smaller ~target_cols () in
      Alcotest.(check bool) "still sufficient" true
        (Sufficiency.is_sufficient ~universe ~target_cols re)
  | [] -> Alcotest.fail "expected a positive CPPhS example in the selection"

let test_e43_dropping_pph_breaks_sufficiency () =
  let ill = select () in
  let without_pph = List.filter (fun e -> not (String.equal (label e) "PPh")) ill in
  Alcotest.(check bool) "insufficient" false
    (Sufficiency.is_sufficient_graph ~universe ~target_cols without_pph)

let test_missing_reports_pph () =
  let ill = select () in
  let without_pph = List.filter (fun e -> not (String.equal (label e) "PPh")) ill in
  let missing = Sufficiency.missing ~universe ~target_cols without_pph in
  Alcotest.(check bool) "PPh among missing" true
    (List.exists
       (function
         | Sufficiency.Cover c ->
             String.equal (Coverage.label ~short:Paperdata.Figure1.short c) "PPh"
         | _ -> false)
       missing)

(* Definition 4.4: both polarities at CPPhS must be illustrated. *)
let test_filters_need_both_polarities () =
  let ill = select () in
  let cpphs = List.filter (fun e -> String.equal (label e) "CPPhS") ill in
  Alcotest.(check bool) "has positive" true (List.exists Example.is_positive cpphs);
  Alcotest.(check bool) "has negative (Bob)" true (List.exists Example.is_negative cpphs)

(* Definition 4.5: Ann's null BusSchedule at CPPh must be illustrated. *)
let test_correspondence_null_slot () =
  let ill = select () in
  let ann =
    List.filter
      (fun e ->
        String.equal (label e) "CPPh" && Example.is_positive e
        && Value.is_null e.Example.target_tuple.(4))
      ill
  in
  Alcotest.(check int) "Ann present" 1 (List.length ann)

(* Requirements derive only satisfiable slots. *)
let test_requirements_satisfiable () =
  let reqs = Sufficiency.requirements ~universe ~target_cols in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Format.asprintf "%a" Sufficiency.pp_requirement r)
        true
        (List.exists (fun e -> Sufficiency.satisfies ~target_cols e r) universe))
    reqs

let test_select_exact () =
  let exact = Sufficiency.select_exact ~universe ~target_cols () in
  let greedy = select () in
  Alcotest.(check bool) "exact sufficient" true
    (Sufficiency.is_sufficient ~universe ~target_cols exact);
  Alcotest.(check bool) "exact <= greedy" true
    (List.length exact <= List.length greedy);
  (* Across random instances too. *)
  for seed = 0 to 8 do
    let st = Random.State.make [| seed |] in
    let inst =
      Synth.Gen_graph.random_tree st ~n:3 ~rows:10 ~null_prob:0.3 ~orphan_prob:0.25 ()
    in
    let aliases = Qgraph.aliases inst.Synth.Gen_graph.graph in
    let m =
      Mapping.make ~graph:inst.Synth.Gen_graph.graph ~target:"T"
        ~target_cols:(List.map (fun a -> "c_" ^ a) aliases)
        ~correspondences:
          (List.map
             (fun a -> Correspondence.identity ("c_" ^ a) (Attr.make a "id"))
             aliases)
        ()
    in
    let u = Mapping_eval.examples (Eval_ctx.transient inst.Synth.Gen_graph.db) m in
    let cols = m.Mapping.target_cols in
    let e = Sufficiency.select_exact ~universe:u ~target_cols:cols () in
    let g = Sufficiency.select ~universe:u ~target_cols:cols () in
    Alcotest.(check bool) "sufficient" true
      (Sufficiency.is_sufficient ~universe:u ~target_cols:cols e);
    Alcotest.(check bool) "<= greedy" true (List.length e <= List.length g)
  done

let test_seeded_selection_keeps_seed () =
  let seed = [ List.hd universe ] in
  let ill = Sufficiency.select ~seed ~universe ~target_cols () in
  Alcotest.(check bool) "seed kept" true (Illustration.mem (List.hd universe) ill);
  Alcotest.(check bool) "sufficient" true
    (Sufficiency.is_sufficient ~universe ~target_cols ill)

(* The greedy selection one example at a time, as [Sufficiency.select]
   did before it grouped examples by signature: each round scores every
   example of the universe against the unmet requirements and takes the
   first one of highest gain.  Also returns the rounds it took. *)
let greedy_oracle ~seed ~universe ~target_cols =
  let satisfies = Sufficiency.satisfies ~target_cols in
  let unmet =
    List.filter
      (fun req -> not (List.exists (fun e -> satisfies e req) seed))
      (Sufficiency.requirements ~universe ~target_cols)
  in
  let rounds = ref 0 in
  let rec cover chosen unmet =
    if unmet = [] then List.rev chosen
    else begin
      incr rounds;
      let gain e = List.length (List.filter (satisfies e) unmet) in
      let best =
        List.fold_left
          (fun acc e ->
            let g = gain e in
            match acc with
            | Some (_, bg) when bg >= g -> acc
            | _ when g = 0 -> acc
            | _ -> Some (e, g))
          None universe
      in
      match best with
      | None -> Alcotest.fail "oracle: an unmet requirement no example meets"
      | Some (e, _) ->
          cover (e :: chosen) (List.filter (fun req -> not (satisfies e req)) unmet)
    end
  in
  let chosen = seed @ cover [] unmet in
  (chosen, !rounds)

(* Universes with few coverages, few target values and many ties: each
   example is (coverage, polarity, target cells), the association tuple
   only tells examples apart.  Seeds are drawn from the universe. *)
let universe_gen =
  QCheck2.Gen.(
    let* ncols = int_range 1 3 in
    let coverages =
      [ [ "A" ]; [ "A"; "B" ]; [ "A"; "B"; "C" ]; [ "B"; "C" ]; [ "C" ] ]
    in
    let* ncov = int_range 1 (List.length coverages) in
    let example =
      triple (int_bound (ncov - 1)) bool
        (array_size (return ncols) (opt ~ratio:0.6 (int_bound 2)))
    in
    let* drawn = list_size (int_range 0 40) example in
    let universe =
      List.mapi
        (fun i (c, positive, cells) ->
          {
            Example.tuple = [| Value.Int i |];
            coverage = Coverage.of_list (List.nth coverages c);
            target_tuple =
              Array.map (function Some v -> Value.Int v | None -> Value.Null) cells;
            positive;
          })
        drawn
    in
    let* picks = list_size (int_range 1 3) nat in
    let seed =
      if universe = [] then []
      else
        List.fold_left
          (fun acc k ->
            let e = List.nth universe (k mod List.length universe) in
            if List.memq e acc then acc else acc @ [ e ])
          [] picks
    in
    return (List.init ncols (Printf.sprintf "t%d"), universe, seed))

let prop_select_matches_oracle =
  QCheck2.Test.make ~name:"signature greedy = per-example greedy" ~count:500
    universe_gen (fun (target_cols, universe, seed) ->
      let was_enabled = Obs.enabled () in
      Obs.enable ();
      Fun.protect
        ~finally:(fun () -> if not was_enabled then Obs.disable ())
        (fun () ->
          let considered () =
            Obs.Counter.value Obs.Names.illustration_candidates
          in
          let before = considered () in
          let chosen = Sufficiency.select ~seed ~universe ~target_cols () in
          let counted = considered () - before in
          let expected, rounds = greedy_oracle ~seed ~universe ~target_cols in
          List.equal ( == ) expected chosen
          && counted = rounds * List.length universe))

(* --- by_category / render --- *)

let test_by_category_partition () =
  let cats = Illustration.by_category universe in
  Alcotest.(check int) "six categories" 6 (List.length cats);
  let total = List.fold_left (fun acc (_, es) -> acc + List.length es) 0 cats in
  Alcotest.(check int) "partition" (List.length universe) total

let test_render_shows_tags () =
  let ill = select () in
  let s = Illustration.render ~short:Paperdata.Figure1.short ~scheme ill in
  Alcotest.(check bool) "has CPPhS tag" true (contains s "CPPhS");
  Alcotest.(check bool) "has polarity" true (contains s "+")

let test_render_column_restriction () =
  let ill = select () in
  let s =
    Illustration.render ~short:Paperdata.Figure1.short
      ~columns:[ Attr.make "Children" "name" ] ~scheme ill
  in
  (* A single-node restriction renders unqualified headers. *)
  Alcotest.(check bool) "kept name" true (contains s "name");
  Alcotest.(check bool) "dropped docid" false (contains s "docid")

let test_render_source_tables () =
  let ill = select () in
  let s =
    Illustration.render_source_tables ~lookup:(Database.find db)
      ~graph:m.Mapping.graph ~scheme ill
  in
  (* Each graph node becomes its own table; involved rows are starred. *)
  List.iter
    (fun alias -> Alcotest.(check bool) alias true (contains s alias))
    [ "Children"; "Parents"; "PhoneDir"; "SBPS" ];
  Alcotest.(check bool) "some rows starred" true (contains s "| * |")

let test_render_target () =
  let ill = select () in
  let s =
    Illustration.render_target ~short:Paperdata.Figure1.short
      ~target_schema:(Mapping.target_schema m) ill
  in
  Alcotest.(check bool) "target cols" true (contains s "BusSchedule")

(* --- Focus (Definition 4.7 / E4.8) --- *)

let children_tuples ids =
  let r = Database.get db "Children" in
  Relation.tuples r
  |> List.filter (fun t -> List.exists (fun id -> Value.equal t.(0) (Value.String id)) ids)

let test_focus_on_all_children () =
  let tuples = children_tuples [ "001"; "002"; "004"; "009" ] in
  let fs = Focus.focus_set ~universe ~scheme ~rel:"Children" ~tuples in
  (* every association involving a child: CPPhS ×3 + CPPh ×1 *)
  Alcotest.(check int) "four examples" 4 (List.length fs);
  Alcotest.(check bool) "focussed" true
    (Focus.is_focussed ~universe ~scheme ~rel:"Children" ~tuples fs)

let test_focus_on_maya_only () =
  let tuples = children_tuples [ "002" ] in
  let fs = Focus.focus_set ~universe ~scheme ~rel:"Children" ~tuples in
  Alcotest.(check int) "one example" 1 (List.length fs);
  Alcotest.(check string) "it is Maya" "Maya"
    (Value.to_string (List.hd fs).Example.target_tuple.(1))

(* E4.8: an illustration omitting 205's PPh association is not focussed on
   Parents 205. *)
let test_e48_not_focussed_on_205 () =
  let p205 =
    Relation.tuples (Database.get db "Parents")
    |> List.filter (fun t -> Value.equal t.(0) (Value.String "205"))
  in
  let without_205 =
    List.filter
      (fun e ->
        not
          (Tuple.equal
             (Example.project_alias scheme e "Parents")
             (List.hd p205)
          && Coverage.mem "Parents" (Example.coverage e)))
      universe
  in
  Alcotest.(check bool) "not focussed" false
    (Focus.is_focussed ~universe ~scheme ~rel:"Parents" ~tuples:p205 without_205);
  (* But the full universe is focussed on anything. *)
  Alcotest.(check bool) "universe focussed" true
    (Focus.is_focussed ~universe ~scheme ~rel:"Parents" ~tuples:p205 universe)

let test_focus_unknown_relation_rejected () =
  Alcotest.check_raises "unknown" (Invalid_argument "Focus: unknown relation Zed")
    (fun () ->
      ignore (Focus.focus_set ~universe ~scheme ~rel:"Zed" ~tuples:[]))

let test_tuples_matching () =
  let pred =
    Predicate.Cmp (Predicate.Lt, Expr.col "Children" "age", Expr.Const (Value.Int 6))
  in
  let ts =
    Focus.tuples_matching db ~graph:m.Mapping.graph ~rel:"Children" pred
  in
  Alcotest.(check int) "only Maya is under 6" 1 (List.length ts)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "illustration"
    [
      ( "examples",
        [
          tc "universe size" `Quick test_universe_size;
          tc "positives" `Quick test_positive_examples;
          tc "Bob negative" `Quick test_negative_example_bob;
          tc "unfiltered transform" `Quick
            test_example_target_tuple_computed_without_filters;
        ] );
      ( "sufficiency",
        [
          tc "selection sufficient" `Quick test_sufficient_illustration_is_sufficient;
          tc "selection small" `Quick test_selection_smaller_than_universe;
          tc "E4.3 drop CPPhS ok" `Quick test_e43_drop_one_cpphs_keeps_sufficiency;
          tc "E4.3 drop PPh breaks" `Quick test_e43_dropping_pph_breaks_sufficiency;
          tc "missing reports PPh" `Quick test_missing_reports_pph;
          tc "both polarities" `Quick test_filters_need_both_polarities;
          tc "null slot" `Quick test_correspondence_null_slot;
          tc "requirements satisfiable" `Quick test_requirements_satisfiable;
          tc "seeded selection" `Quick test_seeded_selection_keeps_seed;
          tc "exact selection" `Quick test_select_exact;
          QCheck_alcotest.to_alcotest ~long:false prop_select_matches_oracle;
        ] );
      ( "rendering",
        [
          tc "by category" `Quick test_by_category_partition;
          tc "tags" `Quick test_render_shows_tags;
          tc "column restriction" `Quick test_render_column_restriction;
          tc "source tables" `Quick test_render_source_tables;
          tc "target side" `Quick test_render_target;
        ] );
      ( "focus",
        [
          tc "all children" `Quick test_focus_on_all_children;
          tc "Maya only" `Quick test_focus_on_maya_only;
          tc "E4.8 not focussed on 205" `Quick test_e48_not_focussed_on_205;
          tc "unknown relation" `Quick test_focus_unknown_relation_rejected;
          tc "tuples matching" `Quick test_tuples_matching;
        ] );
    ]
