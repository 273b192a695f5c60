(* Tests for the mapping-understanding tools: distinguishing examples
   between alternatives (Differentiate), query-graph interpretations
   (Interpretation), example manipulation operators (Op_example), and the
   algebraic facts the paper leans on (outer joins are not associative;
   minimum union is). *)

open Relational
open Clio
module Qgraph = Querygraph.Qgraph

let db = Paperdata.Figure1.database
let eq r1 c1 r2 c2 = Predicate.eq_cols (Attr.make r1 c1) (Attr.make r2 c2)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let phone_mapping ~via =
  Mapping.make
    ~graph:
      (Qgraph.make
         [ ("Children", "Children"); ("Parents", "Parents"); ("PhoneDir", "PhoneDir") ]
         [
           ("Children", "Parents", eq "Children" via "Parents" "ID");
           ("Parents", "PhoneDir", eq "Parents" "ID" "PhoneDir" "ID");
         ])
    ~target:"Kids"
    ~target_cols:[ "ID"; "name"; "contactPh" ]
    ~correspondences:
      [
        Clio.corr_identity "ID" "Children" "ID";
        Clio.corr_identity "name" "Children" "name";
        Clio.corr_identity "contactPh" "PhoneDir" "number";
      ]
    ~target_filters:[ Predicate.Is_not_null (Expr.col "Kids" "ID") ]
    ()

let mothers = phone_mapping ~via:"mid"
let fathers = phone_mapping ~via:"fid"

(* --- Differentiate --- *)

let test_target_diff_mother_vs_father () =
  let diffs = Differentiate.target_diff (Eval_ctx.transient db) mothers fathers in
  (* Every kid's phone differs between the linkings (plus Bob only exists
     under fathers). *)
  Alcotest.(check bool) "differences exist" true (diffs <> []);
  Alcotest.(check bool) "not equivalent" false (Differentiate.equivalent_on (Eval_ctx.transient db) mothers fathers)

let test_self_equivalent () =
  Alcotest.(check bool) "m ≡ m" true (Differentiate.equivalent_on (Eval_ctx.transient db) mothers mothers)

let test_distinguishing_by_child () =
  let contrasts = Differentiate.distinguishing (Eval_ctx.transient db) ~rel:"Children" mothers fathers in
  (* All four children distinguish the two mappings: Joe/Maya/Ann get a
     different phone; Bob appears only under fathers. *)
  Alcotest.(check int) "four contrasts" 4 (List.length contrasts);
  let maya =
    List.find
      (fun (c : Differentiate.contrast) ->
        Value.equal c.Differentiate.focus_tuple.(1) (Value.String "Maya"))
      contrasts
  in
  let phone side =
    match side with
    | [ t ] -> Value.to_string t.(2)
    | _ -> Alcotest.fail "expected one target"
  in
  Alcotest.(check string) "mother's phone" "555-0103"
    (phone maya.Differentiate.left_targets);
  Alcotest.(check string) "father's phone" "555-0104"
    (phone maya.Differentiate.right_targets)

let test_distinguishing_detects_equivalence () =
  Alcotest.(check int) "no contrasts against self" 0
    (List.length (Differentiate.distinguishing (Eval_ctx.transient db) ~rel:"Children" mothers mothers))

let test_distinguishing_render () =
  let contrasts = Differentiate.distinguishing (Eval_ctx.transient db) ~rel:"Children" mothers fathers in
  let s =
    Differentiate.render ~target_schema:(Mapping.target_schema mothers) contrasts
  in
  Alcotest.(check bool) "both phones shown" true
    (contains s "555-0103" && contains s "555-0104")

let test_target_diff_schema_mismatch () =
  let other =
    Mapping.make
      ~graph:(Qgraph.singleton ~alias:"Children" ~base:"Children")
      ~target:"Kids" ~target_cols:[ "ID" ] ()
  in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Differentiate.target_diff: target schemas differ") (fun () ->
      ignore (Differentiate.target_diff (Eval_ctx.transient db) mothers other))

(* --- Interpretation --- *)

let test_inner_vs_full_disjunction () =
  (* Under inner-join interpretation, only children whose mother has a
     phone survive; Bob (no mother) disappears even under fathers'
     mapping... here use mothers: Bob drops. *)
  let inner = Interpretation.eval (Eval_ctx.transient db) mothers Interpretation.Inner_join in
  let fd = Interpretation.eval (Eval_ctx.transient db) mothers Interpretation.Full_disjunction in
  Alcotest.(check int) "inner: 3 kids" 3 (Relation.cardinality inner);
  Alcotest.(check int) "fd keeps Bob? no — target filter drops rootless rows" 4
    (Relation.cardinality fd)

let test_rooted_equals_fd_with_root_filter () =
  (* With the ID-not-null filter, rooted-at-Children and full disjunction
     agree (the paper's 'no effect' case). *)
  Alcotest.(check bool) "no effect" true
    (Interpretation.no_effect (Eval_ctx.transient db) mothers (Interpretation.Rooted "Children")
       Interpretation.Full_disjunction)

let test_inner_vs_rooted_differs () =
  let c =
    Interpretation.compare_under (Eval_ctx.transient db) mothers Interpretation.Inner_join
      (Interpretation.Rooted "Children")
  in
  (* Bob: present when rooted (padded), absent under inner join. *)
  Alcotest.(check int) "only rooted has Bob" 1 (List.length c.Interpretation.only_b);
  Alcotest.(check int) "inner adds nothing" 0 (List.length c.Interpretation.only_a);
  let s =
    Interpretation.render_comparison ~target_schema:(Mapping.target_schema mothers) c
  in
  Alcotest.(check bool) "render mentions Bob" true (contains s "Bob")

let test_covering_interpretation () =
  (* Requiring PhoneDir coverage = promoting its join to inner: kids whose
     mother has no phone would drop.  Here every mother has one, so only
     the motherless Bob distinguishes Covering [Children] from
     Covering [Children; PhoneDir]. *)
  let base = Interpretation.eval (Eval_ctx.transient db) mothers (Interpretation.Covering [ "Children" ]) in
  let strict =
    Interpretation.eval (Eval_ctx.transient db) mothers
      (Interpretation.Covering [ "Children"; "PhoneDir" ])
  in
  Alcotest.(check int) "all kids" 4 (Relation.cardinality base);
  Alcotest.(check int) "Bob dropped" 3 (Relation.cardinality strict);
  (* Covering [root] coincides with Rooted root. *)
  Alcotest.(check bool) "covering = rooted" true
    (Relation.equal_contents base
       (Interpretation.eval (Eval_ctx.transient db) mothers (Interpretation.Rooted "Children")))

let test_no_effect_when_join_lossless () =
  (* Every child has a father: rooting at Children vs inner join over
     Children-Parents(fid) makes no difference — 'the same change may have
     no effect due to constraints that hold on the source schema'. *)
  let m =
    Mapping.make
      ~graph:
        (Qgraph.make
           [ ("Children", "Children"); ("Parents", "Parents") ]
           [ ("Children", "Parents", eq "Children" "fid" "Parents" "ID") ])
      ~target:"Kids" ~target_cols:[ "ID"; "affiliation" ]
      ~correspondences:
        [
          Clio.corr_identity "ID" "Children" "ID";
          Clio.corr_identity "affiliation" "Parents" "affiliation";
        ]
      ~target_filters:[ Predicate.Is_not_null (Expr.col "Kids" "ID") ]
      ()
  in
  Alcotest.(check bool) "no effect" true
    (Interpretation.no_effect (Eval_ctx.transient db) m Interpretation.Inner_join
       (Interpretation.Rooted "Children"))

(* --- Op_example --- *)

let m9 = Paperdata.Running.mapping
let universe9 = Mapping_eval.examples (Eval_ctx.transient db) m9
let cols9 = m9.Mapping.target_cols
let ill9 = Sufficiency.select ~universe:universe9 ~target_cols:cols9 ()

let cpphs_positive exs =
  List.find
    (fun e ->
      Example.is_positive e
      && Fulldisj.Coverage.label ~short:Paperdata.Figure1.short (Example.coverage e)
         = "CPPhS")
    exs

let test_alternatives_for () =
  let joe_or_maya = cpphs_positive ill9 in
  let alts = Op_example.alternatives_for ~universe:universe9 joe_or_maya in
  (* Joe and Maya are interchangeable positives at CPPhS. *)
  Alcotest.(check int) "one alternative" 1 (List.length alts);
  Alcotest.(check bool) "same coverage" true
    (Fulldisj.Coverage.equal
       (Example.coverage (List.hd alts))
       (Example.coverage joe_or_maya))

let test_swap_keeps_sufficiency () =
  let old_example = cpphs_positive ill9 in
  match Op_example.alternatives_for ~universe:universe9 old_example with
  | [ replacement ] ->
      let swapped =
        Op_example.swap ~universe:universe9 ~target_cols:cols9 ill9 ~old_example
          ~replacement
      in
      Alcotest.(check bool) "sufficient" true
        (Sufficiency.is_sufficient ~universe:universe9 ~target_cols:cols9 swapped);
      Alcotest.(check bool) "old gone" false (Illustration.mem old_example swapped);
      Alcotest.(check bool) "replacement in" true (Illustration.mem replacement swapped)
  | _ -> Alcotest.fail "expected exactly one alternative"

let test_remove_refuses_when_needed () =
  (* The PPh example is the only one of its category. *)
  let pph =
    List.find
      (fun e ->
        Fulldisj.Coverage.label ~short:Paperdata.Figure1.short (Example.coverage e)
        = "PPh")
      ill9
  in
  match Op_example.remove ~universe:universe9 ~target_cols:cols9 ill9 pph with
  | Op_example.Would_break_sufficiency missing ->
      Alcotest.(check bool) "reports requirements" true (missing <> [])
  | Op_example.Removed _ -> Alcotest.fail "should refuse"

let test_remove_allows_redundant () =
  (* Add a redundant example, then removing it is fine. *)
  let extra =
    List.find (fun e -> not (Illustration.mem e ill9)) universe9
  in
  let bigger = Op_example.add ill9 extra in
  Alcotest.(check int) "added" (List.length ill9 + 1) (List.length bigger);
  Alcotest.(check int) "idempotent" (List.length bigger)
    (List.length (Op_example.add bigger extra));
  match Op_example.remove ~universe:universe9 ~target_cols:cols9 bigger extra with
  | Op_example.Removed r -> Alcotest.(check int) "back" (List.length ill9) (List.length r)
  | Op_example.Would_break_sufficiency _ -> Alcotest.fail "extra example was redundant"

(* --- algebraic facts the paper cites --- *)

let mk name cols rows = Relation.create name (Schema.make name cols) rows
let v_int i = Value.Int i

let test_full_outer_join_not_associative () =
  (* With a NON-strong B–C predicate (satisfied when B.y is null), the two
     parenthesizations differ — the reason Definition 3.3 requires strong
     join predicates, and an instance of the paper's point that "data
     merging queries require the use of complex, non-associative
     operators". *)
  let a = mk "A" [ "x" ] [ Tuple.make [ v_int 1 ] ] in
  let b = mk "B" [ "y" ] [] in
  let c = mk "C" [ "z" ] [ Tuple.make [ v_int 7 ] ] in
  let p_ab = Predicate.eq_cols (Attr.make "A" "x") (Attr.make "B" "y") in
  let p_bc =
    Predicate.Or
      ( Predicate.Is_null (Expr.col "B" "y"),
        Predicate.eq_cols (Attr.make "B" "y") (Attr.make "C" "z") )
  in
  Alcotest.(check bool) "p_bc is not strong" false
    (Predicate.is_strong
       (Schema.of_attrs [ Attr.make "B" "y"; Attr.make "C" "z" ])
       p_bc);
  (* ((A ⟗ B) ⟗ C): the padded (1, null) row satisfies p_bc → one row
     (1, null, 7). *)
  let left = Algebra.full_outer_join p_bc (Algebra.full_outer_join p_ab a b) c in
  (* A ⟗ (B ⟗ C): B is empty, so B ⟗ C = {(null, 7)}, which cannot match
     A on x = y → two rows (1, null, null) and (null, null, 7). *)
  let right = Algebra.full_outer_join p_ab a (Algebra.full_outer_join p_bc b c) in
  Alcotest.(check int) "left has one row" 1 (Relation.cardinality left);
  Alcotest.(check int) "right has two rows" 2 (Relation.cardinality right)

let test_min_union_associative_property () =
  (* ⊕ in contrast IS associative on a shared schema: both orders equal the
     maximal elements of the union. *)
  let st = Random.State.make [| 123 |] in
  for _ = 1 to 20 do
    let gen () =
      Synth.Gen_db.sparse_tuples st ~rows:15 ~arity:3 ~null_prob:0.4 ~domain:3
      |> List.filter (fun t -> not (Tuple.all_null t))
    in
    let schema = Schema.make "R" [ "a"; "b"; "c" ] in
    let rel name ts = Relation.create ~allow_all_null:true name schema ts in
    let a = rel "A" (gen ()) and b = rel "B" (gen ()) and c = rel "C" (gen ()) in
    let l = Fulldisj.Min_union.min_union (Fulldisj.Min_union.min_union a b) c in
    let r = Fulldisj.Min_union.min_union a (Fulldisj.Min_union.min_union b c) in
    Alcotest.(check bool) "associative" true (Relation.equal_contents l r)
  done

(* --- differences against the list-filter oracle --- *)

(* Left rows absent from the right, in left order, by a linear
   [Relation.mem] per row: the form [target_diff] and [compare_under]
   had before they went through [Algebra.difference]. *)
let only_filter a b =
  Relation.tuples a |> List.filter (fun t -> not (Relation.mem b t))

let same_tuples a b =
  List.equal (fun x y -> String.equal (Tuple.to_string x) (Tuple.to_string y)) a b

(* Two mappings over a random chain that each keep rows the other drops
   (one requires the first alias, the other the last), and two rooted
   interpretations that differ the same way. *)
let prop_differences_match_filter =
  QCheck2.Test.make ~name:"differences = list-filter oracle on random chains"
    ~count:40
    QCheck2.Gen.(pair (int_range 0 10000) (int_range 1 25))
    (fun (seed, rows) ->
      let inst =
        Synth.Gen_graph.chain (Random.State.make [| seed |]) ~n:3 ~rows
          ~null_prob:0.3 ~orphan_prob:0.3 ()
      in
      let g = inst.Synth.Gen_graph.graph in
      let aliases = Qgraph.aliases g in
      let first = List.hd aliases and last = List.nth aliases 2 in
      let requiring alias =
        Mapping.make ~graph:g ~target:"T"
          ~target_cols:(List.map (fun a -> "c_" ^ a) aliases)
          ~correspondences:
            (List.map
               (fun a -> Correspondence.identity ("c_" ^ a) (Attr.make a "id"))
               aliases)
          ~target_filters:[ Predicate.Is_not_null (Expr.col "T" ("c_" ^ alias)) ]
          ()
      in
      let m1 = requiring first and m2 = requiring last in
      let ctx = Eval_ctx.transient inst.Synth.Gen_graph.db in
      let r1 = Mapping_eval.eval ctx m1 and r2 = Mapping_eval.eval ctx m2 in
      let diff = Differentiate.target_diff ctx m1 m2 in
      let on side =
        List.filter_map
          (fun d -> if d.Differentiate.side = side then Some d.Differentiate.tuple else None)
          diff
      in
      let a = Interpretation.Rooted first and b = Interpretation.Rooted last in
      let c = Interpretation.compare_under ctx m1 a b in
      let ra = Interpretation.eval ctx m1 a and rb = Interpretation.eval ctx m1 b in
      same_tuples
        (List.map (fun d -> d.Differentiate.tuple) diff)
        (only_filter r1 r2 @ only_filter r2 r1)
      && same_tuples (on Differentiate.Only_left) (only_filter r1 r2)
      && same_tuples c.Interpretation.only_a (only_filter ra rb)
      && same_tuples c.Interpretation.only_b (only_filter rb ra))

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "understanding"
    [
      ( "differentiate",
        [
          tc "mother vs father" `Quick test_target_diff_mother_vs_father;
          tc "self equivalent" `Quick test_self_equivalent;
          tc "by child" `Quick test_distinguishing_by_child;
          tc "detects equivalence" `Quick test_distinguishing_detects_equivalence;
          tc "render" `Quick test_distinguishing_render;
          tc "schema mismatch" `Quick test_target_diff_schema_mismatch;
        ] );
      ( "interpretation",
        [
          tc "inner vs full disjunction" `Quick test_inner_vs_full_disjunction;
          tc "rooted = fd with filter" `Quick test_rooted_equals_fd_with_root_filter;
          tc "inner vs rooted" `Quick test_inner_vs_rooted_differs;
          tc "covering" `Quick test_covering_interpretation;
          tc "no effect (lossless)" `Quick test_no_effect_when_join_lossless;
        ] );
      ( "op_example",
        [
          tc "alternatives" `Quick test_alternatives_for;
          tc "swap" `Quick test_swap_keeps_sufficiency;
          tc "remove refused" `Quick test_remove_refuses_when_needed;
          tc "remove redundant" `Quick test_remove_allows_redundant;
        ] );
      ( "algebraic-facts",
        [
          tc "FOJ not associative" `Quick test_full_outer_join_not_associative;
          tc "min union associative" `Quick test_min_union_associative_property;
        ] );
      ( "differences",
        [ QCheck_alcotest.to_alcotest ~long:false prop_differences_match_filter ] );
    ]
