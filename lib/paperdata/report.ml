open Relational
open Fulldisj
open Clio
module Qgraph = Querygraph.Qgraph

let db = Figure1.database
let kb = Figure1.kb

(* One caching context shared by all figures: the report re-evaluates the
   same running-example graphs many times, exactly the reuse the engine's
   memo cache targets. *)
let ctx = Eval_ctx.create ~kb db
let short = Figure1.short
let lookup = Database.find db
let buf_add = Buffer.add_string

let render_graph g = Qgraph.to_string g

let render_illustration (m : Mapping.t) exs =
  let fd = Mapping_eval.data_associations ctx m in
  Illustration.render ~short ~scheme:fd.Full_disjunction.scheme exs

let fig1 () =
  Database.relations db
  |> List.map (fun r -> Render.relation r)
  |> String.concat "\n\n"

let fig2 () =
  let m = Running.mapping in
  let b = Buffer.create 1024 in
  buf_add b "Value correspondences (v1..v5):\n";
  List.iteri
    (fun i c -> buf_add b (Printf.sprintf "  v%d: %s\n" (i + 1) (Correspondence.to_sql c)))
    m.Mapping.correspondences;
  buf_add b "\nSource sample (Children):\n";
  buf_add b (Render.relation (Database.get db "Children"));
  buf_add b "\n\nResult of the current mapping (Kids):\n";
  buf_add b (Render.relation (Mapping_eval.target_view ctx m));
  Buffer.contents b

let maya_tuples () =
  Relation.tuples (Database.get db "Children")
  |> List.filter (fun t -> Value.equal t.(0) (Value.String "002"))

let fig3 () =
  let start =
    Mapping.make
      ~graph:(Qgraph.singleton ~alias:"Children" ~base:"Children")
      ~target:Running.target ~target_cols:Running.kids_cols
      ~correspondences:
        [
          Correspondence.identity "ID" (Attr.make "Children" "ID");
          Correspondence.identity "name" (Attr.make "Children" "name");
        ]
      ()
  in
  let corr = Correspondence.identity "affiliation" (Attr.make "Parents" "affiliation") in
  match Op_correspondence.add ~kb ~max_len:1 start corr with
  | Op_correspondence.Alternatives alts ->
      let b = Buffer.create 1024 in
      List.iteri
        (fun i (a : Op_correspondence.alternative) ->
          let m = a.Op_correspondence.mapping in
          let fd = Mapping_eval.data_associations ctx m in
          let universe = Mapping_eval.examples ctx m in
          let maya =
            Focus.focus_set ~universe ~scheme:fd.Full_disjunction.scheme
              ~rel:"Children" ~tuples:(maya_tuples ())
          in
          buf_add b
            (Printf.sprintf "Scenario %d: %s\n%s\n\n%s\n\n" (i + 1)
               a.Op_correspondence.description
               (Illustration.render_source_tables ~lookup ~graph:m.Mapping.graph
                  ~scheme:fd.Full_disjunction.scheme maya)
               (render_illustration m maya)))
        alts;
      Buffer.contents b
  | _ -> "unexpected: affiliation correspondence did not yield alternatives"

let fig4 () =
  let alts =
    Op_walk.walk_alternatives ~kb Running.mapping_g1 ~start:"Children" ~goal:"PhoneDir"
      ~max_len:2 ()
  in
  let b = Buffer.create 2048 in
  List.iteri
    (fun i (a : Op_walk.alternative) ->
      let m = Mapping.set_correspondence a.Op_walk.mapping
          (Correspondence.identity "contactPh" (Attr.make a.Op_walk.new_alias "number"))
      in
      let fd = Mapping_eval.data_associations ctx m in
      let universe = Mapping_eval.examples ctx m in
      let maya =
        Focus.focus_set ~universe ~scheme:fd.Full_disjunction.scheme ~rel:"Children"
          ~tuples:(maya_tuples ())
      in
      buf_add b
        (Printf.sprintf "Scenario %d: walk %s\n%s\n\n%s\n\n" (i + 1)
           a.Op_walk.description
           (Illustration.render_source_tables ~lookup ~graph:m.Mapping.graph
              ~scheme:fd.Full_disjunction.scheme maya)
           (render_illustration m maya)))
    alts;
  Buffer.contents b

let fig5 () =
  let occs = Op_chase.occurrences_anywhere ctx (Value.String "002") in
  let b = Buffer.create 1024 in
  buf_add b "Occurrences of value 002 in the source database:\n";
  List.iter
    (fun (o : Op_chase.occurrence) ->
      buf_add b
        (Printf.sprintf "  %s.%s (%d tuple%s)\n" o.Op_chase.rel o.Op_chase.column
           o.Op_chase.count
           (if o.Op_chase.count = 1 then "" else "s")))
    occs;
  let alts =
    Op_chase.chase ctx Running.mapping_g1 ~attr:(Attr.make "Children" "ID")
      ~value:(Value.String "002")
  in
  buf_add b "\nChase scenarios (extensions of the current mapping):\n";
  List.iteri
    (fun i (a : Op_chase.alternative) ->
      buf_add b (Printf.sprintf "  Scenario %d: %s\n" (i + 1) a.Op_chase.description))
    alts;
  Buffer.contents b

let fig6 () =
  String.concat "\n"
    [
      "G : " ^ render_graph Running.graph_g;
      "G1: " ^ render_graph Running.graph_g1;
      "G2: " ^ render_graph Running.graph_g2;
      "";
      "DOT (G):";
      Querygraph.Dot.to_dot Running.graph_g;
    ]

let fig7 () =
  let f_g1 = Join_eval.full_associations (Source.of_fn lookup) Running.graph_g1 in
  let f_g2 = Join_eval.full_associations (Source.of_fn lookup) Running.graph_g2 in
  let s2 = Relation.schema f_g2 in
  let padded = Algebra.pad f_g1 s2 in
  let find rel =
    Relation.tuples rel
    |> List.find (fun t ->
           Value.equal (Tuple.value (Relation.schema rel) t (Attr.make "Children" "name"))
             (Value.String "Maya"))
  in
  let t = find f_g1 and u = find padded and v = find f_g2 in
  let row name tuple = (name, tuple) in
  String.concat "\n"
    [
      "t = full data association of G1 (Maya with her mother):";
      Render.annotated ~annot_header:"tuple" [ row "t" t ] (Relation.schema f_g1);
      "";
      "u = t padded with nulls to the scheme of G2 (possible association):";
      Render.annotated ~annot_header:"tuple" [ row "u" u ] s2;
      "";
      "v = full data association of G2 (strictly subsumes u):";
      Render.annotated ~annot_header:"tuple" [ row "v" v ] s2;
    ]

let render_fd fd =
  let rows =
    Array.to_list
      (Array.mapi
         (fun i t -> (Coverage.label ~short fd.Full_disjunction.coverage.(i), t))
         (Relation.tuples_array fd.Full_disjunction.rows))
  in
  let rows = List.sort (fun (a, t1) (b, t2) ->
      match compare (String.length b) (String.length a) with
      | 0 -> (match compare a b with 0 -> Tuple.compare t1 t2 | c -> c)
      | c -> c)
      rows
  in
  Render.annotated ~annot_header:"coverage" rows fd.Full_disjunction.scheme

let fig8 () =
  let fd = Full_disjunction.compute (Source.of_fn lookup) Running.graph_g in
  "D(G) — the data associations of query graph G, tagged with coverage:\n"
  ^ render_fd fd

let fig9 () =
  let m = Running.mapping in
  let universe = Mapping_eval.examples ctx m in
  let sufficient =
    Sufficiency.select ~universe ~target_cols:m.Mapping.target_cols ()
  in
  let fd = Mapping_eval.data_associations ctx m in
  let focus =
    Focus.focus_set ~universe ~scheme:fd.Full_disjunction.scheme ~rel:"Children"
      ~tuples:(Relation.tuples (Database.get db "Children"))
  in
  let merged =
    List.fold_left
      (fun acc e -> if Illustration.mem e acc then acc else acc @ [ e ])
      sufficient focus
  in
  String.concat "\n"
    [
      "Sufficient illustration of the running mapping (Example 3.15),";
      "focused on the Children tuples 001, 002, 004, 009:";
      render_illustration m merged;
      "";
      "Induced target tuples:";
      Illustration.render_target ~short ~target_schema:(Mapping.target_schema m) merged;
    ]

let fig11 () =
  let alts =
    Op_walk.walk_alternatives ~kb Running.mapping_g1 ~start:"Children" ~goal:"PhoneDir"
      ~max_len:2 ()
  in
  let b = Buffer.create 1024 in
  buf_add b ("G1: " ^ render_graph Running.mapping_g1.Mapping.graph ^ "\n\n");
  buf_add b "walks(G1, Children, PhoneDir) produces:\n";
  List.iteri
    (fun i (a : Op_walk.alternative) ->
      buf_add b
        (Printf.sprintf "G%d: %s\n     path: %s\n" (i + 2)
           (render_graph a.Op_walk.mapping.Mapping.graph)
           a.Op_walk.description))
    alts;
  Buffer.contents b

let fig12 () =
  let alts =
    Op_chase.chase ctx Running.mapping_g1 ~attr:(Attr.make "Children" "ID")
      ~value:(Value.String "002")
  in
  let b = Buffer.create 1024 in
  buf_add b ("G1: " ^ render_graph Running.mapping_g1.Mapping.graph ^ "\n\n");
  buf_add b "chase(002 of Children.ID) produces:\n";
  List.iter
    (fun (a : Op_chase.alternative) ->
      buf_add b ("  " ^ render_graph a.Op_chase.mapping.Mapping.graph ^ "\n"))
    alts;
  Buffer.contents b

let sql () =
  let m = Running.section2_mapping in
  String.concat "\n"
    [
      "Canonical mapping query (Definition 3.14):";
      Mapping_sql.canonical m;
      "";
      "Left-outer-join form rooted at Children (the Section 2 SQL):";
      Mapping_sql.outer_join ~root:"Children" m;
      "";
      Printf.sprintf "Rooted form equivalent to Q_M on this database: %b"
        (Mapping_sql.rooted_equivalent ctx ~root:"Children" m);
      "";
      "WYSIWYG target view:";
      Render.relation (Mapping_eval.target_view ctx m);
    ]

let example_6_1 () =
  let eq r1 c1 r2 c2 = Predicate.eq_cols (Attr.make r1 c1) (Attr.make r2 c2) in
  let phone_mapping ~via ~filter =
    let graph =
      Qgraph.make
        [ ("Children", "Children"); ("Parents", "Parents"); ("PhoneDir", "PhoneDir") ]
        [
          ("Children", "Parents", eq "Children" via "Parents" "ID");
          ("Parents", "PhoneDir", eq "Parents" "ID" "PhoneDir" "ID");
        ]
    in
    Mapping.make ~graph ~target:"Kids" ~target_cols:[ "ID"; "name"; "contactPh" ]
      ~correspondences:
        [
          Correspondence.identity "ID" (Attr.make "Children" "ID");
          Correspondence.identity "name" (Attr.make "Children" "name");
          Correspondence.identity "contactPh" (Attr.make "PhoneDir" "number");
        ]
      ~source_filters:[ filter ]
      ~target_filters:[ Predicate.Is_not_null (Expr.col "Kids" "ID") ]
      ()
  in
  let mothers =
    phone_mapping ~via:"mid" ~filter:(Predicate.Is_not_null (Expr.col "Children" "mid"))
  in
  let fathers =
    phone_mapping ~via:"fid" ~filter:(Predicate.Is_null (Expr.col "Children" "mid"))
  in
  String.concat "\n"
    [
      "Mapping A (mother's phone, filter: mid not null):";
      Render.relation (Mapping_eval.target_view ctx mothers);
      "";
      "Mapping B (father's phone, filter: mid is null — the motherless kids):";
      Render.relation (Mapping_eval.target_view ctx fathers);
      "";
      "Assembled target (union of both accepted mappings):";
      Render.relation (Target.assemble ctx [ mothers; fathers ]);
    ]

let example_6_2 () =
  let eq r1 c1 r2 c2 = Predicate.eq_cols (Attr.make r1 c1) (Attr.make r2 c2) in
  let bus =
    Mapping.make
      ~graph:
        (Qgraph.make
           [ ("Children", "Children"); ("SBPS", "SBPS") ]
           [ ("Children", "SBPS", eq "Children" "ID" "SBPS" "ID") ])
      ~target:"Kids" ~target_cols:[ "ID"; "name"; "ArrivalTime" ]
      ~correspondences:
        [
          Correspondence.identity "ID" (Attr.make "Children" "ID");
          Correspondence.identity "name" (Attr.make "Children" "name");
          Correspondence.identity "ArrivalTime" (Attr.make "SBPS" "time");
        ]
      ()
  in
  let via_class =
    Correspondence.of_expr "ArrivalTime"
      (Expr.Concat
         (Expr.col "ClassSched" "lastClassEnd", Expr.Const (Value.String "+walk")))
  in
  match Op_correspondence.add ~kb ~max_len:1 bus via_class with
  | Op_correspondence.New_mapping (Op_correspondence.Alternatives (alt :: _)) ->
      String.concat "\n"
        [
          "Existing mapping (ArrivalTime from the bus schedule):";
          Render.relation (Mapping_eval.target_view ctx bus);
          "";
          "Adding a second correspondence for ArrivalTime (from ClassSched)";
          "spawns a new mapping by reuse; Clio links ClassSched via "
          ^ alt.Op_correspondence.description ^ ":";
          Render.relation (Mapping_eval.target_view ctx alt.Op_correspondence.mapping);
          "";
          "Assembled ArrivalTime target:";
          Render.relation
            (Target.assemble ctx [ bus; alt.Op_correspondence.mapping ]);
        ]
  | _ -> "unexpected outcome for the ArrivalTime correspondence"

let all =
  [
    ("fig1", "Figure 1: source database", fig1);
    ("fig2", "Figure 2: correspondences, source sample, target result", fig2);
    ("fig3", "Figure 3: affiliation scenarios (mid vs fid)", fig3);
    ("fig4", "Figure 4: data-walk phone scenarios", fig4);
    ("fig5", "Figure 5: chase of value 002", fig5);
    ("fig6", "Figure 6: query graphs G, G1, G2", fig6);
    ("fig7", "Figure 7: tuples t, u, v", fig7);
    ("fig8", "Figure 8: D(G) with coverage", fig8);
    ("fig9", "Figure 9: sufficient illustration with focus", fig9);
    ("fig11", "Figures 10/11: data-walk extensions", fig11);
    ("fig12", "Figure 12: data-chase extensions", fig12);
    ("sql", "Section 2: generated SQL and WYSIWYG target", sql);
    ("e6.1", "Example 6.1: complementary mappings", example_6_1);
    ("e6.2", "Example 6.2: mapping reuse for ArrivalTime", example_6_2);
  ]
