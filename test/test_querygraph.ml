(* Unit tests for query graphs: structure, connectivity, induced subgraph
   enumeration (the categories of D(G)), path enumeration, DOT export. *)

open Relational
module Qgraph = Querygraph.Qgraph
module Subgraphs = Querygraph.Subgraphs
module Dot = Querygraph.Dot

let eq r1 c1 r2 c2 = Predicate.eq_cols (Attr.make r1 c1) (Attr.make r2 c2)

let path3 =
  Qgraph.make
    [ ("A", "A"); ("B", "B"); ("C", "C") ]
    [ ("A", "B", eq "A" "x" "B" "x"); ("B", "C", eq "B" "y" "C" "y") ]

let triangle =
  Qgraph.make
    [ ("A", "A"); ("B", "B"); ("C", "C") ]
    [
      ("A", "B", eq "A" "x" "B" "x");
      ("B", "C", eq "B" "y" "C" "y");
      ("A", "C", eq "A" "z" "C" "z");
    ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- structure --- *)

let test_nodes_edges () =
  Alcotest.(check int) "nodes" 3 (Qgraph.node_count path3);
  Alcotest.(check int) "edges" 2 (Qgraph.edge_count path3);
  Alcotest.(check (list string)) "aliases" [ "A"; "B"; "C" ] (Qgraph.aliases path3)

let test_duplicate_alias_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Qgraph.add_node: duplicate alias A")
    (fun () -> ignore (Qgraph.add_node path3 ~alias:"A" ~base:"A"))

let test_edge_is_undirected () =
  match (Qgraph.find_edge path3 "A" "B", Qgraph.find_edge path3 "B" "A") with
  | Some e1, Some e2 ->
      Alcotest.(check bool) "same predicate" true (Predicate.equal e1.pred e2.pred)
  | _ -> Alcotest.fail "edge lookup failed"

let test_self_loop_rejected () =
  Alcotest.check_raises "self" (Invalid_argument "Qgraph.add_edge: self-loop")
    (fun () -> ignore (Qgraph.add_edge path3 "A" "A" Predicate.True))

let test_neighbours () =
  Alcotest.(check (list string)) "B's neighbours" [ "A"; "C" ]
    (Qgraph.neighbours path3 "B");
  Alcotest.(check (list string)) "A's neighbours" [ "B" ] (Qgraph.neighbours path3 "A")

let test_connectivity () =
  Alcotest.(check bool) "path connected" true (Qgraph.is_connected path3);
  let disconnected = Qgraph.make [ ("A", "A"); ("B", "B") ] [] in
  Alcotest.(check bool) "two isolated nodes" false (Qgraph.is_connected disconnected);
  Alcotest.(check bool) "empty connected" true (Qgraph.is_connected Qgraph.empty)

let test_induced () =
  let sub = Qgraph.induced path3 [ "A"; "C" ] in
  Alcotest.(check int) "nodes" 2 (Qgraph.node_count sub);
  Alcotest.(check int) "no edges" 0 (Qgraph.edge_count sub);
  let sub2 = Qgraph.induced path3 [ "A"; "B" ] in
  Alcotest.(check int) "one edge" 1 (Qgraph.edge_count sub2)

let test_union () =
  let ext =
    Qgraph.make [ ("B", "B"); ("D", "D") ] [ ("B", "D", eq "B" "z" "D" "z") ]
  in
  let u = Qgraph.union path3 ext in
  Alcotest.(check int) "nodes" 4 (Qgraph.node_count u);
  Alcotest.(check int) "edges" 3 (Qgraph.edge_count u)

let test_union_relabel_rejected () =
  let ext = Qgraph.make [ ("A", "A"); ("B", "B") ] [ ("A", "B", eq "A" "q" "B" "q") ] in
  Alcotest.check_raises "relabel"
    (Invalid_argument "Qgraph.union: edge (A,B) relabeled") (fun () ->
      ignore (Qgraph.union path3 ext))

let test_fresh_alias () =
  Alcotest.(check string) "A taken" "A2" (Qgraph.fresh_alias path3 "A");
  Alcotest.(check string) "Z free" "Z" (Qgraph.fresh_alias path3 "Z");
  let with_a2 = Qgraph.add_node path3 ~alias:"A2" ~base:"A" in
  Alcotest.(check string) "A and A2 taken" "A3" (Qgraph.fresh_alias with_a2 "A")

let test_scheme_and_node_relation () =
  let r name = Relation.create name (Schema.make name [ "x"; "y"; "z" ]) [] in
  let lookup n = Some (r n) in
  let g =
    Qgraph.make [ ("P", "Parents"); ("P2", "Parents") ] [ ("P", "P2", eq "P" "x" "P2" "x") ]
  in
  let scheme = Qgraph.scheme ~lookup:(fun n -> lookup n) g in
  Alcotest.(check int) "combined arity" 6 (Schema.arity scheme);
  Alcotest.(check bool) "copy attrs renamed" true (Schema.mem scheme (Attr.make "P2" "y"));
  let nr = Qgraph.node_relation ~lookup:(fun n -> lookup n) g "P2" in
  Alcotest.(check bool) "relation renamed" true
    (Schema.mem (Relation.schema nr) (Attr.make "P2" "x"))

(* --- induced connected subgraph enumeration --- *)

let test_subgraphs_path () =
  (* A path of n nodes has n(n+1)/2 contiguous segments. *)
  Alcotest.(check int) "path3" 6 (Subgraphs.count path3)

let test_subgraphs_triangle () =
  (* All 7 non-empty subsets of a triangle are connected. *)
  Alcotest.(check int) "triangle" 7 (Subgraphs.count triangle)

let test_subgraphs_star () =
  (* Star with hub H and 3 leaves: any subset containing H (8) plus the 3
     singleton leaves. *)
  let star =
    Qgraph.make
      [ ("H", "H"); ("L1", "L1"); ("L2", "L2"); ("L3", "L3") ]
      [
        ("H", "L1", eq "H" "a" "L1" "a");
        ("H", "L2", eq "H" "b" "L2" "b");
        ("H", "L3", eq "H" "c" "L3" "c");
      ]
  in
  Alcotest.(check int) "star" 11 (Subgraphs.count star)

let test_subgraphs_no_duplicates () =
  let sets = Subgraphs.connected_node_sets triangle in
  let sorted = List.sort compare sets in
  Alcotest.(check int) "unique" (List.length sorted)
    (List.length (List.sort_uniq compare sorted))

let test_subgraphs_all_connected () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (String.concat "," s)
        true
        (Subgraphs.is_induced_connected triangle s))
    (Subgraphs.connected_node_sets triangle)

let test_subgraphs_singletons_included () =
  let sets = Subgraphs.connected_node_sets path3 in
  List.iter
    (fun a ->
      Alcotest.(check bool) a true (List.mem [ a ] sets))
    [ "A"; "B"; "C" ]

(* brute-force oracle on a 5-node random-ish graph *)
let test_subgraphs_matches_bruteforce () =
  let g =
    Qgraph.make
      [ ("A", "A"); ("B", "B"); ("C", "C"); ("D", "D"); ("E", "E") ]
      [
        ("A", "B", eq "A" "x" "B" "x");
        ("B", "C", eq "B" "y" "C" "y");
        ("C", "D", eq "C" "z" "D" "z");
        ("B", "D", eq "B" "w" "D" "w");
        ("D", "E", eq "D" "v" "E" "v");
      ]
  in
  let all = Qgraph.aliases g in
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun t -> x :: t) s
  in
  let brute =
    subsets all
    |> List.filter (fun s -> s <> [] && Qgraph.is_connected (Qgraph.induced g s))
    |> List.map (List.sort String.compare)
    |> List.sort compare
  in
  let fast = Subgraphs.connected_node_sets g |> List.sort compare in
  Alcotest.(check int) "same count" (List.length brute) (List.length fast);
  Alcotest.(check bool) "same sets" true (brute = fast)

(* --- paths: the data walk's path enumeration --- *)

(* A tiny KB: A-B under two join labels, B-C, A-C. *)
let kb =
  List.fold_left
    (fun kb (r1, r2, col) ->
      Schemakb.Kb.add kb
        { Schemakb.Kb.r1; r2; atoms = [ (col, col) ]; origin = Schemakb.Kb.Asserted })
    Schemakb.Kb.empty
    [ ("A", "B", "ab1"); ("A", "B", "ab2"); ("B", "C", "bc"); ("A", "C", "ac") ]

let walks ~max_len =
  Clio.Op_walk.walks ~kb ~graph:(Qgraph.singleton ~alias:"A" ~base:"A") ~start:"A"
    ~goal:"C" ~max_len ()

let test_simple_paths () =
  (* A-C, A-B(ab1)-C, A-B(ab2)-C *)
  Alcotest.(check int) "three paths" 3 (List.length (walks ~max_len:2))

let test_simple_paths_max_len () =
  Alcotest.(check int) "direct only" 1 (List.length (walks ~max_len:1))

(* A path graph repeats no node: one edge fewer than nodes, so no step
   returns to a node already on it. *)
let test_paths_are_simple () =
  List.iter
    (fun p ->
      Alcotest.(check int) "no repeats" (Qgraph.node_count p - 1) (Qgraph.edge_count p))
    (walks ~max_len:3)

(* --- join plan --- *)

let test_join_plan_path () =
  let plan = Qgraph.join_plan path3 in
  Alcotest.(check (list string)) "order" [ "A"; "B"; "C" ] (List.map fst plan);
  Alcotest.(check bool) "edge predicates" true
    (List.map snd plan = [ []; [ eq "A" "x" "B" "x" ]; [ eq "B" "y" "C" "y" ] ]);
  Alcotest.(check (list string)) "rooted at C" [ "C"; "B"; "A" ]
    (List.map fst (Qgraph.join_plan ~root:"C" path3));
  (* C closes the triangle: both its edges, the most recent (B) first. *)
  Alcotest.(check bool) "cycle edge becomes a second predicate" true
    (List.assoc "C" (Qgraph.join_plan triangle)
    = [ eq "B" "y" "C" "y"; eq "A" "z" "C" "z" ]);
  Alcotest.(check bool) "empty graph" true (Qgraph.join_plan Qgraph.empty = []);
  Alcotest.check_raises "unknown root"
    (Invalid_argument "Qgraph.join_plan: unknown root Z") (fun () ->
      ignore (Qgraph.join_plan ~root:"Z" path3))

(* Breadth-first with the visited check at dequeue, neighbours in alias
   order: the order every stored result, digest and SQL golden was
   produced in, which [join_plan] must keep. *)
let bfs_oracle g root =
  let rec bfs visited queue acc =
    match queue with
    | [] -> List.rev acc
    | a :: rest ->
        if List.mem a visited then bfs visited rest acc
        else
          let next =
            Qgraph.neighbours g a |> List.filter (fun n -> not (List.mem n visited))
          in
          bfs (a :: visited) (rest @ next) (a :: acc)
  in
  bfs [] [ root ] []

(* Chains, stars and random trees from [Synth.Gen_graph], and random
   connected graphs with cycles: a random tree over N1..Nn plus extra
   edges between random pairs. *)
let plan_graph_gen =
  QCheck2.Gen.(
    let* seed = int_range 0 100_000 in
    let* shape = int_range 0 3 in
    let* size = int_range 1 7 in
    let st = Random.State.make [| seed |] in
    let g =
      match shape with
      | 0 -> (Synth.Gen_graph.chain st ~n:size ~rows:1 ()).Synth.Gen_graph.graph
      | 1 -> (Synth.Gen_graph.star st ~leaves:size ~rows:1 ()).Synth.Gen_graph.graph
      | 2 -> (Synth.Gen_graph.random_tree st ~n:size ~rows:1 ()).Synth.Gen_graph.graph
      | _ ->
          let name i = Printf.sprintf "N%d" i in
          let edge i j = (name i, name j, eq (name i) "k" (name j) "k") in
          let tree = List.init (size - 1) (fun i -> edge (i + 1) (Random.State.int st (i + 1))) in
          let extra =
            List.init size (fun _ -> (Random.State.int st size, Random.State.int st size))
            |> List.filter (fun (i, j) -> i <> j)
            |> List.map (fun (i, j) -> edge i j)
          in
          Qgraph.make (List.init size (fun i -> (name i, "B"))) (tree @ extra)
    in
    let aliases = Qgraph.aliases g in
    let* root = oneofl (None :: List.map Option.some aliases) in
    return (g, root))

let prop_join_plan =
  QCheck2.Test.make ~name:"join plan: each alias once, root first, every edge once"
    ~count:300
    ~print:(fun (g, root) ->
      Printf.sprintf "%s rooted at %s" (Qgraph.to_string g)
        (Option.value root ~default:"(default)"))
    plan_graph_gen
    (fun (g, root) ->
      let plan = Qgraph.join_plan ?root g in
      let root = Option.value root ~default:(List.hd (Qgraph.aliases g)) in
      let is_tree = Qgraph.edge_count g = Qgraph.node_count g - 1 in
      let rec steps placed = function
        | [] -> true
        | (alias, preds) :: rest ->
            let edges_back =
              List.filter_map
                (fun p -> Option.map (fun e -> e.Qgraph.pred) (Qgraph.find_edge g alias p))
                placed
            in
            preds = edges_back
            && List.length preds >= 1
            && ((not is_tree) || List.length preds = 1)
            && steps (alias :: placed) rest
      in
      List.sort String.compare (List.map fst plan) = Qgraph.aliases g
      && List.map fst plan = bfs_oracle g root
      && (match plan with
         | (first, []) :: rest -> String.equal first root && steps [ first ] rest
         | _ -> false)
      && List.length (List.concat_map snd plan) = Qgraph.edge_count g)

(* --- dot --- *)

let test_dot_output () =
  let dot = Dot.to_dot ~highlight:[ "A" ] path3 in
  Alcotest.(check bool) "graph kw" true (contains dot "graph query_graph");
  Alcotest.(check bool) "edge" true (contains dot "\"A\" -- \"B\"");
  Alcotest.(check bool) "highlight" true (contains dot "filled")

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "querygraph"
    [
      ( "structure",
        [
          tc "nodes/edges" `Quick test_nodes_edges;
          tc "duplicate alias" `Quick test_duplicate_alias_rejected;
          tc "undirected" `Quick test_edge_is_undirected;
          tc "self loop" `Quick test_self_loop_rejected;
          tc "neighbours" `Quick test_neighbours;
          tc "connectivity" `Quick test_connectivity;
          tc "induced" `Quick test_induced;
          tc "union" `Quick test_union;
          tc "union relabel" `Quick test_union_relabel_rejected;
          tc "fresh alias" `Quick test_fresh_alias;
          tc "scheme/copies" `Quick test_scheme_and_node_relation;
        ] );
      ( "subgraphs",
        [
          tc "path" `Quick test_subgraphs_path;
          tc "triangle" `Quick test_subgraphs_triangle;
          tc "star" `Quick test_subgraphs_star;
          tc "no duplicates" `Quick test_subgraphs_no_duplicates;
          tc "all connected" `Quick test_subgraphs_all_connected;
          tc "singletons" `Quick test_subgraphs_singletons_included;
          tc "brute force oracle" `Quick test_subgraphs_matches_bruteforce;
        ] );
      ( "paths",
        [
          tc "simple paths" `Quick test_simple_paths;
          tc "max len" `Quick test_simple_paths_max_len;
          tc "simple" `Quick test_paths_are_simple;
        ] );
      ( "join plan",
        [
          tc "path, root, cycle" `Quick test_join_plan_path;
          QCheck_alcotest.to_alcotest ~long:false prop_join_plan;
        ] );
      ("dot", [ tc "output" `Quick test_dot_output ]);
    ]
