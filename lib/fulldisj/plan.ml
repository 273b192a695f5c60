open Relational
module Qgraph = Querygraph.Qgraph
module Subgraphs = Querygraph.Subgraphs

type t = {
  nodes : int;
  edges : int;
  categories : int;
  join_order : string list;
  estimated_base_rows : (string * int) list;
}

let analyze ~lookup g =
  {
    nodes = Qgraph.node_count g;
    edges = Qgraph.edge_count g;
    categories = Subgraphs.count g;
    join_order = List.map fst (Qgraph.join_plan g);
    estimated_base_rows =
      List.map
        (fun n ->
          ( n.Qgraph.alias,
            match lookup n.Qgraph.base with
            | Some r -> Relation.cardinality r
            | None -> -1 ))
        (Qgraph.nodes g);
  }

let render p =
  String.concat "\n"
    ([
       "D(G) plan: per-category joins + columnar minimum union";
       Printf.sprintf "  graph: %d nodes, %d edges; %d coverage categories" p.nodes
         p.edges p.categories;
       Printf.sprintf "  join order: %s" (String.concat " -> " p.join_order);
       "  base cardinalities:";
     ]
    @ List.map
        (fun (alias, n) ->
          Printf.sprintf "    %-16s %s" alias
            (if n < 0 then "(unknown relation)" else string_of_int n))
        p.estimated_base_rows)
