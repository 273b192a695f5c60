open Relational
open Fulldisj
module Subgraphs = Querygraph.Subgraphs

type verdict = Always_negative of string list | Possibly_positive

let required_aliases (m : Mapping.t) =
  m.Mapping.target_filters
  |> List.concat_map (fun p ->
         match p with
         | Predicate.Is_not_null (Expr.Col a)
           when String.equal a.Attr.rel m.Mapping.target -> (
             match Mapping.correspondence_for m a.Attr.name with
             | Some c -> Correspondence.source_rels c
             | None -> [])
         | _ -> [])
  |> List.sort_uniq String.compare

let category_verdict (m : Mapping.t) cov =
  let missing =
    required_aliases m |> List.filter (fun a -> not (Coverage.mem a cov))
  in
  if missing = [] then Possibly_positive else Always_negative missing

let possibly_positive_categories (m : Mapping.t) =
  let required = required_aliases m in
  Subgraphs.connected_node_sets m.Mapping.graph
  |> List.filter (fun aliases -> List.for_all (fun r -> List.mem r aliases) required)

(* D(G) restricted to the possibly-positive categories.  This is exactly
   the restriction of D(G) (subsumers live in superset categories, and
   required aliases are inherited by supersets). *)
let eval_pruned ctx (m : Mapping.t) =
  let g = m.Mapping.graph in
  Mapping_eval.apply
    (Full_disjunction.of_rows g
       (Full_disjunction.compute_relation (Engine.Eval_ctx.source ctx) g
          ~categories:(possibly_positive_categories m)))
    m
