open Relational
open Fulldisj
module Qgraph = Querygraph.Qgraph

type provenance = {
  example : Example.t;
  contributions : (string * Tuple.t option) list;
}

type null_reason =
  | Not_mapped
  | Source_relation_absent of string list
  | Computed_null

let scheme ctx (m : Mapping.t) =
  (Mapping_eval.data_associations ctx m).Full_disjunction.scheme

let provenance_of_example sch (e : Example.t) =
  let aliases = Schema.rels sch in
  let contributions =
    List.map
      (fun alias ->
        if Coverage.mem alias (Example.coverage e) then
          (alias, Some (Example.project_alias sch e alias))
        else (alias, None))
      aliases
  in
  { example = e; contributions }

let of_target_tuple ctx (m : Mapping.t) target_tuple =
  Obs.with_span Obs.Names.sp_explain @@ fun () ->
  let sch = scheme ctx m in
  let derivations =
    Mapping_eval.examples ctx m
    |> List.filter (fun e ->
           Obs.count Obs.Names.explain_tuples_matched;
           e.Example.positive && Tuple.equal e.Example.target_tuple target_tuple)
    |> List.map (provenance_of_example sch)
  in
  if Obs.enabled () then begin
    Obs.Counter.bump_by Obs.Names.explain_derivations (List.length derivations);
    Obs.set_attr "derivations" (string_of_int (List.length derivations))
  end;
  derivations

let why_null ctx (m : Mapping.t) target_tuple col =
  Obs.with_span ~attrs:[ ("column", col) ] Obs.Names.sp_why_null @@ fun () ->
  let provs = of_target_tuple ctx m target_tuple in
  match Mapping.correspondence_for m col with
  | None -> List.map (fun p -> (p, Not_mapped)) provs
  | Some corr ->
      let needed = Correspondence.source_rels corr in
      List.map
        (fun p ->
          let absent =
            List.filter
              (fun alias -> not (Coverage.mem alias (Example.coverage p.example)))
              needed
          in
          if absent <> [] then (p, Source_relation_absent absent)
          else (p, Computed_null))
        provs

let render sch p =
  let lines =
    List.map
      (fun (alias, contribution) ->
        match contribution with
        | Some t -> Printf.sprintf "  %-12s %s" alias (Tuple.to_string t)
        | None -> Printf.sprintf "  %-12s (not involved)" alias)
      p.contributions
  in
  ignore sch;
  String.concat "\n"
    ((Printf.sprintf "target %s  [%s]"
        (Tuple.to_string p.example.Example.target_tuple)
        (Example.tag p.example))
    :: lines)
