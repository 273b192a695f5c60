open Relational
open Fulldisj

type t = Example.t list

let by_category exs =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun e ->
      let key = Coverage.to_list (Example.coverage e) in
      if not (Hashtbl.mem groups key) then order := (key, Example.coverage e) :: !order;
      Hashtbl.add groups key e)
    exs;
  List.rev !order
  |> List.map (fun (key, cov) -> (cov, List.rev (Hashtbl.find_all groups key)))

let positives = List.filter Example.is_positive
let negatives = List.filter Example.is_negative

let render ?short ?columns ~scheme exs =
  let positions =
    match columns with
    | None -> List.init (Schema.arity scheme) Fun.id
    | Some cols -> List.map (Schema.index scheme) cols
  in
  let shown_schema =
    Schema.of_attrs (List.map (fun i -> (Schema.attrs scheme).(i)) positions)
  in
  let rows =
    List.map
      (fun e ->
        (Example.tag ?short e, Tuple.project e.Example.tuple positions))
      exs
  in
  Render.annotated ~annot_header:"coverage" rows shown_schema

let render_target ?short ~target_schema exs =
  let rows =
    List.map (fun e -> (Example.tag ?short e, e.Example.target_tuple)) exs
  in
  Render.annotated ~qualified:false ~annot_header:"coverage" rows target_schema

let mem e = List.exists (Example.equal e)

let render_source_tables ~lookup ~graph ~scheme exs =
  Querygraph.Qgraph.nodes graph
  |> List.map (fun n ->
         let alias = n.Querygraph.Qgraph.alias in
         let rel = Querygraph.Qgraph.node_relation ~lookup graph alias in
         let involved =
           exs
           |> List.filter (fun e -> Coverage.mem alias (Example.coverage e))
           |> List.map (fun e -> Example.project_alias scheme e alias)
         in
         let rows =
           Relation.tuples rel
           |> List.map (fun t ->
                  ((if List.exists (Tuple.equal t) involved then "*" else ""), t))
         in
         alias ^ "\n" ^ Render.annotated ~qualified:false ~annot_header:"" rows
                          (Relation.schema rel))
  |> String.concat "\n\n"
