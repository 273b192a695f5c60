open Relational

type change = {
  mapping : Mapping.t;
  became_negative : Example.t list;
  became_positive : Example.t list;
}

(* Examples pair up across the two mappings by association (the graph is
   unchanged, so D(G) is identical). *)
let diff ctx old_m new_m =
  let old_exs = Mapping_eval.examples ctx old_m in
  let new_exs = Mapping_eval.examples ctx new_m in
  let old_polarity (e : Example.t) =
    List.find_opt
      (fun (o : Example.t) ->
        Tuple.equal o.tuple e.tuple && Fulldisj.Coverage.equal o.coverage e.coverage)
      old_exs
    |> Option.map Example.is_positive
  in
  let became_negative =
    List.filter
      (fun e -> Example.is_negative e && old_polarity e = Some true)
      new_exs
  in
  let became_positive =
    List.filter
      (fun e -> Example.is_positive e && old_polarity e = Some false)
      new_exs
  in
  { mapping = new_m; became_negative; became_positive }

let add_source_filter ctx m p = diff ctx m (Mapping.add_source_filter m p)
let add_target_filter ctx m p = diff ctx m (Mapping.add_target_filter m p)
let remove_source_filter ctx m p = diff ctx m (Mapping.remove_source_filter m p)
let remove_target_filter ctx m p = diff ctx m (Mapping.remove_target_filter m p)

let require_target_column ctx m col =
  add_target_filter ctx m (Predicate.Is_not_null (Expr.col m.Mapping.target col))

