open Relational

let check_compatible = function
  | [] -> invalid_arg "Target.assemble: no mappings"
  | (m : Mapping.t) :: rest ->
      List.iter
        (fun (m' : Mapping.t) ->
          if
            (not (String.equal m'.Mapping.target m.Mapping.target))
            || m'.Mapping.target_cols <> m.Mapping.target_cols
          then invalid_arg "Target.assemble: mappings disagree on the target relation")
        rest;
      m

let assemble ctx mappings =
  let first = check_compatible mappings in
  let results = List.map (Mapping_eval.eval ctx) mappings in
  Relation.create ~allow_all_null:true first.Mapping.target
    (Mapping.target_schema first)
    (List.concat_map Relation.tuples results)

let assemble_min ctx mappings = Fulldisj.Min_union.sweep (assemble ctx mappings)
