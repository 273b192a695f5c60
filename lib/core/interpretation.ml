open Relational
open Fulldisj

type t = Inner_join | Rooted of string | Covering of string list | Full_disjunction

let pp ppf = function
  | Inner_join -> Format.pp_print_string ppf "inner join"
  | Rooted r -> Format.fprintf ppf "left joins rooted at %s" r
  | Covering rs ->
      Format.fprintf ppf "associations covering {%s}" (String.concat ", " rs)
  | Full_disjunction -> Format.pp_print_string ppf "full disjunction"

let eval ctx (m : Mapping.t) interp =
  let covering required =
    Full_disjunction.restrict
      (fun c -> List.for_all (fun r -> Coverage.mem r c) required)
      (Mapping_eval.data_associations ctx m)
  in
  let fd =
    match interp with
    | Full_disjunction -> Mapping_eval.data_associations ctx m
    | Inner_join ->
        (* F(G) through the context so the memoized join is shared. *)
        let g = m.Mapping.graph in
        Full_disjunction.of_rows g (Engine.Eval_ctx.full_associations ctx g)
    | Rooted root -> covering [ root ]
    | Covering required -> covering required
  in
  Mapping_eval.apply fd m

type comparison = {
  interpretation_a : t;
  interpretation_b : t;
  only_a : Tuple.t list;
  only_b : Tuple.t list;
}

let compare_under ctx m a b =
  let ra = eval ctx m a and rb = eval ctx m b in
  {
    interpretation_a = a;
    interpretation_b = b;
    only_a = Relation.tuples (Algebra.difference ra rb);
    only_b = Relation.tuples (Algebra.difference rb ra);
  }

let no_effect ctx m a b =
  let c = compare_under ctx m a b in
  c.only_a = [] && c.only_b = []

let render_comparison ~target_schema c =
  let rows =
    List.map (fun t -> (Format.asprintf "only under %a" pp c.interpretation_a, t)) c.only_a
    @ List.map
        (fun t -> (Format.asprintf "only under %a" pp c.interpretation_b, t))
        c.only_b
  in
  if rows = [] then "(no difference on this database)"
  else Render.annotated ~qualified:false ~annot_header:"difference" rows target_schema
