open Relational
open Fulldisj
module Qgraph = Querygraph.Qgraph

type side = Only_left | Only_right
type target_diff = { tuple : Tuple.t; side : side }

let target_diff ctx (m1 : Mapping.t) (m2 : Mapping.t) =
  let r1 = Mapping_eval.eval ctx m1 and r2 = Mapping_eval.eval ctx m2 in
  if not (Schema.equal (Relation.schema r1) (Relation.schema r2)) then
    invalid_arg "Differentiate.target_diff: target schemas differ";
  let only a b side =
    Relation.tuples (Algebra.difference a b)
    |> List.map (fun tuple -> { tuple; side })
  in
  only r1 r2 Only_left @ only r2 r1 Only_right

let equivalent_on ctx m1 m2 = target_diff ctx m1 m2 = []

type contrast = {
  focus_tuple : Tuple.t;
  left_targets : Tuple.t list;
  right_targets : Tuple.t list;
}

(* Positive target tuples of [m] grouped by the projection of their
   association onto [rel]. *)
let targets_by_focus ctx (m : Mapping.t) rel =
  let fd = Mapping_eval.data_associations ctx m in
  let scheme = fd.Full_disjunction.scheme in
  let positions = Schema.positions_of_rel scheme rel in
  if positions = [] then
    invalid_arg ("Differentiate.distinguishing: " ^ rel ^ " not in mapping");
  let groups = Hashtbl.create 32 in
  List.iter
    (fun (e : Example.t) ->
      if e.Example.positive && Coverage.mem rel (Example.coverage e) then begin
        let key = Tuple.project e.Example.tuple positions in
        let existing = Option.value (Hashtbl.find_opt groups key) ~default:[] in
        if not (List.exists (Tuple.equal e.Example.target_tuple) existing) then
          Hashtbl.replace groups key (existing @ [ e.Example.target_tuple ])
      end)
    (Mapping_eval.examples ctx m);
  groups

let distinguishing ctx ~rel (m1 : Mapping.t) (m2 : Mapping.t) =
  let g1 = targets_by_focus ctx m1 rel and g2 = targets_by_focus ctx m2 rel in
  let keys = Hashtbl.create 32 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) g1;
  Hashtbl.iter (fun k _ -> Hashtbl.replace keys k ()) g2;
  Hashtbl.fold
    (fun key () acc ->
      let left = Option.value (Hashtbl.find_opt g1 key) ~default:[] in
      let right = Option.value (Hashtbl.find_opt g2 key) ~default:[] in
      let same =
        List.length left = List.length right
        && List.for_all (fun t -> List.exists (Tuple.equal t) right) left
      in
      if same then acc
      else { focus_tuple = key; left_targets = left; right_targets = right } :: acc)
    keys []
  |> List.sort (fun a b -> Tuple.compare a.focus_tuple b.focus_tuple)

let render ~target_schema contrasts =
  let rows =
    List.concat_map
      (fun c ->
        let tag side t = (Printf.sprintf "%s %s" (Tuple.to_string c.focus_tuple) side, t) in
        List.map (tag "A") c.left_targets @ List.map (tag "B") c.right_targets)
      contrasts
  in
  Render.annotated ~qualified:false ~annot_header:"focus/alt" rows target_schema
