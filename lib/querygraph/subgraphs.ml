module Sset = Set.Make (String)

(* Wernicke's ESU: for each anchor node v (in sorted order), emit every
   connected set whose minimum element is v.  Growth happens only through
   nodes greater than v that are in the exclusive neighbourhood of the most
   recently added node (tracked via [nbhd], the set of nodes already in the
   subgraph or adjacent to it), which guarantees each set is produced exactly
   once. *)
let fold_connected_node_sets g f init =
  let acc = ref init in
  let emit s = acc := f !acc (Sset.elements s) in
  List.iter
    (fun v ->
      let gt u = String.compare u v > 0 in
      let rec extend sub ext nbhd =
        emit sub;
        let rec loop = function
          | [] -> ()
          | w :: rest ->
              let excl =
                Qgraph.neighbours g w
                |> List.filter (fun u -> gt u && not (Sset.mem u nbhd))
              in
              let nbhd' = List.fold_left (fun s u -> Sset.add u s) nbhd excl in
              extend (Sset.add w sub) (rest @ excl) nbhd';
              loop rest
        in
        loop ext
      in
      let ext0 = Qgraph.neighbours g v |> List.filter gt in
      let nbhd0 = List.fold_left (fun s u -> Sset.add u s) (Sset.singleton v) ext0 in
      extend (Sset.singleton v) ext0 nbhd0)
    (Qgraph.aliases g);
  !acc

let connected_node_sets g =
  fold_connected_node_sets g (fun acc s -> s :: acc) [] |> List.rev

let count g = fold_connected_node_sets g (fun acc _ -> acc + 1) 0

let is_induced_connected g keep =
  keep <> [] && Qgraph.is_connected (Qgraph.induced g keep)
