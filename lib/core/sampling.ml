open Relational
open Fulldisj
module Qgraph = Querygraph.Qgraph

module Tuple_tbl = Relation.Tuple_tbl

(* Per base relation: the selected tuples (as a hashed set preserving
   insertion order through a list ref). *)
type selection = { set : unit Tuple_tbl.t; mutable order : Tuple.t list }

let add_tuple sel t =
  if not (Tuple_tbl.mem sel.set t) then begin
    Tuple_tbl.add sel.set t ();
    sel.order <- t :: sel.order
  end

let slice ?(seed = 1) ?(per_relation = 20) db graph =
  let st = Random.State.make [| seed |] in
  let bases =
    Qgraph.nodes graph
    |> List.map (fun n -> n.Qgraph.base)
    |> List.sort_uniq String.compare
  in
  let selections = Hashtbl.create 8 in
  let selection base =
    match Hashtbl.find_opt selections base with
    | Some s -> s
    | None ->
        let s = { set = Tuple_tbl.create 64; order = [] } in
        Hashtbl.add selections base s;
        s
  in
  (* 1. random probe per base relation *)
  List.iter
    (fun base ->
      let r = Database.get db base in
      let n = Relation.cardinality r in
      let tuples = Array.of_list (Relation.tuples r) in
      let sel = selection base in
      if n <= per_relation then Array.iter (fun t -> add_tuple sel t) tuples
      else
        (* Sample distinct indices. *)
        let chosen = Hashtbl.create per_relation in
        while Hashtbl.length chosen < per_relation do
          Hashtbl.replace chosen (Random.State.int st n) ()
        done;
        Hashtbl.iter (fun i () -> add_tuple sel tuples.(i)) chosen)
    bases;
  (* 2. close under join partners along every edge, to fixpoint, so that a
     tuple dangling in the slice is dangling in the full database too
     (soundness of the categories the slice exhibits). *)
  let edge_links =
    Qgraph.edges graph
    |> List.filter_map (fun e ->
           let b1 = Qgraph.base_of graph e.Qgraph.n1 in
           let b2 = Qgraph.base_of graph e.Qgraph.n2 in
           (* Interpret the edge predicate over the two base schemas. *)
           let pred =
             Predicate.rename_rel
               (Predicate.rename_rel e.Qgraph.pred ~from:e.Qgraph.n1 ~into:b1)
               ~from:e.Qgraph.n2 ~into:b2
           in
           match Predicate.as_equi_atoms pred with
           | Some ((_ :: _) as atoms) ->
               (* Orient every atom as (b1 side, b2 side): the undirected
                  edge may store them either way round. *)
               let oriented =
                 List.filter_map
                   (fun (x, y) ->
                     if String.equal x.Attr.rel b1 && String.equal y.Attr.rel b2 then
                       Some (x, y)
                     else if String.equal x.Attr.rel b2 && String.equal y.Attr.rel b1
                     then Some (y, x)
                     else None)
                   atoms
               in
               if List.length oriented = List.length atoms then Some (b1, b2, oriented)
               else None
           | _ -> None)
  in
  let r1_positions b atoms =
    let s = Relation.schema (Database.get db b) in
    List.map (fun (a, _) -> Schema.index s a) atoms
  in
  let r2_positions b atoms =
    let s = Relation.schema (Database.get db b) in
    List.map (fun (_, a) -> Schema.index s a) atoms
  in
  let key positions t =
    let k = List.map (fun i -> t.(i)) positions in
    if List.exists Value.is_null k then None else Some k
  in
  (* Precompute per (edge, direction) a hash from key -> full-db tuples. *)
  let partner_index =
    List.concat_map
      (fun (b1, b2, atoms) ->
        let mk_dir src_base src_pos dst_base dst_pos =
          let table = Hashtbl.create 256 in
          Relation.iter
            (fun t ->
              match key dst_pos t with
              | Some k -> Hashtbl.add table k t
              | None -> ())
            (Database.get db dst_base);
          (src_base, src_pos, dst_base, table)
        in
        let p1 = r1_positions b1 atoms and p2 = r2_positions b2 atoms in
        [ mk_dir b1 p1 b2 p2; mk_dir b2 p2 b1 p1 ])
      edge_links
  in
  let close_under_partners () =
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (src_base, src_pos, dst_base, table) ->
          let src_sel = selection src_base in
          let dst_sel = selection dst_base in
          List.iter
            (fun t ->
              match key src_pos t with
              | None -> ()
              | Some k ->
                  List.iter
                    (fun partner ->
                      if not (Tuple_tbl.mem dst_sel.set partner) then begin
                        Tuple_tbl.add dst_sel.set partner ();
                        dst_sel.order <- partner :: dst_sel.order;
                        changed := true
                      end)
                    (Hashtbl.find_all table k))
            src_sel.order)
        partner_index
    done
  in
  close_under_partners ();
  (* 3. one dangling witness per edge side: a full-db tuple with no partner
     at all (it stays dangling in the slice). *)
  List.iter
    (fun (src_base, src_pos, _dst_base, table) ->
      let sel = selection src_base in
      let witness =
        Relation.tuples (Database.get db src_base)
        |> List.find_opt (fun t ->
               match key src_pos t with
               | None -> true (* null join key: never matches *)
               | Some k -> Hashtbl.find_all table k = [])
      in
      match witness with
      | Some t when not (Tuple_tbl.mem sel.set t) ->
          Tuple_tbl.add sel.set t ();
          sel.order <- t :: sel.order
      | _ -> ())
    partner_index;
  (* A witness may have partners along the *other* edges: close again so
     the slice stays partner-complete (soundness). *)
  close_under_partners ();
  (* Assemble: reduced relations for graph bases, others unchanged. *)
  let rels =
    List.map
      (fun r ->
        let name = Relation.name r in
        if List.mem name bases then
          Relation.create ~allow_all_null:true name (Relation.schema r)
            (List.rev (selection name).order)
        else r)
      (Database.relations db)
  in
  Database.of_relations ~constraints:(Database.constraints db) rels

let illustrate_sampled ?seed ?per_relation ctx (m : Mapping.t) =
  let sliced =
    slice ?seed ?per_relation (Engine.Eval_ctx.db ctx) m.Mapping.graph
  in
  (* The slice is a fresh database version, so reusing the context's cache
     is sound — and repeated illustrations of the same slice hit it. *)
  let universe = Mapping_eval.examples (Engine.Eval_ctx.with_db ctx sliced) m in
  let illustration =
    Sufficiency.select ~universe ~target_cols:m.Mapping.target_cols ()
  in
  (universe, illustration)

let sound ctx (m : Mapping.t) ~slice_universe =
  let rows = (Mapping_eval.data_associations ctx m).Full_disjunction.rows in
  let full = Tuple_tbl.create (Relation.cardinality rows) in
  Relation.iter (fun t -> Tuple_tbl.replace full t ()) rows;
  List.for_all
    (fun (e : Example.t) -> Tuple_tbl.mem full e.Example.tuple)
    slice_universe
