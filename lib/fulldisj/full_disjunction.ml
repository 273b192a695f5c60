open Relational
module Qgraph = Querygraph.Qgraph
module Subgraphs = Querygraph.Subgraphs

type result = {
  scheme : Schema.t;
  node_positions : (string * int list) list;
  associations : Assoc.t list;
}

let node_positions_of scheme g =
  List.map (fun a -> (a, Schema.positions_of_rel scheme a)) (Qgraph.aliases g)

(* Every F(J) padded to the full scheme and tagged with coverage J. *)
let padded_categories src g =
  Obs.with_span Obs.Names.sp_categories (fun () ->
      let scheme = Source.scheme src g in
      let subsets = Subgraphs.connected_node_sets g in
      Obs.add Obs.Names.categories (List.length subsets);
      (* The dominant fan-out: each connected subset's F(J) is independent
         of the others, so they evaluate across the source's pool; results
         land in subset order, keeping category order (and everything
         downstream) identical to sequential evaluation. *)
      let per_category =
        Par.map ?pool:(Source.pool src)
          (fun aliases ->
            let j = Qgraph.induced g aliases in
            let fj = Join_eval.full_associations src j in
            (Coverage.of_list aliases, Algebra.pad fj scheme))
          subsets
      in
      (scheme, per_category))

let possible_associations src g =
  let scheme, per_category = padded_categories src g in
  let associations =
    List.concat_map
      (fun (cov, padded) ->
        List.map (fun t -> Assoc.make t cov) (Relation.tuples padded))
      per_category
  in
  { scheme; node_positions = node_positions_of scheme g; associations }

(* Dedup equal tuples across categories, keeping the larger coverage (an
   equal tuple's smaller-coverage tag is subsumption-redundant). *)
let dedup_assocs assocs =
  let table = Hashtbl.create 256 in
  List.iter
    (fun (a : Assoc.t) ->
      let key = Tuple.hash a.tuple in
      let bucket = Hashtbl.find_all table key in
      match
        List.find_opt (fun (b : Assoc.t) -> Tuple.equal b.tuple a.tuple) bucket
      with
      | Some b ->
          if Coverage.cardinal a.coverage > Coverage.cardinal b.coverage then begin
            let bucket' =
              a :: List.filter (fun (c : Assoc.t) -> not (Tuple.equal c.tuple a.tuple)) bucket
            in
            (* Rebuild the bucket list for this key. *)
            while Hashtbl.mem table key do
              Hashtbl.remove table key
            done;
            List.iter (fun c -> Hashtbl.add table key c) bucket'
          end
      | None -> Hashtbl.add table key a)
    assocs;
  Hashtbl.fold (fun _ a acc -> a :: acc) table []

(* Canonical presentation order: by tuple, then coverage.  Every D(G)
   algorithm — and the incremental repair path — emits this order, so equal
   association *sets* render byte-identically no matter how they were
   computed.  Downstream greedy tie-breaks (illustration selection walks
   associations in order) depend on this for incremental/from-scratch
   parity.  Equal tuples imply equal coverage (a padded tuple's null
   pattern determines its category because source relations have no
   all-null tuples), so the order is total on deduplicated results. *)
let compare_assoc (a : Assoc.t) (b : Assoc.t) =
  let c = Tuple.compare a.Assoc.tuple b.Assoc.tuple in
  if c <> 0 then c else Coverage.compare a.Assoc.coverage b.Assoc.coverage

let canonical_order assocs = List.sort compare_assoc assocs

let naive src g =
  Obs.with_span ~attrs:[ ("algorithm", "naive") ] Obs.Names.sp_fulldisj
    (fun () ->
      let { scheme; node_positions; associations } =
        possible_associations src g
      in
      let deduped =
        Obs.with_span Obs.Names.sp_dedup (fun () -> dedup_assocs associations)
      in
      let associations =
        Obs.with_span Obs.Names.sp_min_union (fun () ->
            let tuples = List.map (fun (a : Assoc.t) -> a.tuple) deduped in
            let kept = Min_union.remove_subsumed_naive tuples in
            let keep_set = Hashtbl.create (List.length kept) in
            List.iter (fun t -> Hashtbl.replace keep_set (Tuple.hash t) t) kept;
            let kept_assocs =
              List.filter
                (fun (a : Assoc.t) ->
                  Hashtbl.find_all keep_set (Tuple.hash a.tuple)
                  |> List.exists (Tuple.equal a.tuple))
                deduped
            in
            if Obs.enabled () then begin
              Obs.add Obs.Names.assoc_considered (List.length deduped);
              Obs.add Obs.Names.assoc_kept (List.length kept_assocs)
            end;
            kept_assocs)
      in
      { scheme; node_positions; associations = canonical_order associations })

(* End-to-end batch evaluation of D(G) as a relation on the columnar
   kernels: each connected category's F(J) is padded to the full scheme
   (shared columns + null fills), the categories are vertically
   concatenated and set-deduplicated in one pass, the subsumption sweep
   runs on bitmask/class-id kernels, and the survivors come out in
   canonical [Tuple.compare] order. *)
let compute_relation ?(name = "D(G)") src g =
  Obs.with_span ~attrs:[ ("algorithm", "columnar") ] Obs.Names.sp_fulldisj
    (fun () ->
      let scheme, per_category = padded_categories src g in
      let union_all =
        Obs.with_span Obs.Names.sp_dedup (fun () ->
            if Schema.arity scheme = 0 then
              Relation.create name scheme
                (List.concat_map (fun (_, r) -> Relation.tuples r) per_category)
            else
              Relation.of_columns ~allow_all_null:true name scheme
                (Col_ops.concat
                   (List.map (fun (_, r) -> Relation.columns r) per_category)))
      in
      Join_eval.canonical (Min_union.minimize ?pool:(Source.pool src) union_all))

(* Coverage tags come back from each association's null pattern: base
   relations reject all-null tuples, so a padded F(J) tuple is non-null
   somewhere in exactly the aliases of J (the invariant [canonical_order]
   relies on too).  Associations with one pattern share one coverage
   value: a cached D(G) holds one per category, not one per association. *)
let compute src g =
  let rel = compute_relation src g in
  let node_positions = node_positions_of (Relation.schema rel) g in
  let shared = Hashtbl.create 16 in
  let tag t =
    let aliases = Assoc.covered_aliases node_positions t in
    match Hashtbl.find_opt shared aliases with
    | Some coverage -> Assoc.make t coverage
    | None ->
        let coverage = Coverage.of_list aliases in
        Hashtbl.add shared aliases coverage;
        Assoc.make t coverage
  in
  let associations =
    Array.fold_right (fun t acc -> tag t :: acc) (Relation.tuples_array rel) []
  in
  { scheme = Relation.schema rel; node_positions; associations }

(* Incremental repair: after an insert-only database update, D(G)'s new
   possible associations all come from categories containing an alias over
   a touched base.  Each such category contributes its delta join (padded,
   coverage-tagged; categories have distinct null patterns, so the batch
   is a set), which [Min_union.merge_keep_flags] merges into the old
   associations in one pass over them: old-vs-old subsumption is never
   re-checked, and a batch tuple equal to an old one is dropped there
   (equal tuples carry equal coverage, see [canonical_order]).  The
   survivors of the old result are still in canonical order, so the
   sorted survivors of the batch merge into them linearly. *)
let delta src g ~old ~changed =
  Obs.with_span ~attrs:[ ("algorithm", "delta") ] Obs.Names.sp_fulldisj
    (fun () ->
      let scheme = old.scheme in
      let node_positions = old.node_positions in
      let touched_bases = List.map fst changed in
      let touched_alias a =
        List.mem (Qgraph.base_of g a) touched_bases
      in
      let subsets =
        Subgraphs.connected_node_sets g
        |> List.filter (List.exists touched_alias)
      in
      let per_category =
        Par.map ?pool:(Source.pool src)
          (fun aliases ->
            let j = Qgraph.induced g aliases in
            let dfj = Join_eval.full_associations_delta src j ~changed in
            let padded = Algebra.pad dfj scheme in
            (Coverage.of_list aliases, Relation.tuples padded))
          subsets
      in
      let batch =
        List.concat_map
          (fun (cov, tuples) -> List.map (fun t -> Assoc.make t cov) tuples)
          per_category
      in
      let old_arr = Array.of_list old.associations in
      let tuples assocs = Array.map (fun (a : Assoc.t) -> a.Assoc.tuple) assocs in
      let base_keep, batch_keep =
        Min_union.merge_keep_flags ?pool:(Source.pool src)
          ~base:(tuples old_arr) (tuples (Array.of_list batch))
      in
      let added =
        Array.of_list (List.filteri (fun j _ -> batch_keep.(j)) batch)
      in
      let associations =
        if Array.length added = 0 && Array.for_all Fun.id base_keep then
          old.associations
        else begin
          Array.sort compare_assoc added;
          (* Merge from the back, so the list is built by consing. *)
          let out = ref [] and i = ref (Array.length old_arr - 1)
          and j = ref (Array.length added - 1) in
          while !i >= 0 || !j >= 0 do
            if !i >= 0 && not base_keep.(!i) then decr i
            else if
              !j < 0
              || (!i >= 0 && compare_assoc old_arr.(!i) added.(!j) > 0)
            then begin
              out := old_arr.(!i) :: !out;
              decr i
            end
            else begin
              out := added.(!j) :: !out;
              decr j
            end
          done;
          !out
        end
      in
      if Obs.enabled () && batch <> [] then begin
        Obs.add Obs.Names.assoc_considered
          (Array.length old_arr + Array.length batch_keep);
        Obs.add Obs.Names.assoc_kept (List.length associations)
      end;
      { scheme; node_positions; associations })

(* Every algorithm above emits a set under [Tuple.equal] (categories are
   deduplicated, and [delta] filters against the old result), so the
   relation is built without a second dedup pass. *)
let to_relation ?(name = "D(G)") r =
  Relation.create ~dedup:false ~allow_all_null:true name r.scheme
    (List.map (fun (a : Assoc.t) -> a.Assoc.tuple) r.associations)

let categories r =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (a : Assoc.t) ->
      let key = Coverage.to_list a.coverage in
      if not (Hashtbl.mem groups key) then order := (key, a.coverage) :: !order;
      Hashtbl.add groups key a)
    r.associations;
  List.rev !order
  |> List.map (fun (key, cov) -> (cov, List.rev (Hashtbl.find_all groups key)))
