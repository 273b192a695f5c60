open Relational
module Qgraph = Querygraph.Qgraph
module Subgraphs = Querygraph.Subgraphs

type result = {
  scheme : Schema.t;
  node_positions : (string * int list) list;
  rows : Relation.t;
  coverage : Coverage.t array;
}

(* Coverage comes back from each row's null pattern: base relations reject
   all-null tuples, so a padded F(J) tuple is non-null somewhere in exactly
   the aliases of J.  A row's pattern is a bitmask over [g]'s aliases, in
   words of [Sys.int_size - 1] bits so it is exact for any number of
   them, and rows with one pattern share one coverage value: a cached
   D(G) holds one per category, not one per row. *)
let of_rows g rel =
  let scheme = Relation.schema rel in
  let node_positions =
    List.map (fun a -> (a, Schema.positions_of_rel scheme a)) (Qgraph.aliases g)
  in
  let aliases = Array.of_list (List.map fst node_positions) in
  let positions =
    Array.of_list (List.map (fun (_, ps) -> Array.of_list ps) node_positions)
  in
  let bits = Sys.int_size - 1 in
  let words = max 1 ((Array.length aliases + bits - 1) / bits) in
  let pattern = Array.make words 0 in
  (* pattern -> coverage, probed with [pattern] itself *)
  let seen = Hashtbl.create 16 in
  let coverage_of t =
    Array.fill pattern 0 words 0;
    for a = 0 to Array.length positions - 1 do
      let ps = positions.(a) in
      let j = ref 0 in
      while !j < Array.length ps && Value.is_null t.(ps.(!j)) do
        incr j
      done;
      if !j < Array.length ps then
        pattern.(a / bits) <- pattern.(a / bits) lor (1 lsl (a mod bits))
    done;
    match Hashtbl.find_opt seen pattern with
    | Some coverage -> coverage
    | None ->
        let coverage =
          Coverage.of_list
            (List.filteri
               (fun a _ -> pattern.(a / bits) land (1 lsl (a mod bits)) <> 0)
               (Array.to_list aliases))
        in
        Hashtbl.add seen (Array.copy pattern) coverage;
        coverage
  in
  let tuples = Relation.tuples_array rel in
  let coverage = Array.map coverage_of tuples in
  let rows = Relation.as_boxed (Relation.with_name "D(G)" rel) in
  { scheme; node_positions; rows; coverage }

(* The F(J) of every category in [subsets] (connected alias sets of [g]),
   padded to the full scheme, in order. *)
let padded_categories src g subsets =
  Obs.with_span Obs.Names.sp_categories (fun () ->
      let scheme = Source.scheme src g in
      Obs.add Obs.Names.categories (List.length subsets);
      (* The dominant fan-out: each connected subset's F(J) is independent
         of the others, so they evaluate across the source's pool; results
         land in subset order, keeping category order (and everything
         downstream) identical to sequential evaluation. *)
      let per_category =
        Par.map ?pool:(Source.pool src)
          (fun aliases ->
            let j = Qgraph.induced g aliases in
            Algebra.pad (Join_eval.full_associations src j) scheme)
          subsets
      in
      (scheme, per_category))

let padded_tuples per_category = List.concat_map Relation.tuples per_category

let holds_all_null_row r =
  match Relation.view r with
  | Relation.Boxed rows -> Array.exists Tuple.all_null rows
  | Relation.Columns cols ->
      let rec all_null i c =
        c = Array.length cols || (cols.(c).(i) = 0 && all_null i (c + 1))
      in
      let rec scan i = i < Relation.cardinality r && (all_null i 0 || scan (i + 1)) in
      scan 0

(* The padded categories as one relation, in category order.  It is a set
   without a dedup pass: each F(J) is a set (its base relations are), and
   while no base relation of [g] holds an all-null row, a padded F(J) row
   is non-null somewhere in each alias of J and null everywhere else, so
   rows of different categories differ in their null pattern.  A stored
   all-null row would pad into another category's pattern, and only a
   graph over such a relation pays for a dedup. *)
let padded_union src g name scheme per_category =
  if Schema.arity scheme = 0 || per_category = [] then
    Relation.create ~allow_all_null:true name scheme (padded_tuples per_category)
  else
    let dedup =
      List.exists
        (fun n ->
          Option.fold ~none:false ~some:holds_all_null_row
            (Source.lookup src n.Qgraph.base))
        (Qgraph.nodes g)
    in
    Relation.of_columns ~dedup ~allow_all_null:true name scheme
      (Col_ops.concat (List.map Relation.columns per_category))

let possible_associations src g =
  let scheme, per_category =
    padded_categories src g (Subgraphs.connected_node_sets g)
  in
  of_rows g (padded_union src g "S(G)" scheme per_category)

(* Dedup equal tuples across categories by hash bucket, the pairwise
   oracle's own way (no kernel). *)
let dedup tuples =
  let table = Hashtbl.create 256 in
  List.iter
    (fun t ->
      let key = Tuple.hash t in
      if not (List.exists (Tuple.equal t) (Hashtbl.find_all table key)) then
        Hashtbl.add table key t)
    tuples;
  Hashtbl.fold (fun _ t acc -> t :: acc) table []

let naive src g =
  Obs.with_span ~attrs:[ ("algorithm", "naive") ] Obs.Names.sp_fulldisj
    (fun () ->
      let scheme, per_category =
        padded_categories src g (Subgraphs.connected_node_sets g)
      in
      let deduped =
        Obs.with_span Obs.Names.sp_dedup (fun () ->
            dedup (padded_tuples per_category))
      in
      let kept =
        Obs.with_span Obs.Names.sp_min_union (fun () ->
            let kept = Min_union.remove_subsumed_naive deduped in
            if Obs.enabled () then begin
              Obs.add Obs.Names.assoc_considered (List.length deduped);
              Obs.add Obs.Names.assoc_kept (List.length kept)
            end;
            kept)
      in
      (* Canonical order, sorted boxed: [Join_eval.canonical]'s order
         without interning the rows. *)
      of_rows g
        (Relation.create ~dedup:false ~allow_all_null:true "D(G)" scheme
           (List.sort Tuple.compare kept)))

(* End-to-end batch evaluation of D(G) as a relation on the columnar
   kernels: each category's F(J) is padded to the full scheme (shared
   columns + null fills), the categories are vertically concatenated into
   a set, the subsumption sweep runs on bitmask/class-id kernels, and the
   survivors come out in canonical [Tuple.compare] order. *)
let compute_relation ?(name = "D(G)") src g ~categories =
  Obs.with_span ~attrs:[ ("algorithm", "columnar") ] Obs.Names.sp_fulldisj
    (fun () ->
      let scheme, per_category = padded_categories src g categories in
      let union_all =
        Obs.with_span Obs.Names.sp_concat (fun () ->
            padded_union src g name scheme per_category)
      in
      Join_eval.canonical (Min_union.minimize ?pool:(Source.pool src) union_all))

let compute src g =
  of_rows g
    (compute_relation src g ~categories:(Subgraphs.connected_node_sets g))

(* Incremental repair: after an insert-only database update, D(G)'s new
   possible associations all come from categories containing an alias over
   a touched base.  Each such category contributes its delta join (padded,
   coverage-tagged; categories have distinct null patterns, so the batch
   is a set), which [Min_union.merge_keep_flags] merges into the old rows
   in one pass over them: old-vs-old subsumption is never re-checked, and
   a batch tuple equal to an old one is dropped there (equal tuples carry
   equal coverage).  The surviving old rows are still in canonical order,
   so the sorted survivors of the batch merge into them linearly, each
   row with its coverage. *)
let delta src g ~old ~changed =
  Obs.with_span ~attrs:[ ("algorithm", "delta") ] Obs.Names.sp_fulldisj
    (fun () ->
      let touched_bases = List.map fst changed in
      let touched_alias a = List.mem (Qgraph.base_of g a) touched_bases in
      let subsets =
        Subgraphs.connected_node_sets g
        |> List.filter (List.exists touched_alias)
      in
      let per_category =
        Par.map ?pool:(Source.pool src)
          (fun aliases ->
            let j = Qgraph.induced g aliases in
            let dfj = Join_eval.full_associations_delta src j ~changed in
            let padded = Algebra.pad dfj old.scheme in
            (Coverage.of_list aliases, Relation.tuples_array padded))
          subsets
      in
      let batch = Array.concat (List.map snd per_category) in
      let batch_coverage =
        Array.concat
          (List.map (fun (c, ts) -> Array.make (Array.length ts) c) per_category)
      in
      let old_rows = Relation.tuples_array old.rows in
      let base_keep, batch_keep =
        Min_union.merge_keep_flags ?pool:(Source.pool src) ~base:old_rows batch
      in
      let added =
        List.init (Array.length batch) Fun.id
        |> List.filter (fun j -> batch_keep.(j))
        |> Array.of_list
      in
      let result =
        if Array.length added = 0 && Array.for_all Fun.id base_keep then old
        else begin
          Array.sort (fun j k -> Tuple.compare batch.(j) batch.(k)) added;
          (* Merge from the back, so the lists are built by consing. *)
          let rows = ref [] and coverage = ref [] in
          let keep t c =
            rows := t :: !rows;
            coverage := c :: !coverage
          in
          let i = ref (Array.length old_rows - 1)
          and j = ref (Array.length added - 1) in
          while !i >= 0 || !j >= 0 do
            if !i >= 0 && not base_keep.(!i) then decr i
            else if
              !j < 0
              || (!i >= 0 && Tuple.compare old_rows.(!i) batch.(added.(!j)) > 0)
            then begin
              keep old_rows.(!i) old.coverage.(!i);
              decr i
            end
            else begin
              keep batch.(added.(!j)) batch_coverage.(added.(!j));
              decr j
            end
          done;
          {
            old with
            rows =
              Relation.create ~dedup:false ~allow_all_null:true "D(G)" old.scheme
                !rows;
            coverage = Array.of_list !coverage;
          }
        end
      in
      if Obs.enabled () && Array.length batch > 0 then begin
        Obs.add Obs.Names.assoc_considered
          (Array.length old_rows + Array.length batch);
        Obs.add Obs.Names.assoc_kept (Array.length result.coverage)
      end;
      result)

let to_relation r = r.rows

let restrict p r =
  let rows = ref [] and coverage = ref [] in
  let tuples = Relation.tuples_array r.rows in
  for i = Array.length tuples - 1 downto 0 do
    if p r.coverage.(i) then begin
      rows := tuples.(i) :: !rows;
      coverage := r.coverage.(i) :: !coverage
    end
  done;
  {
    r with
    rows = Relation.create ~dedup:false ~allow_all_null:true "D(G)" r.scheme !rows;
    coverage = Array.of_list !coverage;
  }

let categories r =
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i t ->
      let c = r.coverage.(i) in
      let key = Coverage.to_list c in
      if not (Hashtbl.mem groups key) then order := (key, c) :: !order;
      Hashtbl.add groups key t)
    (Relation.tuples_array r.rows);
  List.rev !order
  |> List.map (fun (key, cov) -> (cov, List.rev (Hashtbl.find_all groups key)))
