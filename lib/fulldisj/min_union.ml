open Relational

let remove_subsumed_naive tuples =
  (* [counting] is hoisted so the disabled path costs one predictable branch
     per candidate pair, keeping bench B1 honest. *)
  let counting = Obs.enabled () in
  let arr = Array.of_list tuples in
  Array.to_list arr
  |> List.filteri (fun i t ->
         not
           (Array.exists
              (fun other ->
                (not (other == arr.(i)))
                &&
                (if counting then Obs.Counter.bump Obs.Names.subsumption_checks;
                 Tuple.strictly_subsumes other t))
              arr))

(* Incremental repair: merge a batch [delta] into a mutually minimal
   [base] in one chunked pass over the base that probes only tables built
   from the delta side.  Their size is O(|Δ|); nothing is indexed per base
   row and no base-vs-base check is re-run.

   A row's null pattern is folded into an int, bit [p mod fold_bits] per
   non-null column, and paired with its exact non-null count.  Row [d] can
   strictly subsume row [b] only if [mask b ⊆ mask d] and
   [count d > count b]; [b] can subsume or equal [d] only if
   [mask d ⊆ mask b] and [count d <= count b].  Up to [fold_bits] columns
   the fold is the null pattern itself; beyond, it is a sound prefilter.
   A batch takes few distinct patterns (about one per touched category),
   so every base row tests them all before it probes anything:

   - A base row is dropped when some delta row strictly subsumes it.  It
     looks up its non-null cells in the per-column delta index, stops at
     the first value no delta row carries, and checks the smallest bucket.
   - In the same pass it marks every delta row it subsumes or equals.
     Each delta row is filed under one probe column, so a base row finds
     each such delta row exactly once, by one lookup per probe column.
     A delta row equal to a base row is found this way, so the batch need
     not be deduplicated against the base.
   - A delta row survives the other delta rows when none strictly
     subsumes it and no earlier one equals it. *)
let fold_bits = Col_ops.mask_arity_limit

let null_pattern t =
  let m = ref 0 in
  for p = 0 to Array.length t - 1 do
    if not (Value.is_null t.(p)) then m := !m lor (1 lsl (p mod fold_bits))
  done;
  !m

let nonnull_count t =
  let c = ref 0 in
  for p = 0 to Array.length t - 1 do
    if not (Value.is_null t.(p)) then incr c
  done;
  !c

(* Some pattern [k] with [mask ⊆ masks.(k)] and [counts.(k) > count]. *)
let rec some_strict_superset masks counts mask count k =
  k < Array.length masks
  && ((mask land lnot masks.(k) = 0 && counts.(k) > count)
     || some_strict_superset masks counts mask count (k + 1))

(* Some pattern [k] with [masks.(k) ⊆ mask] and [counts.(k) <= count]. *)
let rec some_subset masks counts mask count k =
  k < Array.length masks
  && ((masks.(k) land lnot mask = 0 && counts.(k) <= count)
     || some_subset masks counts mask count (k + 1))

(* One table per column: value -> ids of the rows filed there (under each
   column [columns_of] lists), in row order. *)
let bucket_tables arity rows columns_of =
  let lists = Array.init arity (fun _ -> Value.Table.create 16) in
  Array.iteri
    (fun j t ->
      List.iter
        (fun p ->
          let tbl = lists.(p) in
          Value.Table.replace tbl t.(p)
            (j :: Option.value (Value.Table.find_opt tbl t.(p)) ~default:[]))
        (columns_of t))
    rows;
  Array.map
    (fun tbl ->
      let out = Value.Table.create (Value.Table.length tbl) in
      Value.Table.iter
        (fun v ids -> Value.Table.replace out v (Array.of_list (List.rev ids)))
        tbl;
      out)
    lists

let merge_keep_flags ?pool ~base delta =
  let nb = Array.length base and nd = Array.length delta in
  if nd = 0 then (Array.make nb true, [||])
  else begin
    let counting = Obs.enabled () in
    let arity = Tuple.arity (if nb > 0 then base.(0) else delta.(0)) in
    if Array.exists (fun t -> Tuple.arity t <> arity) delta then
      invalid_arg "Min_union.merge_keep_flags: delta tuple arity mismatch";
    let dmask = Array.map null_pattern delta in
    let dcount = Array.map nonnull_count delta in
    let patterns = Hashtbl.create 8 in
    Array.iteri (fun j m -> Hashtbl.replace patterns (m, dcount.(j)) ()) dmask;
    let pmask = Array.make (Hashtbl.length patterns) 0 in
    let pcount = Array.make (Hashtbl.length patterns) 0 in
    Seq.iteri
      (fun k (m, c) ->
        pmask.(k) <- m;
        pcount.(k) <- c)
      (Hashtbl.to_seq_keys patterns);
    let nonnull_columns t =
      List.filter (fun p -> not (Value.is_null t.(p))) (List.init arity Fun.id)
    in
    let index = bucket_tables arity delta nonnull_columns in
    (* Each delta row is filed under its first non-null column.  The rows
       of a one-relation insert all start with that relation's columns,
       so they share one probe column. *)
    let filed =
      bucket_tables arity delta (fun t ->
          match nonnull_columns t with [] -> [] | p :: _ -> [ p ])
    in
    let filed_cols =
      Array.of_list
        (List.filter
           (fun p -> Value.Table.length filed.(p) > 0)
           (List.init arity Fun.id))
    in
    (* The smallest delta bucket over [t]'s non-null cells; empty as soon
       as one of them holds a value no delta row has there. *)
    let candidates t =
      if counting then Obs.Counter.bump Obs.Names.index_probes;
      let best = ref [||] and best_len = ref max_int and p = ref 0 in
      while !p < arity do
        let v = t.(!p) in
        (if not (Value.is_null v) then
           match Value.Table.find_opt index.(!p) v with
           | None ->
               best := [||];
               p := arity
           | Some bucket ->
               if Array.length bucket < !best_len then begin
                 best := bucket;
                 best_len := Array.length bucket
               end);
        incr p
      done;
      !best
    in
    let checked () =
      if counting then Obs.Counter.bump Obs.Names.subsumption_checks
    in
    (* Written by every chunk of the pass below.  Each write stores
       [true], and the pool's batch join publishes them to the caller. *)
    let covered = Array.make nd false in
    let base_kept i =
      let b = base.(i) in
      let mask = null_pattern b and count = nonnull_count b in
      if some_subset pmask pcount mask count 0 then
        for k = 0 to Array.length filed_cols - 1 do
          let q = filed_cols.(k) in
          if not (Value.is_null b.(q)) then
            match Value.Table.find_opt filed.(q) b.(q) with
            | None -> ()
            | Some bucket ->
                for x = 0 to Array.length bucket - 1 do
                  let j = bucket.(x) in
                  checked ();
                  if dmask.(j) land lnot mask = 0
                     && dcount.(j) <= count
                     && Tuple.subsumes b delta.(j)
                  then covered.(j) <- true
                done
        done;
      (* An all-null base row is strictly subsumed by any non-null row. *)
      not
        (some_strict_superset pmask pcount mask count 0
        && (count = 0
           || Array.exists
                (fun j ->
                  checked ();
                  dcount.(j) > count
                  && mask land lnot dmask.(j) = 0
                  && Tuple.subsumes delta.(j) b)
                (candidates b)))
    in
    (* Base rows subsume any all-null delta row, and so does any other
       delta row; a batch of nothing but all-null rows keeps its first. *)
    let all_empty = Array.for_all (fun c -> c = 0) dcount in
    let delta_kept j =
      let d = delta.(j) and count = dcount.(j) in
      if count = 0 then nb = 0 && all_empty && j = 0
      else
        not
          (Array.exists
             (fun k ->
               k <> j
               && (checked ();
                   (dcount.(k) > count || (dcount.(k) = count && k < j))
                   && dmask.(j) land lnot dmask.(k) = 0
                   && Tuple.subsumes delta.(k) d))
             (candidates d))
    in
    let keep =
      Par.init ?pool (nb + nd) (fun i ->
          if i < nb then base_kept i else delta_kept (i - nb))
    in
    ( Array.sub keep 0 nb,
      Array.init nd (fun j -> keep.(nb + j) && not covered.(j)) )
  end

(* Columnar subsumption sweep over a relation's rows: per-row non-null
   bitmasks plus per-column class-id buckets, probed at each row's most
   selective non-null column.  A subsumer of row [j] must be non-null
   wherever [j] is and class-equal there; strictness is automatic on a
   deduplicated relation (a class-equal subsumer with the same null
   pattern would be the same row).  The masks fold column [p] onto bit
   [p mod fold_bits], as [merge_keep_flags] does: up to [fold_bits]
   columns they are the null pattern, beyond it a sound subset
   prefilter, and the cell-by-cell agreement check decides.  Returns keep
   flags in row order. *)
let columnar_keep_flags ?pool rel =
  let arity = Relational.Schema.arity (Relation.schema rel) in
  let counting = Obs.enabled () in
  let cls = Col_ops.class_columns (Relation.columns rel) in
  let n = Relation.cardinality rel in
  let masks = Col_ops.nonnull_masks cls in
  let index = Array.map Col_ops.Buckets.make cls in
  let probe_position j =
    let best = ref (-1) and best_count = ref max_int in
    for p = 0 to arity - 1 do
      let v = cls.(p).(j) in
      if v <> 0 then begin
        let c = Col_ops.Buckets.count index.(p) v in
        if c < !best_count then begin
          best := p;
          best_count := c
        end
      end
    done;
    !best
  in
  let subsumes i j =
    masks.(j) land lnot masks.(i) = 0
    &&
    let rec agree p =
      p = arity
      || ((cls.(p).(j) = 0 || cls.(p).(i) = cls.(p).(j)) && agree (p + 1))
    in
    agree 0
  in
  (* A row can only be strictly subsumed by a row whose null pattern is a
     *strict* superset of its own (equal pattern + class-equal cells is
     the same row on a deduplicated input).  Masks take few distinct
     patterns — category null-shapes, essentially — so while the masks
     are exact, precomputing which patterns have a strict superset lets
     every maximal-pattern row (the bulk of the survivors) skip probing
     entirely.  Folded masks cannot tell a strict superset apart, so wider
     schemes probe every row. *)
  let may_be_subsumed =
    if arity > fold_bits then fun _ -> true
    else begin
      let patterns = Hashtbl.create 16 in
      Array.iter (fun m -> Hashtbl.replace patterns m ()) masks;
      let distinct = Hashtbl.fold (fun m () acc -> m :: acc) patterns [] in
      let has_strict_superset = Hashtbl.create 16 in
      List.iter
        (fun m ->
          Hashtbl.replace has_strict_superset m
            (List.exists (fun m' -> m' <> m && m land lnot m' = 0) distinct))
        distinct;
      Hashtbl.find has_strict_superset
    end
  in
  let subsumed j =
    may_be_subsumed masks.(j)
    &&
    match probe_position j with
    | -1 -> n > 1
    | p ->
        if counting then Obs.Counter.bump Obs.Names.index_probes;
        let rows = Col_ops.Buckets.rows index.(p) in
        let start, len = Col_ops.Buckets.span index.(p) cls.(p).(j) in
        let rec scan k =
          k < start + len
          &&
          let i = rows.(k) in
          (i <> j
          &&
          (if counting then Obs.Counter.bump Obs.Names.subsumption_checks;
           subsumes i j))
          || scan (k + 1)
        in
        scan start
  in
  Par.init ?pool n (fun j -> not (subsumed j))

(* A zero-arity relation holds at most the empty tuple, which nothing
   subsumes. *)
let sweep ?pool rel =
  let out =
    if Relational.Schema.arity (Relation.schema rel) = 0 then rel
    else begin
      let keep = columnar_keep_flags ?pool rel in
      let rows = Col_ops.Ibuf.create 256 in
      Array.iteri (fun j k -> if k then Col_ops.Ibuf.push rows j) keep;
      Relation.of_columns ~dedup:false ~allow_all_null:true (Relation.name rel)
        (Relation.schema rel)
        (Col_ops.gather (Relation.columns rel) (Col_ops.Ibuf.contents rows))
    end
  in
  if Obs.enabled () then begin
    Obs.add Obs.Names.assoc_considered (Relation.cardinality rel);
    Obs.add Obs.Names.assoc_kept (Relation.cardinality out)
  end;
  out

let minimize ?pool rel =
  Obs.with_span Obs.Names.sp_min_union (fun () -> sweep ?pool rel)

let min_union r1 r2 = minimize (Algebra.outer_union r1 r2)

let is_minimal tuples =
  let arr = Array.of_list tuples in
  not
    (Array.exists
       (fun t ->
         Array.exists
           (fun other -> (not (other == t)) && Tuple.strictly_subsumes other t)
           arr)
       arr)
