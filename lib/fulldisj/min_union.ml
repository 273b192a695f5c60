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

(* Per-column index: column position -> value -> tuple indices having that
   value there.  A subsumer of [t] must carry t's exact value at every
   non-null position of [t], so probing one such column yields a complete
   candidate set; [selective] picks the smallest bucket instead of the first
   non-null column. *)
let remove_subsumed_indexed ?pool ~selective tuples =
  match tuples with
  | [] -> []
  | first :: _ ->
      let counting = Obs.enabled () in
      let arity = Tuple.arity first in
      let arr = Array.of_list tuples in
      let index = Array.init arity (fun _ -> Value.Table.create 64) in
      (* Bucket sizes kept separately: probing selectivity must not pay to
         materialize the bucket it is sizing up. *)
      let counts = Array.init arity (fun _ -> Value.Table.create 64) in
      Array.iteri
        (fun id t ->
          for p = 0 to arity - 1 do
            if not (Value.is_null t.(p)) then begin
              Value.Table.add index.(p) t.(p) id;
              Value.Table.replace counts.(p) t.(p)
                (1 + Option.value (Value.Table.find_opt counts.(p) t.(p)) ~default:0)
            end
          done)
        arr;
      let probe_position t =
        if selective then begin
          let best = ref (-1) and best_count = ref max_int in
          for p = 0 to arity - 1 do
            if not (Value.is_null t.(p)) then begin
              let c = Option.value (Value.Table.find_opt counts.(p) t.(p)) ~default:0 in
              if c < !best_count then begin
                best := p;
                best_count := c
              end
            end
          done;
          !best
        end
        else
          let rec first_non_null p =
            if p >= arity then -1
            else if Value.is_null t.(p) then first_non_null (p + 1)
            else p
          in
          first_non_null 0
      in
      let subsumed id t =
        match probe_position t with
        | -1 ->
            (* All-null tuple: strictly subsumed by any other tuple. *)
            Array.length arr > 1
        | p ->
            if counting then Obs.Counter.bump Obs.Names.index_probes;
            Value.Table.find_all index.(p) t.(p)
            |> List.exists (fun oid ->
                   oid <> id
                   &&
                   (if counting then
                      Obs.Counter.bump Obs.Names.subsumption_checks;
                    Tuple.strictly_subsumes arr.(oid) t))
      in
      (* The per-tuple checks only read [arr]/[index], so they chunk across
         the pool; list assembly stays sequential and ordered. *)
      let keep =
        Par.init ?pool (Array.length arr) (fun id -> not (subsumed id arr.(id)))
      in
      Array.to_list arr |> List.filteri (fun id _ -> keep.(id))

(* Merge a small already-deduplicated batch into a mutually-minimal base
   without re-minimizing everything.  Because the base is minimal, a base
   tuple can only be newly subsumed by a *delta* tuple, so base tuples
   probe an index over the delta side alone (|Δ| buckets); delta tuples
   must survive both sides, so they probe the base index and the delta
   index at their most selective non-null column.  Index construction is
   one hashing pass per side; no base-vs-base subsumption check is ever
   re-run. *)
let merge_keep_flags ?pool ~base delta =
  let nb = Array.length base and nd = Array.length delta in
  if nd = 0 then (Array.make nb true, [||])
  else begin
    let counting = Obs.enabled () in
    let arity =
      Tuple.arity (if nb > 0 then base.(0) else delta.(0))
    in
    let build arr =
      let index = Array.init arity (fun _ -> Value.Table.create 64) in
      let counts = Array.init arity (fun _ -> Value.Table.create 64) in
      Array.iteri
        (fun id t ->
          for p = 0 to arity - 1 do
            if not (Value.is_null t.(p)) then begin
              Value.Table.add index.(p) t.(p) id;
              Value.Table.replace counts.(p) t.(p)
                (1 + Option.value (Value.Table.find_opt counts.(p) t.(p)) ~default:0)
            end
          done)
        arr;
      (index, counts)
    in
    let base_index, base_counts = build base in
    let delta_index, delta_counts = build delta in
    let count_at counts p v =
      Option.value (Value.Table.find_opt counts.(p) v) ~default:0
    in
    (* Most selective non-null column of [t] under the given sizing; -1 for
       an all-null tuple (subsumed by any other tuple, as in the indexed
       sweep). *)
    let probe_position sizes t =
      let best = ref (-1) and best_count = ref max_int in
      for p = 0 to arity - 1 do
        if not (Value.is_null t.(p)) then begin
          let c = sizes p t.(p) in
          if c < !best_count then begin
            best := p;
            best_count := c
          end
        end
      done;
      !best
    in
    let subsumer_in index arr ~skip p t =
      if counting then Obs.Counter.bump Obs.Names.index_probes;
      Value.Table.find_all index.(p) t.(p)
      |> List.exists (fun oid ->
             oid <> skip
             &&
             (if counting then Obs.Counter.bump Obs.Names.subsumption_checks;
              Tuple.strictly_subsumes arr.(oid) t))
    in
    let base_kept i =
      let t = base.(i) in
      match probe_position (fun p v -> count_at delta_counts p v) t with
      | -1 -> nd = 0
      | p -> not (subsumer_in delta_index delta ~skip:(-1) p t)
    in
    let delta_kept j =
      let t = delta.(j) in
      match
        probe_position
          (fun p v -> count_at base_counts p v + count_at delta_counts p v)
          t
      with
      | -1 -> nb + nd <= 1
      | p ->
          (not (subsumer_in base_index base ~skip:(-1) p t))
          && not (subsumer_in delta_index delta ~skip:j p t)
    in
    (* One chunked pass over base ++ delta; the checks only read the
       indexes, so they parallelize exactly like the full sweep. *)
    let keep =
      Par.init ?pool (nb + nd) (fun i ->
          if i < nb then base_kept i else delta_kept (i - nb))
    in
    (Array.sub keep 0 nb, Array.sub keep nb nd)
  end

let merge_minimal ?pool rel delta_tuples =
  let schema = Relation.schema rel in
  let arity = Relational.Schema.arity schema in
  List.iter
    (fun t ->
      if Tuple.arity t <> arity then
        invalid_arg "Min_union.merge_minimal: delta tuple arity mismatch")
    delta_tuples;
  let base = Relation.tuples_array rel in
  (* Set semantics first: drop delta tuples already present in the base or
     duplicated within the batch.  Equal tuples carry equal information, so
     this never loses a subsumption witness. *)
  let seen = Relation.Tuple_tbl.create (Array.length base) in
  Array.iter (fun t -> Relation.Tuple_tbl.replace seen t ()) base;
  let fresh =
    List.filter
      (fun t ->
        if Relation.Tuple_tbl.mem seen t then false
        else begin
          Relation.Tuple_tbl.replace seen t ();
          true
        end)
      delta_tuples
  in
  if fresh = [] then rel
  else begin
    let delta = Array.of_list fresh in
    let base_keep, delta_keep = merge_keep_flags ?pool ~base delta in
    let out = ref [] in
    for j = Array.length delta - 1 downto 0 do
      if delta_keep.(j) then out := delta.(j) :: !out
    done;
    for i = Array.length base - 1 downto 0 do
      if base_keep.(i) then out := base.(i) :: !out
    done;
    if Obs.enabled () then begin
      Obs.add Obs.Names.assoc_considered (Array.length base + Array.length delta);
      Obs.add Obs.Names.assoc_kept (List.length !out)
    end;
    Relation.create ~allow_all_null:true (Relation.name rel) schema !out
  end

let remove_subsumed ?pool tuples = remove_subsumed_indexed ?pool ~selective:true tuples
let remove_subsumed_first_probe tuples = remove_subsumed_indexed ~selective:false tuples

(* Columnar subsumption sweep over a relation's rows: per-row non-null
   bitmasks plus per-column class-id buckets, probed at each row's most
   selective non-null column.  A subsumer of row [j] must be non-null
   wherever [j] is ([mask_j] a subset of [mask_i]) and class-equal there;
   strictness is automatic on a deduplicated relation (a class-equal
   subsumer with the same mask would be the same row).  Returns keep
   flags in row order; the arity must be 1 .. [Col_ops.mask_arity_limit]
   so a row's null pattern fits an int bitmask. *)
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
      || ((masks.(j) land (1 lsl p) = 0 || cls.(p).(i) = cls.(p).(j))
         && agree (p + 1))
    in
    agree 0
  in
  (* A row can only be strictly subsumed by a row whose non-null mask is
     a *strict* superset of its own (equal mask + class-equal cells is
     the same row on a deduplicated input).  Masks take few distinct
     patterns — category null-shapes, essentially — so precomputing
     which patterns have a strict superset lets every maximal-pattern
     row (the bulk of the survivors) skip probing entirely. *)
  let patterns = Hashtbl.create 16 in
  Array.iter (fun m -> Hashtbl.replace patterns m ()) masks;
  let distinct = Hashtbl.fold (fun m () acc -> m :: acc) patterns [] in
  let has_strict_superset = Hashtbl.create 16 in
  List.iter
    (fun m ->
      Hashtbl.replace has_strict_superset m
        (List.exists (fun m' -> m' <> m && m land lnot m' = 0) distinct))
    distinct;
  let subsumed j =
    if not (Hashtbl.find has_strict_superset masks.(j)) then false
    else
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

(* The bitmask kernel covers every scheme up to [Col_ops.mask_arity_limit]
   columns; only wider ones take the boxed indexed sweep.  A zero-arity
   relation holds at most the empty tuple, which nothing subsumes. *)
let sweep ?pool rel =
  let arity = Relational.Schema.arity (Relation.schema rel) in
  let out =
    if arity = 0 then rel
    else if arity > Col_ops.mask_arity_limit then
      Relation.create ~allow_all_null:true (Relation.name rel)
        (Relation.schema rel)
        (remove_subsumed ?pool (Relation.tuples rel))
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

let min_union_all = function
  | [] -> None
  | [ r ] -> Some (minimize r)
  | r :: rest -> Some (minimize (List.fold_left Algebra.outer_union r rest))

let is_minimal tuples =
  let arr = Array.of_list tuples in
  not
    (Array.exists
       (fun t ->
         Array.exists
           (fun other -> (not (other == t)) && Tuple.strictly_subsumes other t)
           arr)
       arr)
