let select p r =
  let keep = Predicate.compile (Relation.schema r) p in
  let out = Relation.filter keep r in
  Obs.add Obs.Names.select_rows_in (Relation.cardinality r);
  Obs.add Obs.Names.select_rows_out (Relation.cardinality out);
  out

(* Every operator runs on the columnar kernels.  A projection onto no
   attributes keeps no column, so the row count is passed along: the
   result is {} or {()}. *)
let project attrs r =
  let schema = Relation.schema r in
  let positions = List.map (Schema.index schema) attrs in
  let out_schema = Schema.project schema attrs in
  Obs.add Obs.Names.project_rows (Relation.cardinality r);
  let cols = if positions = [] then [||] else Relation.columns r in
  Relation.of_columns ~allow_all_null:true ~nrows:(Relation.cardinality r)
    (Relation.name r) out_schema
    (Array.of_list (List.map (fun i -> cols.(i)) positions))

let product l r =
  let schema = Schema.append (Relation.schema l) (Relation.schema r) in
  let out = ref [] in
  Relation.iter
    (fun tl -> Relation.iter (fun tr -> out := Tuple.concat tl tr :: !out) r)
    l;
  Obs.add Obs.Names.product_rows_out
    (Relation.cardinality l * Relation.cardinality r);
  Relation.create ~allow_all_null:true
    (Relation.name l ^ "x" ^ Relation.name r)
    schema (List.rev !out)

(* Split equality atoms into (left-position, right-position) pairs usable for
   a hash join, plus check that every atom spans the two sides. *)
let hashable_atoms l_schema r_schema p =
  match Predicate.as_equi_atoms p with
  | None -> None
  | Some atoms ->
      let split (a, b) =
        match (Schema.index_opt l_schema a, Schema.index_opt r_schema b) with
        | Some i, Some j -> Some (i, j)
        | _ -> (
            match (Schema.index_opt l_schema b, Schema.index_opt r_schema a) with
            | Some i, Some j -> Some (i, j)
            | _ -> None)
      in
      let rec go acc = function
        | [] -> Some (List.rev acc)
        | atom :: rest -> (
            match split atom with Some ij -> go (ij :: acc) rest | None -> None)
      in
      go [] atoms

(* --- columnar equi-join core ------------------------------------------- *)

(* Hash join over class-id key columns.  Match pairs come out with left
   rows ascending and, within one probe, the matching right rows in
   [Hashtbl.find_all] chain order (latest insertion first).  Null keys
   (class 0) never match — strong predicate semantics. *)
let col_equi_join_flags pairs l r =
  let lc = Relation.columns l and rc = Relation.columns r in
  let ln = Relation.cardinality l and rn = Relation.cardinality r in
  let l_keys =
    Array.of_list (List.map (fun (i, _) -> Col_ops.class_column lc.(i)) pairs)
  in
  let r_keys =
    Array.of_list (List.map (fun (_, j) -> Col_ops.class_column rc.(j)) pairs)
  in
  let k = Array.length l_keys in
  let key_hash keys i =
    let h = ref 7 in
    for c = 0 to k - 1 do
      h := (!h * 31) + keys.(c).(i)
    done;
    !h land max_int
  in
  let key_nonnull keys i =
    let rec go c = c = k || (keys.(c).(i) <> 0 && go (c + 1)) in
    go 0
  in
  let keys_match li ri =
    let rec go c = c = k || (l_keys.(c).(li) = r_keys.(c).(ri) && go (c + 1)) in
    go 0
  in
  let l_matched = Array.make ln false and r_matched = Array.make rn false in
  let out_l = Col_ops.Ibuf.create 256 and out_r = Col_ops.Ibuf.create 256 in
  (if k = 1 then begin
     (* Single-column key (the fk = id shape dominating tree graphs):
        counting-sort buckets over the right key column replace the
        hashtable — exact class-id groups, no hashing, no chain
        filtering.  Groups are ascending, so scanning them backwards
        reproduces the chain order exactly. *)
     let lk = l_keys.(0) and rk = r_keys.(0) in
     let buckets = Col_ops.Buckets.make rk in
     let rows = Col_ops.Buckets.rows buckets in
     for li = 0 to ln - 1 do
       let v = lk.(li) in
       if v <> 0 then begin
         Obs.count Obs.Names.join_hash_probes;
         let start, len = Col_ops.Buckets.span buckets v in
         for b = start + len - 1 downto start do
           let ri = rows.(b) in
           l_matched.(li) <- true;
           r_matched.(ri) <- true;
           Col_ops.Ibuf.push out_l li;
           Col_ops.Ibuf.push out_r ri
         done
       end
     done
   end
   else begin
     let table = Hashtbl.create (max 16 rn) in
     for ri = 0 to rn - 1 do
       if key_nonnull r_keys ri then Hashtbl.add table (key_hash r_keys ri) ri
     done;
     for li = 0 to ln - 1 do
       if key_nonnull l_keys li then begin
         Obs.count Obs.Names.join_hash_probes;
         List.iter
           (fun ri ->
             if keys_match li ri then begin
               l_matched.(li) <- true;
               r_matched.(ri) <- true;
               Col_ops.Ibuf.push out_l li;
               Col_ops.Ibuf.push out_r ri
             end)
           (Hashtbl.find_all table (key_hash l_keys li))
       end
     done
   end);
  ( Col_ops.Ibuf.contents out_l,
    Col_ops.Ibuf.contents out_r,
    l_matched,
    r_matched )

let gather_col col rows = Array.map (fun i -> col.(i)) rows

(* Output columns for matched ++ left-dangling ++ right-dangling (either
   dangling side may be absent), null-filling the far side of danglers. *)
let col_join_output ~l ~r ~match_l ~match_r ~l_dangling ~r_dangling =
  let lc = Relation.columns l and rc = Relation.columns r in
  let nl = Array.length l_dangling and nr = Array.length r_dangling in
  let left_col c =
    Array.concat
      [ gather_col lc.(c) match_l; gather_col lc.(c) l_dangling; Array.make nr 0 ]
  in
  let right_col c =
    Array.concat
      [ gather_col rc.(c) match_r; Array.make nl 0; gather_col rc.(c) r_dangling ]
  in
  Array.append
    (Array.init (Array.length lc) left_col)
    (Array.init (Array.length rc) right_col)

let unmatched flags =
  let out = Col_ops.Ibuf.create 16 in
  Array.iteri (fun i m -> if not m then Col_ops.Ibuf.push out i) flags;
  Col_ops.Ibuf.contents out

(* The columnar join kernels apply whenever the predicate is a non-empty
   cross-side equi-conjunction; anything else is a theta join. *)
let col_join_applicable l r p =
  match hashable_atoms (Relation.schema l) (Relation.schema r) p with
  | Some ((_ :: _) as pairs) -> Some pairs
  | Some [] | None -> None

(* --- theta joins: nested loop returning per-side match flags ----------- *)

let join_with_flags p l r =
  let schema = Schema.append (Relation.schema l) (Relation.schema r) in
  let l_tuples = Relation.tuples_array l in
  let r_tuples = Relation.tuples_array r in
  let l_matched = Array.make (Array.length l_tuples) false in
  let r_matched = Array.make (Array.length r_tuples) false in
  let out = ref [] in
  let keep = Predicate.compile schema p in
  Obs.add Obs.Names.join_loop_comparisons
    (Array.length l_tuples * Array.length r_tuples);
  Array.iteri
    (fun li tl ->
      Array.iteri
        (fun ri tr ->
          let t = Tuple.concat tl tr in
          if keep t then begin
            l_matched.(li) <- true;
            r_matched.(ri) <- true;
            out := t :: !out
          end)
        r_tuples)
    l_tuples;
  if Obs.enabled () then Obs.add Obs.Names.join_rows_out (List.length !out);
  (schema, List.rev !out, l_tuples, r_tuples, l_matched, r_matched)

let join_nested_loop p l r =
  let schema, matched, _, _, _, _ = join_with_flags p l r in
  Relation.create ~allow_all_null:true
    (Relation.name l ^ "*" ^ Relation.name r)
    schema matched

let join p l r =
  match col_join_applicable l r p with
  | Some pairs ->
      let match_l, match_r, _, _ = col_equi_join_flags pairs l r in
      if Obs.enabled () then
        Obs.add Obs.Names.join_rows_out (Array.length match_l);
      let cols =
        col_join_output ~l ~r ~match_l ~match_r ~l_dangling:[||]
          ~r_dangling:[||]
      in
      (* Both inputs are sets, so distinct (li, ri) pairs concatenate to
         distinct rows: dedup would be a no-op and is skipped. *)
      Relation.of_columns ~dedup:false ~allow_all_null:true
        (Relation.name l ^ "*" ^ Relation.name r)
        (Schema.append (Relation.schema l) (Relation.schema r))
        cols
  | None -> join_nested_loop p l r

let left_outer_join p l r =
  match col_join_applicable l r p with
  | Some pairs ->
      let match_l, match_r, l_matched, _ = col_equi_join_flags pairs l r in
      let l_dangling = unmatched l_matched in
      if Obs.enabled () then begin
        Obs.add Obs.Names.join_rows_out (Array.length match_l);
        Obs.add Obs.Names.outer_join_dangling (Array.length l_dangling)
      end;
      let cols =
        col_join_output ~l ~r ~match_l ~match_r ~l_dangling ~r_dangling:[||]
      in
      (* Matched rows carry a non-null key on the r side, dangling rows an
         all-null r side, so the blocks cannot collide: dup-free. *)
      Relation.of_columns ~dedup:false ~allow_all_null:true
        (Relation.name l ^ "=*" ^ Relation.name r)
        (Schema.append (Relation.schema l) (Relation.schema r))
        cols
  | None ->
      let schema, matched, l_tuples, _, l_matched, _ = join_with_flags p l r in
      let r_nulls = Tuple.nulls (Schema.arity (Relation.schema r)) in
      let dangling =
        Array.to_list l_tuples
        |> List.filteri (fun i _ -> not l_matched.(i))
        |> List.map (fun tl -> Tuple.concat tl r_nulls)
      in
      if Obs.enabled () then
        Obs.add Obs.Names.outer_join_dangling (List.length dangling);
      Relation.create ~allow_all_null:true
        (Relation.name l ^ "=*" ^ Relation.name r)
        schema (matched @ dangling)

let full_outer_join p l r =
  match col_join_applicable l r p with
  | Some pairs ->
      let match_l, match_r, l_matched, r_matched =
        col_equi_join_flags pairs l r
      in
      let l_dangling = unmatched l_matched
      and r_dangling = unmatched r_matched in
      if Obs.enabled () then begin
        Obs.add Obs.Names.join_rows_out (Array.length match_l);
        Obs.add Obs.Names.outer_join_dangling
          (Array.length l_dangling + Array.length r_dangling)
      end;
      let cols =
        col_join_output ~l ~r ~match_l ~match_r ~l_dangling ~r_dangling
      in
      (* Dedup stays on: when both inputs carry an all-null row its two
         dangling images coincide and must collapse to one. *)
      Relation.of_columns ~allow_all_null:true
        (Relation.name l ^ "=*=" ^ Relation.name r)
        (Schema.append (Relation.schema l) (Relation.schema r))
        cols
  | None ->
      let schema, matched, l_tuples, r_tuples, l_matched, r_matched =
        join_with_flags p l r
      in
      let l_nulls = Tuple.nulls (Schema.arity (Relation.schema l)) in
      let r_nulls = Tuple.nulls (Schema.arity (Relation.schema r)) in
      let l_dangling =
        Array.to_list l_tuples
        |> List.filteri (fun i _ -> not l_matched.(i))
        |> List.map (fun tl -> Tuple.concat tl r_nulls)
      in
      let r_dangling =
        Array.to_list r_tuples
        |> List.filteri (fun i _ -> not r_matched.(i))
        |> List.map (fun tr -> Tuple.concat l_nulls tr)
      in
      if Obs.enabled () then
        Obs.add Obs.Names.outer_join_dangling
          (List.length l_dangling + List.length r_dangling);
      Relation.create ~allow_all_null:true
        (Relation.name l ^ "=*=" ^ Relation.name r)
        schema
        (matched @ l_dangling @ r_dangling)

let require_same_schema op a b =
  if not (Schema.equal (Relation.schema a) (Relation.schema b)) then
    invalid_arg (op ^ ": schema mismatch")

let union a b =
  require_same_schema "Algebra.union" a b;
  if Schema.arity (Relation.schema a) = 0 then
    Relation.with_name (Relation.name a) (if Relation.is_empty a then b else a)
  else
    Relation.of_columns ~allow_all_null:true (Relation.name a)
      (Relation.schema a)
      (Col_ops.concat [ Relation.columns a; Relation.columns b ])

let difference a b =
  require_same_schema "Algebra.difference" a b;
  let b_set = Relation.Tuple_tbl.create (Relation.cardinality b) in
  Relation.iter (fun t -> Relation.Tuple_tbl.replace b_set t ()) b;
  Relation.filter (fun t -> not (Relation.Tuple_tbl.mem b_set t)) a

let pad r schema =
  let src = Relation.schema r in
  let mapping =
    Array.map (fun a -> Schema.index_opt src a) (Schema.attrs schema)
  in
  Array.iter
    (fun a ->
      if not (Schema.mem schema a) then
        invalid_arg ("Algebra.pad: target schema lacks " ^ Attr.to_string a))
    (Schema.attrs src);
  if Schema.arity schema = 0 then
    Relation.create ~dedup:false (Relation.name r) schema (Relation.tuples r)
  else begin
    let cols = Relation.columns r in
    let n = Relation.cardinality r in
    (* Present columns are shared, missing ones null-filled; every source
       attribute survives, so padding is injective on rows: dedup would
       be a no-op and is skipped. *)
    Relation.of_columns ~dedup:false ~allow_all_null:true (Relation.name r)
      schema
      (Array.map
         (function Some i -> cols.(i) | None -> Array.make n 0)
         mapping)
  end

let outer_union a b =
  Obs.add Obs.Names.outer_union_rows
    (Relation.cardinality a + Relation.cardinality b);
  let sa = Relation.schema a and sb = Relation.schema b in
  let extra =
    Array.to_list (Schema.attrs sb)
    |> List.filter (fun at -> not (Schema.mem sa at))
  in
  let merged = Schema.of_attrs (Array.to_list (Schema.attrs sa) @ extra) in
  union (pad a merged) (Relation.with_name (Relation.name a) (pad b merged))
