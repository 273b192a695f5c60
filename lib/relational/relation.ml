(* A relation carries up to two interchangeable representations of the
   same rows, built lazily from one another and memoized:

   - the *boxed* view: an array of [Tuple.t] (what the pre-columnar code
     stored), still the substrate for predicates and every tuple-level
     accessor;
   - the *columnar* view: one int array per attribute holding
     {!Value_pool} structural ids (0 = null), the substrate for the batch
     operator kernels.

   Constructors record whichever representation they were given; the
   other materializes on first demand.  [view] and [cell] read whichever
   one is there and materialize nothing, so the renderer and the served
   rows read a columnar relation without boxing it.  Both views describe
   the same row sequence in the same order, and because interning is a
   structural round-trip ([Value_pool.resolve (intern v)] is [v]
   bit-for-bit), a columnar relation renders byte-identically to its
   boxed twin.

   The rows and their memo live in one [rep] record that schema-only
   copies ([with_name], [rename_rel]) share with their source, so a base
   relation is interned once per value, not once per alias that reads
   it.  The memo fields are written at most once per representation with
   a single pointer store; a concurrent second computation (two Par
   domains forcing the same view) produces an equal array and the last
   store wins — benign. *)

type rep = {
  nrows : int;
  mutable boxed : Tuple.t array option;
  mutable cols : int array array option;
}

type t = { name : string; schema : Schema.t; rep : rep }

module Tuple_tbl = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let dedup_list tuples =
  let seen = Tuple_tbl.create (List.length tuples) in
  List.filter
    (fun t ->
      if Tuple_tbl.mem seen t then false
      else begin
        Tuple_tbl.add seen t ();
        true
      end)
    tuples

let validate ~ctor ~allow_all_null name schema tuples =
  let n = Schema.arity schema in
  List.iter
    (fun t ->
      if Tuple.arity t <> n then
        invalid_arg
          (Printf.sprintf "%s %s: tuple arity %d, schema arity %d" ctor name
             (Tuple.arity t) n);
      if (not allow_all_null) && n > 0 && Tuple.all_null t then
        invalid_arg (Printf.sprintf "%s %s: all-null tuple" ctor name))
    tuples

let of_boxed name schema arr =
  { name; schema; rep = { nrows = Array.length arr; boxed = Some arr; cols = None } }

let create ?(dedup = true) ?(allow_all_null = false) name schema tuples =
  validate ~ctor:"Relation.create" ~allow_all_null name schema tuples;
  let tuples = if dedup then dedup_list tuples else tuples in
  of_boxed name schema (Array.of_list tuples)

(* Column sets of no columns carry no row count, so [nrows] supplies it
   there; the rows of such a relation are all the empty tuple, and a set
   holds at most one. *)
let of_columns ?(dedup = true) ?(allow_all_null = false) ?nrows name schema cols =
  let arity = Schema.arity schema in
  if Array.length cols <> arity then
    invalid_arg
      (Printf.sprintf "Relation.of_columns %s: %d columns, schema arity %d" name
         (Array.length cols) arity);
  let n = match nrows with Some n -> n | None -> Col_ops.nrows cols in
  if n < 0 then invalid_arg (Printf.sprintf "Relation.of_columns %s: %d rows" name n);
  Array.iteri
    (fun c col ->
      if Array.length col <> n then
        invalid_arg
          (Printf.sprintf "Relation.of_columns %s: column %d length %d, expected %d"
             name c (Array.length col) n))
    cols;
  if (not allow_all_null) && arity > 0 then
    for i = 0 to n - 1 do
      let all_null = ref true in
      for c = 0 to arity - 1 do
        if cols.(c).(i) <> 0 then all_null := false
      done;
      if !all_null then
        invalid_arg (Printf.sprintf "Relation.of_columns %s: all-null tuple" name)
    done;
  let cols, n =
    if not dedup then (cols, n)
    else if arity = 0 then (cols, min n 1)
    else
      match Col_ops.dedup_keep_first cols with
      | None -> (cols, n)
      | Some keep -> (Col_ops.gather cols keep, Array.length keep)
  in
  { name; schema; rep = { nrows = n; boxed = None; cols = Some cols } }

let tuples_array t =
  match t.rep.boxed with
  | Some arr -> arr
  | None ->
      let cols = Option.get t.rep.cols in
      let arity = Schema.arity t.schema in
      let arr =
        Array.init t.rep.nrows (fun i ->
            Array.init arity (fun c -> Value_pool.resolve cols.(c).(i)))
      in
      t.rep.boxed <- Some arr;
      arr

type view = Boxed of Tuple.t array | Columns of int array array

let view t =
  match t.rep.boxed with
  | Some arr -> Boxed arr
  | None -> Columns (Option.get t.rep.cols)

let cell t i c =
  match t.rep.boxed with
  | Some arr -> arr.(i).(c)
  | None -> Value_pool.resolve (Option.get t.rep.cols).(c).(i)

let columns t =
  match t.rep.cols with
  | Some cols -> cols
  | None ->
      let arr = Option.get t.rep.boxed in
      let cols = Value_pool.intern_rows arr ~arity:(Schema.arity t.schema) in
      Obs.add Obs.Names.relation_rows_interned t.rep.nrows;
      t.rep.cols <- Some cols;
      cols

let as_columns t =
  match t.rep.boxed with
  | None -> t
  | Some _ ->
      let cols = columns t in
      { t with rep = { nrows = t.rep.nrows; boxed = None; cols = Some cols } }

let as_boxed t =
  match t.rep.cols with
  | None -> t
  | Some _ ->
      let arr = tuples_array t in
      { t with rep = { nrows = t.rep.nrows; boxed = Some arr; cols = None } }

let name t = t.name
let schema t = t.schema
let tuples t = Array.to_list (tuples_array t)
let cardinality t = t.rep.nrows
let is_empty t = t.rep.nrows = 0
let mem t tup = Array.exists (Tuple.equal tup) (tuples_array t)
let iter f t = Array.iter f (tuples_array t)
let fold f init t = Array.fold_left f init (tuples_array t)

let filter p t =
  of_boxed t.name t.schema (Array.of_list (List.filter p (tuples t)))

let with_name name t = { t with name }

let rename_rel t ~from ~into =
  { t with schema = Schema.rename_rel t.schema ~from ~into }

let column_values t a =
  let i = Schema.index t.schema a in
  let seen = Value.Table.create 16 in
  fold
    (fun acc tup ->
      let v = tup.(i) in
      if Value.is_null v || Value.Table.mem seen v then acc
      else begin
        Value.Table.add seen v ();
        v :: acc
      end)
    [] t
  |> List.rev

let equal_contents a b =
  Schema.equal a.schema b.schema
  && cardinality a = cardinality b
  &&
  let set = Tuple_tbl.create (cardinality b) in
  Array.iter (fun t -> Tuple_tbl.replace set t ()) (tuples_array b);
  Array.for_all (fun t -> Tuple_tbl.mem set t) (tuples_array a)

(* Columnar footprint: what the relation costs once resident as columns —
   8 bytes per cell plus per-column and record overhead.  The value pool
   is process-global and shared across every resident relation, so its
   bytes are deliberately not attributed here.  Used by the engine's
   cache accounting; deterministic and O(1). *)
let footprint_bytes t =
  let arity = Schema.arity t.schema in
  256 + (arity * 24) + (8 * arity * t.rep.nrows)

let pp ppf t =
  Format.fprintf ppf "%s%a {@[<v>%a@]}" t.name Schema.pp t.schema
    (Format.pp_print_list Tuple.pp)
    (tuples t)
