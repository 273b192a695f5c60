type t = {
  version : int;  (** monotonic identity stamp; distinct contents ⇒ distinct version *)
  rels : (string * Relation.t) list;  (** insertion order *)
  by_name : (string, Relation.t) Hashtbl.t;
  constraints : Integrity.t list;
  history : Delta.t list;  (** newest-first, at most {!history_window} steps *)
}

(* Versions are drawn from a process-global counter so that any two
   databases built by different construction paths never share a stamp.
   [empty] is the sole exception: it is version 0 and safe to share.
   Atomic: the server commits mutations from several worker domains at
   once, and a duplicated stamp would alias two distinct databases in the
   version-keyed evaluation cache. *)
let next_version =
  let n = Atomic.make 0 in
  fun () -> 1 + Atomic.fetch_and_add n 1

(* Deep edit histories stop paying for themselves: walking a long chain
   costs about as much as recomputing, and cached entries that old have
   usually been evicted anyway.  Beyond the window the oldest steps are
   dropped, so versions behind the drop are no longer recorded ancestors
   and promotion from them degrades to a recompute. *)
let history_window = 32

let empty =
  {
    version = 0;
    rels = [];
    by_name = Hashtbl.create 16;
    constraints = [];
    history = [];
  }

let version t = t.version

let record t kind =
  let to_version = next_version () in
  Obs.count Obs.Names.delta_records;
  let step = { Delta.from_version = t.version; to_version; kind } in
  let history =
    if List.length t.history >= history_window then begin
      Obs.count Obs.Names.delta_history_evicted;
      step :: List.filteri (fun i _ -> i < history_window - 1) t.history
    end
    else step :: t.history
  in
  (to_version, history)

(* Base relations are stored as id columns only: every evaluation reads
   them through the batch kernels, so they are interned once here rather
   than on first use, and the boxed tuples they arrived in are not kept
   beside the columns. *)
let add t r =
  let r = Relation.as_columns r in
  let name = Relation.name r in
  if Hashtbl.mem t.by_name name then
    invalid_arg ("Database.add: duplicate relation " ^ name);
  let by_name = Hashtbl.copy t.by_name in
  Hashtbl.add by_name name r;
  let version, history = record t (Delta.New_relation name) in
  { t with version; rels = t.rels @ [ (name, r) ]; by_name; history }

let add_constraint t c =
  let version, history = record t Delta.Constraints_only in
  { t with version; constraints = t.constraints @ [ c ]; history }

let replace t r =
  let r = Relation.as_columns r in
  let name = Relation.name r in
  if not (Hashtbl.mem t.by_name name) then
    invalid_arg ("Database.replace: unknown relation " ^ name);
  let by_name = Hashtbl.copy t.by_name in
  Hashtbl.replace by_name name r;
  let rels =
    List.map (fun (n, old) -> if n = name then (n, r) else (n, old)) t.rels
  in
  (* A fresh lineage: no recorded step may lead from a version before
     the replace to the replaced instance. *)
  { t with version = next_version (); rels; by_name; history = [] }

(* [old @ fresh] as a set, and the indices into the batch [fresh] of
   the rows it adds: those equal (class-wise, as set semantics compares)
   to neither an old row nor an earlier batch row.  [old] is a set, so a
   first-occurrence dedup keeps every old row.  Zero columns hold at most
   one (empty) row. *)
let append_new ~old ~n_old fresh ~n_fresh =
  if Array.length old = 0 then (old, if n_old = 0 && n_fresh > 0 then [| 0 |] else [||])
  else
    let all = Col_ops.concat [ old; fresh ] in
    match Col_ops.dedup_keep_first all with
    | None -> (all, Array.init n_fresh Fun.id)
    | Some keep ->
        ( Col_ops.gather all keep,
          Array.of_seq
            (Seq.filter_map
               (fun i -> if i >= n_old then Some (i - n_old) else None)
               (Array.to_seq keep)) )

let insert_tuples t name tuples =
  let old_r =
    match Hashtbl.find_opt t.by_name name with
    | Some r -> r
    | None -> invalid_arg ("Database.insert_tuples: unknown relation " ^ name)
  in
  let schema = Relation.schema old_r in
  (* The batch is validated like any relation's rows, then interned on
     its own; the old relation is read as the columns it is stored as and
     is never boxed. *)
  let batch = Relation.create ~dedup:false name schema tuples in
  let n_old = Relation.cardinality old_r in
  let cols, added =
    append_new ~old:(Relation.columns old_r) ~n_old (Relation.columns batch)
      ~n_fresh:(Relation.cardinality batch)
  in
  if Array.length added = 0 then t
  else begin
    let r =
      Relation.of_columns ~dedup:false ~allow_all_null:true
        ~nrows:(n_old + Array.length added) name schema cols
    in
    let by_name = Hashtbl.copy t.by_name in
    Hashtbl.replace by_name name r;
    let rels =
      List.map (fun (n, old) -> if n = name then (n, r) else (n, old)) t.rels
    in
    let rows = Relation.tuples_array batch in
    let version, history =
      record t
        (Delta.Insert
           {
             relation = name;
             tuples = Array.to_list (Array.map (fun i -> rows.(i)) added);
           })
    in
    { t with version; rels; by_name; history }
  end

let history t = t.history

let of_relations ?(constraints = []) rels =
  let t = List.fold_left add empty rels in
  List.fold_left add_constraint t constraints

let find t name = Hashtbl.find_opt t.by_name name

let get t name =
  match find t name with Some r -> r | None -> raise Not_found

let mem t name = Hashtbl.mem t.by_name name
let relations t = List.map snd t.rels
let relation_names t = List.map fst t.rels
let constraints t = t.constraints

let check t =
  List.concat_map (Integrity.check ~lookup:(find t)) t.constraints

let cell_count t =
  List.fold_left
    (fun acc (_, r) -> acc + (Relation.cardinality r * Schema.arity (Relation.schema r)))
    0 t.rels

let find_value_in r v =
  if Value.is_null v then []
  else
    (* Stored relations are columns: count the cells of [v]'s class in
       place rather than box the relation.  The columns come first: a
       relation not interned yet may hold the pool's only value of that
       class. *)
    let cols = Relation.columns r in
    match Value_pool.find_class v with
    | None -> []
    | Some cls ->
        let name = Relation.name r in
        let schema = Relation.schema r in
        Array.to_list (Schema.attrs schema)
        |> List.filter_map (fun a ->
               let count =
                 Array.fold_left
                   (fun acc id -> if Value_pool.class_of id = cls then acc + 1 else acc)
                   0
                   cols.(Schema.index schema a)
               in
               if count > 0 then Some (name, a.Attr.name, count) else None)

let find_value t v = List.concat_map (fun (_, r) -> find_value_in r v) t.rels

let value_of_text t text =
  let literal = Value.String text in
  if find_value t literal <> [] then literal else Value.of_csv_cell text
