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

let add t r =
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

let insert_tuples t name tuples =
  let old_r =
    match Hashtbl.find_opt t.by_name name with
    | Some r -> r
    | None -> invalid_arg ("Database.insert_tuples: unknown relation " ^ name)
  in
  let old_set = Relation.Tuple_tbl.create (Relation.cardinality old_r) in
  Relation.iter (fun tup -> Relation.Tuple_tbl.replace old_set tup ()) old_r;
  let fresh =
    List.filter
      (fun tup ->
        if Relation.Tuple_tbl.mem old_set tup then false
        else begin
          (* also dedup within the batch itself *)
          Relation.Tuple_tbl.replace old_set tup ();
          true
        end)
      tuples
  in
  if fresh = [] then t
  else begin
    (* [fresh] is disjoint from the old rows and from itself, so the
       union is already a set. *)
    let r =
      Relation.create ~dedup:false (Relation.name old_r) (Relation.schema old_r)
        (Relation.tuples old_r @ fresh)
    in
    let by_name = Hashtbl.copy t.by_name in
    Hashtbl.replace by_name name r;
    let rels =
      List.map (fun (n, old) -> if n = name then (n, r) else (n, old)) t.rels
    in
    let version, history =
      record t (Delta.Insert { relation = name; tuples = fresh })
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

let foreign_keys t =
  List.filter (function Integrity.Foreign_key _ -> true | _ -> false) t.constraints

let check t =
  List.concat_map (Integrity.check ~lookup:(find t)) t.constraints

let cell_count t =
  List.fold_left
    (fun acc (_, r) -> acc + (Relation.cardinality r * Schema.arity (Relation.schema r)))
    0 t.rels

let find_value_in r v =
  if Value.is_null v then []
  else
    let name = Relation.name r in
    let schema = Relation.schema r in
    Array.to_list (Schema.attrs schema)
    |> List.filter_map (fun a ->
           let i = Schema.index schema a in
           let count =
             Relation.fold
               (fun acc tup -> if Value.equal tup.(i) v then acc + 1 else acc)
               0 r
           in
           if count > 0 then Some (name, a.Attr.name, count) else None)

let find_value t v = List.concat_map (fun (_, r) -> find_value_in r v) t.rels
