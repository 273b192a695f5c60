open Relational
open Fulldisj

(* --- approximate byte accounting ---------------------------------------

   An F(J) entry is accounted in columnar units: 8 bytes a cell plus
   fixed per-row/per-relation overhead ({!Relation.footprint_bytes});
   its cells are value-pool ids, and the pool's boxes are not attributed
   to it.  Deterministic, and O(1) for both tiers. *)

let relation_bytes = Relation.footprint_bytes

(* A D(G) entry holds its rows boxed: per row, a tuple block (a header
   word and one pointer a cell), its slot in the row array and its slot
   in the coverage array (the coverage values are shared, one per
   category).  The cells point at value-pool boxes; they are charged at
   half a word a cell, about what they add to the entry's reachable size
   (145 KB over the 34 416 cells of the 4302 x 8 chain D(G)), so the
   charge tracks that size and a full budget bounds it. *)
let result_bytes (r : Full_disjunction.result) =
  let arity = Schema.arity r.Full_disjunction.scheme in
  512
  + Relation.cardinality r.Full_disjunction.rows
    * ((8 * (arity + 1)) + 16 + (4 * arity))

(* --- the store ---------------------------------------------------------- *)

type payload = Fj of Relation.t | Dg of Full_disjunction.result

type entry = { payload : payload; bytes : int; mutable tick : int }

type t = {
  table : (string, entry) Hashtbl.t;
  budget : int;
  mutable bytes : int;
  mutable clock : int;
  (* One lock around every table/accounting touch.  A cache op is a string
     hash plus an LRU tick — nanoseconds against the millisecond-scale
     F(J)/D(G) computes it fronts — so a single uncontended mutex beats
     per-domain shards here (shards also fracture the LRU and the byte
     budget; see docs/parallelism.md for the measurement).  A concurrent
     miss on the same key may compute the value twice; both computes are
     equal by construction and the second insert simply replaces the
     first. *)
  lock : Mutex.t;
}

let locked t f = Mutex.protect t.lock f

let default_byte_budget = 64 * 1024 * 1024

let create ?(byte_budget = default_byte_budget) () =
  if byte_budget <= 0 then invalid_arg "Eval_cache.create: byte_budget must be > 0";
  {
    table = Hashtbl.create 256;
    budget = byte_budget;
    bytes = 0;
    clock = 0;
    lock = Mutex.create ();
  }

let entry_count t = locked t (fun () -> Hashtbl.length t.table)
let bytes_resident t = locked t (fun () -> t.bytes)
let byte_budget t = t.budget

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.bytes <- 0);
  Obs.Counter.set Obs.Names.cache_bytes_resident 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Keys carry a tier tag, the database version and the canonical graph
   key, so entries for stale database states are simply never requested
   again and age out through the LRU. *)
let fj_key ~version key = Printf.sprintf "fj|%d|%s" version (Graph_key.to_string key)

let dg_key ~version key = Printf.sprintf "dg|%d|%s" version (Graph_key.to_string key)

let eviction_counter = function
  | Fj _ -> Obs.Names.cache_fj_evictions
  | Dg _ -> Obs.Names.cache_dg_evictions

(* Evict least-recently-used entries until within budget.  O(n) scan per
   eviction; the table is bounded by the byte budget so n stays small. *)
let rec enforce_budget t =
  if t.bytes > t.budget && Hashtbl.length t.table > 0 then begin
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, oldest) when oldest.tick <= e.tick -> acc
          | _ -> Some (k, e))
        t.table None
    in
    match victim with
    | None -> ()
    | Some (k, e) ->
        Hashtbl.remove t.table k;
        t.bytes <- t.bytes - e.bytes;
        Obs.Counter.bump (eviction_counter e.payload);
        enforce_budget t
  end

let insert t key payload bytes =
  let resident =
    locked t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some old ->
            Hashtbl.remove t.table key;
            t.bytes <- t.bytes - old.bytes
        | None -> ());
        Hashtbl.replace t.table key { payload; bytes; tick = tick t };
        t.bytes <- t.bytes + bytes;
        enforce_budget t;
        t.bytes)
  in
  Obs.Counter.set Obs.Names.cache_bytes_resident resident

let find t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
          e.tick <- tick t;
          Some e.payload
      | None -> None)

(* --- tier views --------------------------------------------------------- *)

let find_fj t ~version key =
  match find t (fj_key ~version key) with
  | Some (Fj r) ->
      Obs.Counter.bump Obs.Names.cache_fj_hits;
      Some r
  | Some (Dg _) | None ->
      Obs.Counter.bump Obs.Names.cache_fj_misses;
      None

let add_fj t ~version key r = insert t (fj_key ~version key) (Fj r) (relation_bytes r)

let find_dg t ~version key =
  match find t (dg_key ~version key) with
  | Some (Dg r) ->
      Obs.Counter.bump Obs.Names.cache_dg_hits;
      Some r
  | Some (Fj _) | None ->
      Obs.Counter.bump Obs.Names.cache_dg_misses;
      None

let add_dg t ~version key r =
  insert t (dg_key ~version key) (Dg r) (result_bytes r)

(* Promotion probes: no hit/miss counters (the miss at the current version
   was already counted) and no recency touch — the ancestor entry's age is
   genuine; the *promoted* entry gets fresh recency through [insert]. *)
let peek t key =
  locked t (fun () -> Option.map (fun e -> e.payload) (Hashtbl.find_opt t.table key))

let peek_fj t ~version key =
  match peek t (fj_key ~version key) with Some (Fj r) -> Some r | _ -> None

let peek_dg t ~version key =
  match peek t (dg_key ~version key) with Some (Dg r) -> Some r | _ -> None

let mem_fj t ~version key =
  locked t (fun () -> Hashtbl.mem t.table (fj_key ~version key))

let mem_dg t ~version key =
  locked t (fun () -> Hashtbl.mem t.table (dg_key ~version key))
