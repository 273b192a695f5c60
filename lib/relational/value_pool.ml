(* Global value-intern table: every distinct Value.t observed by the data
   plane gets a small int id; columns store ids, so operator kernels
   compare ints instead of walking boxed values.

   Two identities coexist, and the pool tracks both:

   - *structural* identity assigns the id.  It is bit-exact (floats are
     keyed by their IEEE bit pattern), so [resolve (intern v)] returns a
     value that renders byte-identically to [v] — [Int 1], [Float 1.0],
     [Float (-0.)] and differently-payloaded NaNs all hold distinct ids.
     This is what makes a columnar pipeline print exactly what the boxed
     pipeline prints.

   - *class* identity quotients ids by {!Value.equal} (the kernel of
     {!Value.compare}): [Int 1] and [Float 1.0] share a class, every NaN
     shares a class, the signed zeros share a class.  Joins, set-semantic
     dedup and subsumption — everywhere the boxed path consulted
     [Value.equal]/[Value.hash] — compare class ids instead.

   The class of an id is the id of the first-interned member of its
   equivalence class, so [class_of] is idempotent and [Null]'s class is
   {!null_id}.

   Concurrency: the pool is process-global and written under one mutex.
   Reads ([resolve]/[class_of]) are lock-free against chunked storage —
   chunks are never moved once allocated, only the chunk directory grows
   (by replacement, so a stale directory still resolves every id it ever
   covered).  Ids only travel between domains through synchronized
   channels (Par joins), which publishes the writes behind them. *)

let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

module Struct_key = struct
  type t = Value.t

  let equal a b =
    match (a, b) with
    | Value.Null, Value.Null -> true
    | Value.Int a, Value.Int b -> Int.equal a b
    | Value.Bool a, Value.Bool b -> Bool.equal a b
    | Value.String a, Value.String b -> String.equal a b
    | Value.Float a, Value.Float b ->
        Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
    | _ -> false

  let hash = function
    | Value.Null -> 17
    | Value.Int i -> Hashtbl.hash (1, i)
    | Value.Float f -> Hashtbl.hash (2, Int64.bits_of_float f)
    | Value.String s -> Hashtbl.hash (3, s)
    | Value.Bool b -> Hashtbl.hash (4, b)
end

module Struct_tbl = Hashtbl.Make (Struct_key)

type pool = {
  mutable values : Value.t array array;
  mutable classes : int array array;
  (* Flat sort keys making {!compare_resolved} array-read cheap: [tags]
     holds {!Value.rank} (0 null / 1 bool / 2 numeric / 3 string), [nums]
     the float image of numerics and bools.  Ties fall back to the boxed
     compare, which keeps large-int precision and string order exact. *)
  mutable tags : Bytes.t array;
  mutable nums : float array array;
  mutable count : int;
  (* Approximate retained footprint: a fixed per-id charge for the chunk
     slots and hashtable entries, plus string payload bytes.  Maintained
     incrementally so a scrape never walks the table. *)
  mutable bytes : int;
  (* Set the first time an id's class differs from the id itself ([Int 1]
     then [Float 1.0]); until then class columns are identity. *)
  mutable aliased : bool;
  ids : int Struct_tbl.t;
  class_ids : int Value.Table.t;
  lock : Mutex.t;
}

let null_id = 0

(* Per-id retained cost: two chunk slots (value + class word), the tag
   byte and num float, and the two hashtable entries (struct + class key)
   — call it 64 bytes of fixed overhead — plus the string payload, the
   only per-value allocation whose size varies. *)
let bytes_of v =
  64 + (match v with Value.String s -> String.length s | _ -> 0)

let pool =
  let p =
    {
      values = Array.make 16 [||];
      classes = Array.make 16 [||];
      tags = Array.make 16 Bytes.empty;
      nums = Array.make 16 [||];
      count = 0;
      bytes = 0;
      aliased = false;
      ids = Struct_tbl.create 1024;
      class_ids = Value.Table.create 1024;
      lock = Mutex.create ();
    }
  in
  p.values.(0) <- Array.make chunk_size Value.Null;
  p.classes.(0) <- Array.make chunk_size 0;
  p.tags.(0) <- Bytes.make chunk_size '\000';
  p.nums.(0) <- Array.make chunk_size 0.;
  (* Null is always id 0 (and class 0): a column cell is null iff it is 0. *)
  Struct_tbl.add p.ids Value.Null 0;
  Value.Table.add p.class_ids Value.Null 0;
  p.count <- 1;
  p.bytes <- bytes_of Value.Null;
  p

let ensure_chunk chunk =
  if chunk >= Array.length pool.values then begin
    let cap = ref (Array.length pool.values) in
    while chunk >= !cap do
      cap := !cap * 2
    done;
    let values = Array.make !cap [||] in
    Array.blit pool.values 0 values 0 (Array.length pool.values);
    let classes = Array.make !cap [||] in
    Array.blit pool.classes 0 classes 0 (Array.length pool.classes);
    let tags = Array.make !cap Bytes.empty in
    Array.blit pool.tags 0 tags 0 (Array.length pool.tags);
    let nums = Array.make !cap [||] in
    Array.blit pool.nums 0 nums 0 (Array.length pool.nums);
    (* Publish the new directories only after the blits: a concurrent
       reader sees either directory, both complete for every issued id. *)
    pool.values <- values;
    pool.classes <- classes;
    pool.tags <- tags;
    pool.nums <- nums
  end;
  if Array.length pool.values.(chunk) = 0 then begin
    pool.values.(chunk) <- Array.make chunk_size Value.Null;
    pool.classes.(chunk) <- Array.make chunk_size 0;
    pool.tags.(chunk) <- Bytes.make chunk_size '\000';
    pool.nums.(chunk) <- Array.make chunk_size 0.
  end

let intern_locked v =
  match Struct_tbl.find_opt pool.ids v with
  | Some id -> id
  | None ->
      let id = pool.count in
      let chunk = id lsr chunk_bits and off = id land chunk_mask in
      ensure_chunk chunk;
      pool.values.(chunk).(off) <- v;
      let cls =
        match Value.Table.find_opt pool.class_ids v with
        | Some c -> c
        | None ->
            Value.Table.add pool.class_ids v id;
            id
      in
      pool.classes.(chunk).(off) <- cls;
      if cls <> id then pool.aliased <- true;
      Bytes.set pool.tags.(chunk) off (Char.chr (Value.rank v));
      pool.nums.(chunk).(off) <-
        (match v with
        | Value.Int i -> float_of_int i
        | Value.Float f -> f
        | Value.Bool b -> if b then 1. else 0.
        | Value.Null | Value.String _ -> 0.);
      Struct_tbl.add pool.ids v id;
      pool.count <- id + 1;
      pool.bytes <- pool.bytes + bytes_of v;
      id

let intern v = Mutex.protect pool.lock (fun () -> intern_locked v)

let intern_tuple t =
  Mutex.protect pool.lock (fun () -> Array.map intern_locked t)

let intern_rows rows ~arity =
  Mutex.protect pool.lock (fun () ->
      let n = Array.length rows in
      Array.init arity (fun c ->
          Array.init n (fun i -> intern_locked rows.(i).(c))))

let find_class v =
  Mutex.protect pool.lock (fun () -> Value.Table.find_opt pool.class_ids v)

let resolve id = pool.values.(id lsr chunk_bits).(id land chunk_mask)
let class_of id = pool.classes.(id lsr chunk_bits).(id land chunk_mask)
let is_null id = id = 0
let size () = Mutex.protect pool.lock (fun () -> pool.count)
let count = size
let footprint_bytes () = Mutex.protect pool.lock (fun () -> pool.bytes)

let classes_trivial () = not pool.aliased

let sort_key id =
  ( Bytes.get pool.tags.(id lsr chunk_bits) (id land chunk_mask),
    pool.nums.(id lsr chunk_bits).(id land chunk_mask) )

(* Total on interned ids in the Value.compare sense; 0 exactly for
   class-equal ids (compare's kernel is Value.equal is the class
   relation).  The flat tag/num keys decide almost every comparison with
   three array reads; ties (class-equal ids, floats colliding with large
   ints, same-rank strings) fall back to the exact boxed compare. *)
let compare_resolved a b =
  if a = b then 0
  else
    let ta = Bytes.get pool.tags.(a lsr chunk_bits) (a land chunk_mask)
    and tb = Bytes.get pool.tags.(b lsr chunk_bits) (b land chunk_mask) in
    if ta <> tb then Char.compare ta tb
    else if ta = '\003' then Value.compare (resolve a) (resolve b)
    else
      let c =
        Float.compare
          pool.nums.(a lsr chunk_bits).(a land chunk_mask)
          pool.nums.(b lsr chunk_bits).(b land chunk_mask)
      in
      if c <> 0 then c else Value.compare (resolve a) (resolve b)
