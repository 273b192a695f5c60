(* Shared batch kernels over interned int columns.

   A "column set" here is [int array array]: one int array per attribute,
   all of equal length (the row count), each cell a {!Value_pool}
   structural id (0 = null).  Wherever rows must be *compared* — dedup,
   join keys, subsumption — kernels first map cells through
   {!Value_pool.class_of} so that the comparison agrees with
   [Value.equal], exactly as the boxed path's [Value.Table]-keyed
   hashtables did. *)

(* Growable int buffer for building output columns row by row. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable len : int }

  let create capacity = { a = Array.make (max capacity 16) 0; len = 0 }

  let push b x =
    if b.len = Array.length b.a then begin
      let a = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1

  let contents b = Array.sub b.a 0 b.len
end

(* While the pool has no cross-constructor aliases, class ids equal
   structural ids and the input arrays are returned as-is (callers treat
   class columns as read-only). *)
let class_column col =
  if Value_pool.classes_trivial () then col
  else Array.map Value_pool.class_of col

let class_columns cols =
  if Value_pool.classes_trivial () then cols else Array.map class_column cols

let nrows cols = if Array.length cols = 0 then 0 else Array.length cols.(0)

(* Hash of row [i] over class columns; mixing mirrors no particular boxed
   hash — it only keys internal tables. *)
let row_hash cls i =
  let h = ref 7 in
  for c = 0 to Array.length cls - 1 do
    h := (!h * 31) + cls.(c).(i)
  done;
  !h land max_int

let rows_equal cls i j =
  let k = Array.length cls in
  let rec go c = c = k || (cls.(c).(i) = cls.(c).(j) && go (c + 1)) in
  go 0

(* Indices of rows to keep under set semantics (first occurrence wins, as
   in the boxed [Tuple_tbl] dedup); [None] when already duplicate-free so
   callers can reuse the input columns as-is. *)
let dedup_keep_first cols =
  let n = nrows cols in
  let cls = class_columns cols in
  (* Open-addressing set of kept rows keyed by row hash: slots hold
     row index + 1 (0 = empty), linear probing.  Flat int arrays keep
     the million-row dedup allocation-free. *)
  let cap =
    let rec up c = if c >= 2 * (n + 1) then c else up (2 * c) in
    up 16
  in
  let mask = cap - 1 in
  let slots = Array.make cap 0 in
  let keep = Ibuf.create n in
  let dropped = ref false in
  (* [row_hash] is nearly sequential on dense id columns; without a
     finalizer, linear probing degrades to giant primary clusters. *)
  let mix h =
    let h = h lxor (h lsr 31) in
    let h = h * 0x2545F4914F6CDD1D in
    (h lsr 16) land max_int
  in
  for i = 0 to n - 1 do
    let s = ref (mix (row_hash cls i) land mask) in
    let continue = ref true in
    while !continue do
      match slots.(!s) with
      | 0 ->
          slots.(!s) <- i + 1;
          Ibuf.push keep i;
          continue := false
      | j1 ->
          if rows_equal cls i (j1 - 1) then begin
            dropped := true;
            continue := false
          end
          else s := (!s + 1) land mask
    done
  done;
  if !dropped then Some (Ibuf.contents keep) else None

(* Select rows (by index, in order) out of a column set. *)
let gather cols rows =
  Array.map (fun col -> Array.map (fun i -> col.(i)) rows) cols

(* Vertical concatenation of column sets sharing one arity. *)
let concat sets =
  match sets with
  | [] -> [||]
  | first :: _ ->
      let arity = Array.length first in
      Array.init arity (fun c ->
          Array.concat (List.map (fun cols -> cols.(c)) sets))

(* Integer sort keys of column 0 when every cell has one: null, then
   false and true, then each integral numeric in [-2^62, 2^62] as its own
   value, except that 2^62 (one past max_int) keys as max_int and -2^62
   as [true] does.  The map is monotone in Value.compare and class-equal
   cells collide (Int 3 / Float 3.0, -0. / 0.).  So do ints beyond 2^53
   whose float images coincide, and the two ends with their neighbours;
   the comparator settles every collision.  Strings, fractions, NaN and
   the infinities have no key, and then neither does the column. *)
let int_keys tag0 num0 n =
  let keys = Array.make n 0 in
  let rec go i =
    i = n
    || (match Bytes.get tag0 i with
       | '\000' ->
           keys.(i) <- min_int;
           true
       | '\001' ->
           keys.(i) <- min_int + 1 + int_of_float num0.(i);
           true
       | '\002' ->
           let f = num0.(i) in
           Float.is_integer f
           && Float.abs f <= 0x1p62
           &&
           (keys.(i) <-
              (if f = 0x1p62 then max_int else max (min_int + 2) (int_of_float f));
            true)
       | _ -> false)
       && go (i + 1)
  in
  if go 0 then Some keys else None

(* Row indices stably ordered by [keys], read as unsigned offsets from
   their minimum, with an LSD radix sort over flat int arrays.  The digit
   width grows with the row count, so a key range about as wide as the
   row count (shuffled ids) takes one counting pass.  Returns the
   indices and their offsets in that order. *)
let radix_sort keys =
  let n = Array.length keys in
  let lo = Array.fold_left min max_int keys in
  let span = Array.fold_left (fun acc k -> acc lor (k - lo)) 0 keys in
  let bits_of x =
    let rec go b = if b >= Sys.int_size || x lsr b = 0 then b else go (b + 1) in
    go 0
  in
  let bits = bits_of span in
  let src_i = ref (Array.init n Fun.id)
  and src_k = ref (Array.map (fun k -> k - lo) keys) in
  if bits > 0 then begin
    let width = max 8 (min 16 (bits_of n + 1)) in
    let passes = (bits + width - 1) / width in
    let width = (bits + passes - 1) / passes in
    let mask = (1 lsl width) - 1 in
    let count = Array.make (mask + 2) 0 in
    let dst_i = ref (Array.make n 0) and dst_k = ref (Array.make n 0) in
    for p = 0 to passes - 1 do
      let shift = p * width in
      Array.fill count 0 (mask + 2) 0;
      let sk = !src_k and si = !src_i and dk = !dst_k and di = !dst_i in
      for i = 0 to n - 1 do
        let d = ((sk.(i) lsr shift) land mask) + 1 in
        count.(d) <- count.(d) + 1
      done;
      for d = 1 to mask + 1 do
        count.(d) <- count.(d) + count.(d - 1)
      done;
      for i = 0 to n - 1 do
        let d = (sk.(i) lsr shift) land mask in
        let at = count.(d) in
        count.(d) <- at + 1;
        di.(at) <- si.(i);
        dk.(at) <- sk.(i)
      done;
      src_i := di;
      src_k := dk;
      dst_i := si;
      dst_k := sk
    done
  end;
  (!src_i, !src_k)

(* [idx.(s .. e-1)] stably sorted by [cmp]. *)
let sort_slice cmp idx s e =
  if e - s <= 16 then
    for i = s + 1 to e - 1 do
      let x = idx.(i) in
      let j = ref (i - 1) in
      while !j >= s && cmp idx.(!j) x > 0 do
        idx.(!j + 1) <- idx.(!j);
        decr j
      done;
      idx.(!j + 1) <- x
    done
  else begin
    let part = Array.sub idx s (e - s) in
    Array.stable_sort cmp part;
    Array.blit part 0 idx s (e - s)
  end

(* Rows in Value.compare order, column-major left to right — the columnar
   image of sorting boxed tuples with [Tuple.compare].  The comparator has
   no ties on deduplicated inputs (compare's kernel is the class
   relation), so every path below is deterministic there. *)
let sort_rows_canonical cols =
  let n = nrows cols in
  let arity = Array.length cols in
  if n <= 1 || arity = 0 then cols
  else begin
    (* Column 0 decides almost every comparison; its flat sort keys are
       extracted once so the comparator's hot path is two array reads
       instead of pool lookups.  Key ties fall back to the exact
       id-level compare, column by column. *)
    let c0 = cols.(0) in
    let tag0 = Bytes.create n and num0 = Array.make n 0. in
    for i = 0 to n - 1 do
      let t, f = Value_pool.sort_key c0.(i) in
      Bytes.set tag0 i t;
      num0.(i) <- f
    done;
    let rest i j =
      let rec go c =
        if c = arity then 0
        else
          let d = Value_pool.compare_resolved cols.(c).(i) cols.(c).(j) in
          if d <> 0 then d else go (c + 1)
      in
      go 1
    in
    let cmp i j =
      let a = c0.(i) and b = c0.(j) in
      let d =
        if a = b then 0
        else
          let ct = Char.compare (Bytes.get tag0 i) (Bytes.get tag0 j) in
          if ct <> 0 then ct
          else
            let cf = Float.compare num0.(i) num0.(j) in
            if cf <> 0 then cf else Value_pool.compare_resolved a b
      in
      if d <> 0 then d else rest i j
    in
    (* Sortedness structure: a join's output is as sorted as its left
       input, and category unions are a handful of sorted runs
       concatenated.  One O(n) scan finds the run boundaries; one run is
       a no-op, a few runs bottom-up merge in O(n log runs).  On
       deduplicated input the comparator has no ties (dedup is
       class-wise and the comparator's kernel is the class relation), so
       the merge result coincides with a full sort. *)
    let starts = Ibuf.create 8 in
    Ibuf.push starts 0;
    for i = 1 to n - 1 do
      if cmp (i - 1) i > 0 then Ibuf.push starts i
    done;
    let bounds = Ibuf.contents starts in
    let runs = Array.length bounds in
    if runs = 1 then cols
    else if runs <= 64 then begin
      let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
      let bounds = ref (Array.to_list bounds @ [ n ]) in
      while List.length !bounds > 2 do
        let rec pass acc = function
          | a :: b :: c :: rest ->
              (* merge src[a..b) and src[b..c) into dst[a..c) *)
              let i = ref a and j = ref b and k = ref a in
              while !i < b && !j < c do
                if cmp !src.(!i) !src.(!j) <= 0 then begin
                  !dst.(!k) <- !src.(!i);
                  incr i
                end
                else begin
                  !dst.(!k) <- !src.(!j);
                  incr j
                end;
                incr k
              done;
              while !i < b do
                !dst.(!k) <- !src.(!i);
                incr i;
                incr k
              done;
              while !j < c do
                !dst.(!k) <- !src.(!j);
                incr j;
                incr k
              done;
              pass (c :: acc) (c :: rest)
          | [ a; b ] ->
              Array.blit !src a !dst a (b - a);
              pass (b :: acc) [ b ]
          | [ _ ] | [] -> List.rev acc
        in
        bounds := pass [ List.hd !bounds ] !bounds;
        let t = !src in
        src := !dst;
        dst := t
      done;
      gather cols !src
    end
    else
      match int_keys tag0 num0 n with
      | Some keys ->
          (* Many runs over an integer column 0 (a base relation's
             shuffled ids, a join led by one): a stable radix sort by
             its keys, then each run of equal keys settled by the exact
             comparator. *)
          let idx, sorted = radix_sort keys in
          let s = ref 0 in
          for i = 1 to n do
            if i = n || sorted.(i) <> sorted.(!s) then begin
              if i - !s > 1 then sort_slice cmp idx !s i;
              s := i
            end
          done;
          gather cols idx
      | None ->
          let idx = Array.init n Fun.id in
          Array.sort cmp idx;
          gather cols idx
  end

(* Row indices grouped by cell value — the columnar counterpart of the
   boxed per-column [Value.Table] indexes.  When the value space is dense
   relative to the row count (the common case: class ids from a pool the
   rows themselves populated) the groups are built by counting sort over
   flat int arrays — two passes, no hashing, no per-row allocation.  A
   hashtable fallback covers sparse ids (a small relation over a huge
   pool).  Value 0 (null) is never indexed. *)
module Buckets = struct
  type t = {
    rows : int array;  (* row indices, grouped by value, ascending within a group *)
    base : int;  (* dense: smallest indexed value; starts is offset by it *)
    starts : int array;  (* dense: group of [v] is rows.[starts.(v-base) .. starts.(v-base+1)) *)
    table : (int, int * int) Hashtbl.t option;  (* sparse: value -> (start, len) *)
  }

  let make col =
    let n = Array.length col in
    let minv = ref max_int and maxv = ref 0 and nonnull = ref 0 in
    for i = 0 to n - 1 do
      let v = col.(i) in
      if v <> 0 then begin
        incr nonnull;
        if v > !maxv then maxv := v;
        if v < !minv then minv := v
      end
    done;
    let base = if !nonnull = 0 then 1 else !minv in
    let width = !maxv - base + 2 in
    if width <= (4 * n) + 1024 then begin
      let starts = Array.make (max width 2) 0 in
      Array.iter
        (fun v -> if v <> 0 then starts.(v - base + 1) <- starts.(v - base + 1) + 1)
        col;
      for k = 1 to Array.length starts - 1 do
        starts.(k) <- starts.(k) + starts.(k - 1)
      done;
      let cursor = Array.copy starts in
      let rows = Array.make !nonnull 0 in
      Array.iteri
        (fun i v ->
          if v <> 0 then begin
            rows.(cursor.(v - base)) <- i;
            cursor.(v - base) <- cursor.(v - base) + 1
          end)
        col;
      { rows; base; starts; table = None }
    end
    else begin
      let counts = Hashtbl.create 64 in
      Array.iter
        (fun v ->
          if v <> 0 then
            Hashtbl.replace counts v
              (1 + Option.value (Hashtbl.find_opt counts v) ~default:0))
        col;
      let table = Hashtbl.create (Hashtbl.length counts) in
      let next = ref 0 in
      Hashtbl.iter
        (fun v c ->
          Hashtbl.replace table v (!next, c);
          next := !next + c)
        counts;
      let cursor = Hashtbl.copy table in
      let rows = Array.make !nonnull 0 in
      Array.iteri
        (fun i v ->
          if v <> 0 then begin
            let start, len = Hashtbl.find cursor v in
            rows.(start) <- i;
            Hashtbl.replace cursor v (start + 1, len)
          end)
        col;
      { rows; base = 0; starts = [||]; table = Some table }
    end

  (* (start, len) of [v]'s group within [rows t]; (0, 0) if absent. *)
  let span t v =
    match t.table with
    | Some table -> (
        match Hashtbl.find_opt table v with Some s -> s | None -> (0, 0))
    | None ->
        let k = v - t.base in
        if v <= 0 || k < 0 || k + 1 >= Array.length t.starts then (0, 0)
        else (t.starts.(k), t.starts.(k + 1) - t.starts.(k))

  let count t v = snd (span t v)
  let rows t = t.rows
end

(* Per-row non-null bitmask over class/structural columns (null iff cell
   0, in either representation).  Column [c] sets bit [c mod
   mask_arity_limit]: the exact null pattern up to that many columns, a
   folded one (sound as a subset prefilter) beyond. *)
let mask_arity_limit = Sys.int_size - 2

let nonnull_masks cols =
  let n = nrows cols in
  let arity = Array.length cols in
  let masks = Array.make n 0 in
  for c = 0 to arity - 1 do
    let col = cols.(c) and bit = 1 lsl (c mod mask_arity_limit) in
    for i = 0 to n - 1 do
      if col.(i) <> 0 then masks.(i) <- masks.(i) lor bit
    done
  done;
  masks
