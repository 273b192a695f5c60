(* Every table goes through one writer.  A measuring pass takes column
   widths (in bytes); from them [plan] builds the separator and one blank
   template line, so every data line has the same length and the same
   '|' offsets.  The fill pass blits the template once per row and writes
   each cell at its precomputed column offset: an int's digits and a
   string's bytes go straight into the buffer, so rendering allocates
   nothing per cell.  The layout, with no trailing newline:

     +-----+-----+
     | h1  | h2  |
     +-----+-----+
     | c11 | c12 |
     +-----+-----+

   A row shorter than the widest one is padded with empty cells.  The
   server's digest is the MD5 of [relation]'s text, so these bytes are a
   wire contract. *)

(* Where a table's rows come from.  [Text] rows may be ragged; [Tuples]
   and [Columns] rows have the header's arity, which {!Relation}'s
   builders check.  A columnar relation is read through {!Value_pool}
   ids and never boxed. *)
type rows =
  | Text of string array array
  | Tuples of Tuple.t array
  | Columns of int array array * int  (* id columns, row count *)

type plan = {
  title : string option;
  header : string array;
  rows : rows;
  offs : int array;  (* cell offsets within a line, from its newline *)
  line : Bytes.t;  (* the blank template: "\n|  …  |  …  |" *)
  sep : string;  (* "+-----+-----+" *)
  len : int;  (* bytes of the whole text *)
}

let min_int_width = String.length (string_of_int min_int)

(* Decimal digits of [i], sign included: [string_of_int]'s length. *)
let int_width i =
  let rec digits n =
    if n < 10 then 1
    else if n < 100 then 2
    else if n < 1000 then 3
    else if n < 10000 then 4
    else 4 + digits (n / 10000)
  in
  if i >= 0 then digits i else if i = min_int then min_int_width else 1 + digits (-i)

(* [Value.to_string]'s length; only floats go through it. *)
let value_width (v : Value.t) =
  match v with
  | Null -> 4
  | Int i -> int_width i
  | String s -> String.length s
  | Bool b -> if b then 4 else 5
  | Float _ -> String.length (Value.to_string v)

(* The writes below are unchecked: [plan] sized the buffer and the
   template from the same widths the cells are written at, and [fill]
   asserts the total. *)
external get64 : string -> int -> int64 = "%caml_string_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external get16 : string -> int -> int = "%caml_string_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

(* A short cell is copied a word at a time, inline: cheaper than the C
   call of a blit. *)
let put_string buf pos s =
  let n = String.length s in
  if n > 32 then Bytes.unsafe_blit_string s 0 buf pos n
  else begin
    let k = ref 0 in
    while !k + 8 <= n do
      set64 buf (pos + !k) (get64 s !k);
      k := !k + 8
    done;
    for j = !k to n - 1 do
      Bytes.unsafe_set buf (pos + j) (String.unsafe_get s j)
    done
  end

(* "00" to "99": an int below 10000 is written as two-digit pairs. *)
let pairs = String.init 200 (fun k -> Char.chr (48 + if k land 1 = 0 then k / 20 else k / 2 mod 10))

let put_pair buf pos d = set16 buf pos (get16 pairs (2 * d))
let put_digit buf pos d = Bytes.unsafe_set buf pos (Char.unsafe_chr (48 + d))

let put_int buf pos i =
  if i >= 0 && i < 10000 then begin
    (* Most keys: the digits straight, with no width to compute. *)
    if i < 10 then put_digit buf pos i
    else if i < 100 then put_pair buf pos i
    else if i < 1000 then begin
      put_digit buf pos (i / 100);
      put_pair buf (pos + 1) (i mod 100)
    end
    else begin
      put_pair buf pos (i / 100);
      put_pair buf (pos + 2) (i mod 100)
    end
  end
  else begin
    (* Digits from the right, on the non-positive side, where [min_int]
       fits too. *)
    let n = ref (if i < 0 then i else -i) in
    for k = pos + int_width i - 1 downto pos + Bool.to_int (i < 0) do
      Bytes.unsafe_set buf k (Char.unsafe_chr (48 - (!n mod 10)));
      n := !n / 10
    done;
    if i < 0 then Bytes.unsafe_set buf pos '-'
  end

let put_value buf pos (v : Value.t) =
  match v with
  | Null ->
      Bytes.unsafe_set buf pos 'n';
      Bytes.unsafe_set buf (pos + 1) 'u';
      Bytes.unsafe_set buf (pos + 2) 'l';
      Bytes.unsafe_set buf (pos + 3) 'l'
  | Int i -> put_int buf pos i
  | String s -> put_string buf pos s
  | Bool _ | Float _ -> put_string buf pos (Value.to_string v)

let widen (widths : int array) c (w : int) =
  if w > Array.unsafe_get widths c then Array.unsafe_set widths c w

let measure header rows =
  let ncols =
    match rows with
    | Text a -> Array.fold_left (fun m r -> Int.max m (Array.length r)) (Array.length header) a
    | Tuples _ | Columns _ -> Array.length header
  in
  let widths = Array.make ncols 0 in
  Array.iteri (fun c h -> widths.(c) <- String.length h) header;
  (match rows with
  | Text a -> Array.iter (Array.iteri (fun c s -> widen widths c (String.length s))) a
  | Tuples a ->
      Array.iter
        (fun t ->
          for c = 0 to ncols - 1 do
            widen widths c (value_width t.(c))
          done)
        a
  | Columns (cols, n) ->
      for c = 0 to ncols - 1 do
        let col = cols.(c) in
        for i = 0 to n - 1 do
          widen widths c (value_width (Value_pool.resolve (Array.unsafe_get col i)))
        done
      done);
  widths

let nrows = function
  | Text a -> Array.length a
  | Tuples a -> Array.length a
  | Columns (_, n) -> n

let plan ?title header rows =
  let widths = measure header rows in
  let ncols = Array.length widths in
  let offs = Array.make ncols 0 in
  let p = ref 3 in
  Array.iteri
    (fun c w ->
      offs.(c) <- !p;
      p := !p + w + 3)
    widths;
  (* "\n|" then " cell |" per column; with no columns, "\n|  |". *)
  let line_len = if ncols = 0 then 5 else !p - 1 in
  let line = Bytes.make line_len ' ' in
  Bytes.set line 0 '\n';
  Bytes.set line 1 '|';
  Bytes.set line (line_len - 1) '|';
  Array.iteri (fun c w -> Bytes.set line (offs.(c) + w + 1) '|') widths;
  let sep =
    if ncols = 0 then "++"
    else
      String.init (line_len - 1) (fun k ->
          match Bytes.get line (k + 1) with '|' -> '+' | _ -> '-')
  in
  let title_len = match title with None -> 0 | Some s -> String.length s + 1 in
  let sep_len = String.length sep in
  {
    title;
    header;
    rows;
    offs;
    line;
    sep;
    len = title_len + (3 * sep_len) + 2 + ((nrows rows + 1) * line_len);
  }

(* Write [p]'s text into [buf] from offset 0 ([buf] holds at least
   [p.len] bytes). *)
let fill p buf =
  assert (Bytes.length buf >= p.len);
  let ll = Bytes.length p.line and offs = p.offs in
  let ncols = Array.length offs in
  let pos =
    match p.title with
    | None -> 0
    | Some s ->
        put_string buf 0 s;
        Bytes.unsafe_set buf (String.length s) '\n';
        String.length s + 1
  in
  let sep pos =
    put_string buf pos p.sep;
    pos + String.length p.sep
  in
  let text pos cells =
    Bytes.unsafe_blit p.line 0 buf pos ll;
    Array.iteri (fun c s -> put_string buf (pos + offs.(c)) s) cells;
    pos + ll
  in
  let newline_sep pos =
    Bytes.unsafe_set buf pos '\n';
    sep (pos + 1)
  in
  let pos = ref (newline_sep (text (sep pos) p.header)) in
  (match p.rows with
  | Text a -> Array.iter (fun cells -> pos := text !pos cells) a
  | Tuples a ->
      Array.iter
        (fun t ->
          let at = !pos in
          Bytes.unsafe_blit p.line 0 buf at ll;
          for c = 0 to ncols - 1 do
            put_value buf (at + Array.unsafe_get offs c) t.(c)
          done;
          pos := at + ll)
        a
  | Columns (cols, n) ->
      for i = 0 to n - 1 do
        let at = !pos in
        Bytes.unsafe_blit p.line 0 buf at ll;
        for c = 0 to ncols - 1 do
          put_value buf
            (at + Array.unsafe_get offs c)
            (Value_pool.resolve (Array.unsafe_get (Array.unsafe_get cols c) i))
        done;
        pos := at + ll
      done);
  assert (newline_sep !pos = p.len)

let to_string p =
  let buf = Bytes.create p.len in
  fill p buf;
  Bytes.unsafe_to_string buf

let table ~header rows =
  to_string
    (plan (Array.of_list header) (Text (Array.of_list (List.map Array.of_list rows))))

let headers_of ?qualified schema =
  let multi = List.length (Schema.rels schema) > 1 in
  let qualified = Option.value qualified ~default:multi in
  Array.map
    (fun a -> if qualified then Attr.to_string a else a.Attr.name)
    (Schema.attrs schema)

let relation_plan ?qualified r =
  plan ~title:(Relation.name r)
    (headers_of ?qualified (Relation.schema r))
    (match Relation.view r with
    | Relation.Boxed a -> Tuples a
    | Relation.Columns cols -> Columns (cols, Relation.cardinality r))

let relation ?qualified r = to_string (relation_plan ?qualified r)

(* [digest] renders into a buffer its domain keeps between calls, so a
   served evaluate allocates no text.  A buffer is kept only up to
   [digest_buffer_cap]; a larger text gets a transient buffer, so one huge
   relation does not pin memory in every worker domain.  A call takes the
   buffer out of its slot while it writes: another thread of the same
   domain digesting meanwhile finds the slot empty and uses its own. *)
let digest_buffer_cap = 1 lsl 20
let kept_buffer = Domain.DLS.new_key (fun () -> ref Bytes.empty)
let digest_buffer_bytes () = Bytes.length !(Domain.DLS.get kept_buffer)

let digest r =
  let p = relation_plan r in
  if p.len > digest_buffer_cap then Digest.to_hex (Digest.string (to_string p))
  else begin
    let slot = Domain.DLS.get kept_buffer in
    let buf = !slot in
    slot := Bytes.empty;
    let buf =
      if Bytes.length buf >= p.len then buf
      else Bytes.create (Int.min digest_buffer_cap (Int.max p.len (2 * Bytes.length buf)))
    in
    fill p buf;
    let d = Digest.subbytes buf 0 p.len in
    slot := buf;
    Digest.to_hex d
  end

let annotated ?qualified ~annot_header rows schema =
  to_string
    (plan
       (Array.append [| annot_header |] (headers_of ?qualified schema))
       (Text
          (Array.of_list
             (List.map
                (fun (annot, t) -> Array.append [| annot |] (Array.map Value.to_string t))
                rows))))
