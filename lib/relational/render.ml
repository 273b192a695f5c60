(* Every table goes through [write], which takes column widths (in
   bytes) from one measuring pass and writes the text into one buffer of
   exactly the right size.  Cells are written in place: an int's digits
   and a string's bytes go straight into the buffer, so rendering a
   relation allocates nothing per cell.  The layout, with no trailing
   newline:

     +-----+-----+
     | h1  | h2  |
     +-----+-----+
     | c11 | c12 |
     +-----+-----+

   A row shorter than the widest one is padded with empty cells.  The
   server's digest is the MD5 of [relation]'s text, so these bytes are a
   wire contract. *)

(* How the rows of one table yield their cells: how many a row has, how
   wide cell [i] is, and how to write it at a buffer position ([put]
   returns the bytes written, which is the cell's width). *)
type 'row cells = {
  count : 'row -> int;
  width : 'row -> int -> int;
  put : Bytes.t -> int -> 'row -> int -> int;
}

let put_string buf pos s =
  Bytes.blit_string s 0 buf pos (String.length s);
  String.length s

let strings =
  {
    count = Array.length;
    width = (fun r i -> String.length r.(i));
    put = (fun buf pos r i -> put_string buf pos r.(i));
  }

(* Decimal digits of [i], sign included: [string_of_int]'s length. *)
let int_width i =
  let rec digits n = if n < 10 then 1 else if n < 100 then 2 else 2 + digits (n / 100) in
  if i >= 0 then digits i
  else if i = min_int then String.length (string_of_int min_int)
  else 1 + digits (-i)

let put_int buf pos i =
  let w = int_width i in
  (* Digits from the right, on the non-positive side, where [min_int]
     fits too. *)
  let n = ref (if i < 0 then i else -i) in
  for k = pos + w - 1 downto pos + Bool.to_int (i < 0) do
    Bytes.set buf k (Char.unsafe_chr (48 - (!n mod 10)));
    n := !n / 10
  done;
  if i < 0 then Bytes.set buf pos '-';
  w

(* [Value.to_string]'s length and bytes; only floats go through it. *)
let value_width (v : Value.t) =
  match v with
  | Null -> 4
  | Int i -> int_width i
  | String s -> String.length s
  | Bool b -> if b then 4 else 5
  | Float _ -> String.length (Value.to_string v)

let put_value buf pos (v : Value.t) =
  match v with
  | Int i -> put_int buf pos i
  | String s -> put_string buf pos s
  | Null | Bool _ | Float _ -> put_string buf pos (Value.to_string v)

let values =
  {
    count = Array.length;
    width = (fun t i -> value_width t.(i));
    put = (fun buf pos t i -> put_value buf pos t.(i));
  }

(* A leading annotation string, then the tuple's values. *)
let annotated_cells =
  {
    count = (fun (_, t) -> Array.length t + 1);
    width =
      (fun (annot, t) i ->
        if i = 0 then String.length annot else value_width t.(i - 1));
    put =
      (fun buf pos (annot, t) i ->
        if i = 0 then put_string buf pos annot else put_value buf pos t.(i - 1));
  }

let pad buf pos n c =
  for k = pos to pos + n - 1 do
    Bytes.set buf k c
  done;
  pos + n

(* One framed line at [pos], starting with its newline; returns the
   position after it. *)
let put_line cells widths buf pos row =
  let ncols = Array.length widths in
  let n = cells.count row in
  Bytes.set buf pos '\n';
  Bytes.set buf (pos + 1) '|';
  let pos = ref (pos + 2) in
  for i = 0 to ncols - 1 do
    Bytes.set buf !pos ' ';
    let w = if i < n then cells.put buf (!pos + 1) row i else 0 in
    pos := pad buf (!pos + 1 + w) (widths.(i) - w + 1) ' ';
    Bytes.set buf !pos '|';
    incr pos
  done;
  if ncols = 0 then begin
    let p = pad buf !pos 2 ' ' in
    Bytes.set buf p '|';
    p + 1
  end
  else !pos

let write ?title cells header rows =
  let ncols =
    Array.fold_left (fun m r -> max m (cells.count r)) (Array.length header) rows
  in
  let widths = Array.make ncols 0 in
  Array.iteri (fun i h -> widths.(i) <- String.length h) header;
  Array.iter
    (fun r ->
      for i = 0 to cells.count r - 1 do
        let w = cells.width r i in
        if w > widths.(i) then widths.(i) <- w
      done)
    rows;
  let inner = Array.fold_left ( + ) 0 widths + (3 * ncols) + 1 in
  let line_len = if ncols = 0 then 4 else inner in
  let sep_len = if ncols = 0 then 2 else inner in
  let nrows = Array.length rows in
  let title_len =
    match title with None -> 0 | Some s -> String.length s + 1
  in
  let buf =
    Bytes.create
      (title_len + (3 * sep_len) + ((nrows + 1) * line_len) + nrows + 3)
  in
  let pos =
    match title with
    | None -> 0
    | Some s ->
        let p = put_string buf 0 s in
        Bytes.set buf p '\n';
        p + 1
  in
  let sep_at = pos in
  Bytes.set buf pos '+';
  let pos =
    Array.fold_left
      (fun pos w ->
        let pos = pad buf pos (w + 2) '-' in
        Bytes.set buf pos '+';
        pos + 1)
      (pos + 1) widths
  in
  let pos =
    if ncols = 0 then begin
      Bytes.set buf pos '+';
      pos + 1
    end
    else pos
  in
  let sep pos =
    Bytes.set buf pos '\n';
    Bytes.blit buf sep_at buf (pos + 1) sep_len;
    pos + 1 + sep_len
  in
  let pos = sep (put_line strings widths buf pos header) in
  let pos = ref pos in
  for r = 0 to nrows - 1 do
    pos := put_line cells widths buf !pos rows.(r)
  done;
  let pos = sep !pos in
  assert (pos = Bytes.length buf);
  Bytes.unsafe_to_string buf

let table ~header rows =
  write strings (Array.of_list header)
    (Array.of_list (List.map Array.of_list rows))

let headers_of ?qualified schema =
  let multi = List.length (Schema.rels schema) > 1 in
  let qualified = Option.value qualified ~default:multi in
  Array.map
    (fun a -> if qualified then Attr.to_string a else a.Attr.name)
    (Schema.attrs schema)

let relation ?qualified r =
  write ~title:(Relation.name r) values
    (headers_of ?qualified (Relation.schema r))
    (Relation.tuples_array r)

let digest r = Digest.to_hex (Digest.string (relation r))

let annotated ?qualified ~annot_header rows schema =
  write annotated_cells
    (Array.append [| annot_header |] (headers_of ?qualified schema))
    (Array.of_list rows)
