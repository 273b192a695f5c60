(* Every table goes through [write]: each cell is converted to a string
   once, column widths (in bytes) are taken as the cells are converted,
   and the text is written into one buffer of exactly the right size.
   The layout, with no trailing newline:

     +-----+-----+
     | h1  | h2  |
     +-----+-----+
     | c11 | c12 |
     +-----+-----+

   A row shorter than the widest one is padded with empty cells.  The
   server's digest is the MD5 of [relation]'s text, so these bytes are a
   wire contract. *)

let measure widths row =
  Array.iteri
    (fun i c ->
      let l = String.length c in
      if l > widths.(i) then widths.(i) <- l)
    row

(* Convert every row with [cells] and widen [widths] in the same pass. *)
let convert widths cells rows =
  Array.map
    (fun r ->
      let row = cells r in
      measure widths row;
      row)
    rows

(* [widths] holds each column's widest cell, header included. *)
let write ?title ~widths header rows =
  let ncols = Array.length widths in
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
  let pos = ref 0 in
  let char c =
    Bytes.set buf !pos c;
    incr pos
  in
  let string s =
    Bytes.blit_string s 0 buf !pos (String.length s);
    pos := !pos + String.length s
  in
  let fill n c =
    Bytes.fill buf !pos n c;
    pos := !pos + n
  in
  Option.iter
    (fun s ->
      string s;
      char '\n')
    title;
  let sep_at = !pos in
  char '+';
  Array.iter
    (fun w ->
      fill (w + 2) '-';
      char '+')
    widths;
  if ncols = 0 then char '+';
  let sep () =
    Bytes.blit buf sep_at buf !pos sep_len;
    pos := !pos + sep_len
  in
  let line row =
    char '\n';
    char '|';
    let n = Array.length row in
    Array.iteri
      (fun i w ->
        char ' ';
        let c = if i < n then row.(i) else "" in
        string c;
        fill (w - String.length c + 1) ' ';
        char '|')
      widths;
    if ncols = 0 then string "  |"
  in
  line header;
  char '\n';
  sep ();
  Array.iter line rows;
  char '\n';
  sep ();
  assert (!pos = Bytes.length buf);
  Bytes.unsafe_to_string buf

let table ~header rows =
  let header = Array.of_list header in
  let rows = Array.of_list (List.map Array.of_list rows) in
  let ncols =
    Array.fold_left
      (fun m r -> max m (Array.length r))
      (Array.length header) rows
  in
  let widths = Array.make ncols 0 in
  measure widths header;
  Array.iter (measure widths) rows;
  write ~widths header rows

let headers_of ?qualified schema =
  let multi = List.length (Schema.rels schema) > 1 in
  let qualified = Option.value qualified ~default:multi in
  Array.map
    (fun a -> if qualified then Attr.to_string a else a.Attr.name)
    (Schema.attrs schema)

let relation ?qualified r =
  let header = headers_of ?qualified (Relation.schema r) in
  let widths = Array.map String.length header in
  let rows =
    convert widths (Array.map Value.to_string) (Relation.tuples_array r)
  in
  write ~title:(Relation.name r) ~widths header rows

let digest r = Digest.to_hex (Digest.string (relation r))

let annotated ?qualified ~annot_header rows schema =
  let header = Array.append [| annot_header |] (headers_of ?qualified schema) in
  let rows = Array.of_list rows in
  let ncols =
    Array.fold_left
      (fun m (_, t) -> max m (Array.length t + 1))
      (Array.length header) rows
  in
  let widths = Array.make ncols 0 in
  measure widths header;
  let cells (annot, t) =
    Array.init
      (Array.length t + 1)
      (fun i -> if i = 0 then annot else Value.to_string t.(i - 1))
  in
  write ~widths header (convert widths cells rows)
