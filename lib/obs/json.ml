(* A minimal JSON value type with an emitter, a parser and field
   readers.  The single authoritative JSON implementation: the trace and
   metrics exporters, the wire protocol, the version store, the bench
   harness and the compare tool all go through it, so string escaping
   cannot drift between emitters and a file one tool writes always parses
   in another. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- emitting --- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let quote s = "\"" ^ escape s ^ "\""

(* Most strings (event names, trace ids, metric names) contain nothing to
   escape; skip the per-character copy for those.  The emitter sits on the
   server's per-request log path, so these fast paths are load-bearing. *)
let needs_escape s =
  let n = String.length s in
  let rec go i =
    i < n
    &&
    match s.[i] with
    | '"' | '\\' -> true
    | c when Char.code c < 0x20 -> true
    | _ -> go (i + 1)
  in
  go 0

let add_quoted buf s =
  Buffer.add_char buf '"';
  if needs_escape s then Buffer.add_string buf (escape s)
  else Buffer.add_string buf s;
  Buffer.add_char buf '"'

(* JSON has no NaN/infinity; map them to null rather than emit garbage.
   The integer path goes through [string_of_int] rather than
   [Printf.sprintf "%.0f"] — same digits (1e15 is well inside int range),
   a fraction of the cost (no format interpretation).  Any other number
   prints as the shortest of 15, 16 or 17 significant digits that reads
   back as the same float (17 always does), so a parsed document holds
   exactly the floats that were emitted; a float with at most 15
   significant digits prints them and nothing more. *)
let float_digits f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  go 15

let emit_num buf f =
  if Float.is_nan f || f = infinity || f = neg_infinity then
    Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (string_of_int (int_of_float f))
  else Buffer.add_string buf (float_digits f)

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> emit_num buf f
  | Str s -> add_quoted buf s
  | Arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_quoted buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* Pretty printing with two-space indentation, for files meant to be
   committed and diffed (bench baselines). *)
let to_string_pretty v =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let rec go depth = function
    | (Null | Bool _ | Num _ | Str _) as v -> emit buf v
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr vs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            go (depth + 1) v)
          vs;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            Buffer.add_string buf (quote k);
            Buffer.add_string buf ": ";
            go (depth + 1) v)
          fields;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* --- parsing --- *)

exception Bad of string

let utf8_of_code_point buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* Nesting bound: recursion in the parser is proportional to container
   depth (element/member loops are tail calls), so a hostile input like
   100k '['s would otherwise overflow the stack instead of returning
   [Error].  No legitimate document of ours comes anywhere near this. *)
let max_depth = 512

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      (match peek () with
      | Some ('0' .. '9' as c) -> v := (!v * 16) + (Char.code c - Char.code '0')
      | Some ('a' .. 'f' as c) ->
          v := (!v * 16) + (Char.code c - Char.code 'a' + 10)
      | Some ('A' .. 'F' as c) ->
          v := (!v * 16) + (Char.code c - Char.code 'A' + 10)
      | _ -> fail "bad \\u escape");
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char buf c;
              advance ();
              go ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance (); go ()
          | Some 't' -> Buffer.add_char buf '\t'; advance (); go ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance (); go ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              let cp = hex4 () in
              (* Surrogate pair: combine a high surrogate with the low one
                 that must follow. *)
              let cp =
                if cp >= 0xD800 && cp <= 0xDBFF && !pos + 1 < n
                   && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  advance ();
                  advance ();
                  let low = hex4 () in
                  if low >= 0xDC00 && low <= 0xDFFF then
                    0x10000 + ((cp - 0xD800) lsl 10) + (low - 0xDC00)
                  else fail "unpaired surrogate"
                end
                else cp
              in
              utf8_of_code_point buf cp;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' ->
        String.iter expect "true";
        Bool true
    | Some 'f' ->
        String.iter expect "false";
        Bool false
    | Some 'n' ->
        String.iter expect "null";
        Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = try Ok (parse_exn s) with Bad msg -> Error msg

(* --- accessors --- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let obj_fields = function Obj fields -> fields | _ -> []
let arr_items = function Arr items -> items | _ -> []

(* --- field readers ---

   One rule per field type, one error: every decoder of a JSON object
   (wire frames, changelog lines, snapshots, manifests) reads through
   these, so "an integer field" means the same thing everywhere. *)

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 -> Some (int_of_float f)
  | _ -> None

let read what extract name j =
  match member name j with
  | Some v -> (
      match extract v with
      | Some x -> x
      | None -> raise (Bad (Printf.sprintf "field %S must be %s" name what)))
  | None -> raise (Bad (Printf.sprintf "missing field %S" name))

let field = read "present" Option.some
let str = read "a string" to_str
let bool = read "a boolean" (function Bool b -> Some b | _ -> None)
let arr = read "an array" (function Arr items -> Some items | _ -> None)

let int ?default name j =
  match (default, member name j) with
  | Some d, None -> d
  | _ -> read "an integer" to_int name j

let opt read name j =
  match member name j with None | Some Null -> None | Some _ -> Some (read name j)

let decode f j = try Ok (f j) with Bad msg -> Error msg
