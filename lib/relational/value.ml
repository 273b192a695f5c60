type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

let is_null = function Null -> true | Int _ | Float _ | String _ | Bool _ -> false

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | String _ | Bool _ -> None

let rank = function Null -> 0 | Bool _ -> 1 | Int _ -> 2 | Float _ -> 2 | String _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool a, Bool b -> Bool.compare a b
  | Int a, Int b -> Int.compare a b
  | Float a, Float b -> Float.compare a b
  | Int a, Float b -> Float.compare (float_of_int a) b
  | Float a, Int b -> Float.compare a (float_of_int b)
  | String a, String b -> String.compare a b
  | _ -> Int.compare (rank a) (rank b)

(* [equal] is the kernel of [compare]'s total order, by definition, so the
   two can never disagree about whether values coincide: [Int 1] equals
   [Float 1.0], and NaN equals NaN ([Float.compare nan nan = 0]).  Sort-based
   dedup and hash-based indexing therefore identify exactly the same pairs. *)
let equal a b =
  match (a, b) with
  | Null, Null -> true
  | Int a, Int b -> a = b
  | String a, String b -> String.equal a b
  | Bool a, Bool b -> a = b
  | _ -> compare a b = 0

let sql_eq a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | _ -> Some (compare a b = 0)

let sql_compare a b =
  match (a, b) with
  | Null, _ | _, Null -> None
  | _ -> Some (compare a b)

let add a b =
  match (a, b) with
  | Int a, Int b -> Int (a + b)
  | _ -> (
      match (to_float a, to_float b) with
      | Some a, Some b -> Float (a +. b)
      | _ -> Null)

let sub a b =
  match (a, b) with
  | Int a, Int b -> Int (a - b)
  | _ -> (
      match (to_float a, to_float b) with
      | Some a, Some b -> Float (a -. b)
      | _ -> Null)

let mul a b =
  match (a, b) with
  | Int a, Int b -> Int (a * b)
  | _ -> (
      match (to_float a, to_float b) with
      | Some a, Some b -> Float (a *. b)
      | _ -> Null)

let to_string = function
  | Null -> "null"
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else string_of_float f
  | String s -> s
  | Bool b -> string_of_bool b

let concat a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _ -> String (to_string a ^ to_string b)

let to_sql = function
  | Null -> "NULL"
  | String s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  (* SQL has no literal for nan or the infinities. *)
  | Float f when not (Float.is_finite f) -> "NULL"
  | (Int _ | Float _ | Bool _) as v -> to_string v

let of_csv_cell s =
  let s = String.trim s in
  if s = "" || String.lowercase_ascii s = "null" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> (
            match bool_of_string_opt (String.lowercase_ascii s) with
            | Some b -> Bool b
            | None -> String s))

let pp ppf v = Format.pp_print_string ppf (to_string v)

(* Numerics hash through their float image so that any [Int]/[Float] pair
   [equal] identifies lands in one bucket; [compare] also collapses every
   NaN payload and the two signed zeros, so those normalize first. *)
let hash_numeric f =
  if Float.is_nan f then Hashtbl.hash (2, Float.nan)
  else if f = 0. then Hashtbl.hash (2, 0.)
  else Hashtbl.hash (2, f)

let hash = function
  | Null -> 17
  | Int i -> hash_numeric (float_of_int i)
  | Float f -> hash_numeric f
  | String s -> Hashtbl.hash (3, s)
  | Bool b -> Hashtbl.hash (4, b)

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Table = Hashtbl.Make (Hashed)
