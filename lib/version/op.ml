open Relational
module J = Obs.Json

type t =
  | Insert of { relation : string; rows : Value.t array list }
  | Offer of { start : string; goal : string; max_len : int }
  | Rotate
  | Select of { entry : int }
  | Delete of { entry : int }
  | Confirm

let name = function
  | Insert _ -> "insert"
  | Offer _ -> "offer"
  | Rotate -> "rotate"
  | Select _ -> "select"
  | Delete _ -> "delete"
  | Confirm -> "confirm"

(* --- value <-> JSON ---

   Integral numbers decode to [Int]; [Value.equal] treats numerically
   equal [Int]/[Float] as equal, so the coercion is invisible to the
   relational layer.  Non-finite floats would emit as [null] (Json's
   rule) and are rejected on encode instead of silently becoming nulls. *)

let json_of_value = function
  | Value.Null -> J.Null
  | Value.Bool b -> J.Bool b
  | Value.Int i -> J.Num (float_of_int i)
  | Value.Float f ->
      if Float.is_nan f || f = infinity || f = neg_infinity then
        invalid_arg "Op: non-finite floats are not representable on the wire"
      else J.Num f
  | Value.String s -> J.Str s

let value_of_json = function
  | J.Null -> Value.Null
  | J.Bool b -> Value.Bool b
  | J.Num f as j -> (
      match J.to_int j with Some i -> Value.Int i | None -> Value.Float f)
  | J.Str s -> Value.String s
  | J.Arr _ | J.Obj _ -> raise (J.Bad "cell must be null, boolean, number or string")

let json_of_rows rows =
  J.Arr
    (List.map
       (fun row -> J.Arr (Array.to_list (Array.map json_of_value row)))
       rows)

let rows_of_json =
  List.map (function
    | J.Arr cells -> Array.of_list (List.map value_of_json cells)
    | _ -> raise (J.Bad "each row must be an array of cells"))

(* The wire frame of an op verb and its changelog line are the same
   fields after ["op"]: one encoding, one decoder. *)
let fields = function
  | Insert { relation; rows } ->
      [ ("relation", J.Str relation); ("rows", json_of_rows rows) ]
  | Offer { start; goal; max_len } ->
      [
        ("start", J.Str start);
        ("goal", J.Str goal);
        ("max_len", J.Num (float_of_int max_len));
      ]
  | Rotate | Confirm -> []
  | Select { entry } | Delete { entry } -> [ ("entry", J.Num (float_of_int entry)) ]

let to_json op = J.Obj (("op", J.Str (name op)) :: fields op)

let of_json =
  J.decode (fun j ->
      match J.str "op" j with
      | "insert" ->
          let rows = rows_of_json (J.arr "rows" j) in
          Insert { relation = J.str "relation" j; rows }
      | "offer" ->
          let start = J.str "start" j in
          let goal = J.str "goal" j in
          Offer { start; goal; max_len = J.int ~default:2 "max_len" j }
      | "rotate" -> Rotate
      | "select" -> Select { entry = J.int "entry" j }
      | "delete" -> Delete { entry = J.int "entry" j }
      | "confirm" -> Confirm
      | op -> raise (J.Bad (Printf.sprintf "unknown op %S" op)))

(* Applying an op is the single definition of what a refinement step does
   to a workspace — the server's session verbs, the offline CLI and the
   changelog replay all route through here, which is what makes the
   replayed state byte-identical to the live one.  Ops are deterministic:
   [data_walk] enumerates alternatives in a canonical order and
   [add_tuples] dedups structurally, so replaying the same op sequence on
   the same root state always converges. *)
let apply ws op =
  match op with
  | Insert { relation; rows } -> Clio.Workspace.add_tuples ws relation rows
  | Offer { start; goal; max_len } ->
      let ctx = Clio.Workspace.ctx ws in
      let mapping = (Clio.Workspace.active ws).Clio.Workspace.mapping in
      let alts = Clio.Op_walk.data_walk ctx mapping ~start ~goal ~max_len () in
      if alts = [] then
        invalid_arg
          (Printf.sprintf "no walks from %s to %s within %d steps" start goal
             max_len)
      else
        Clio.Workspace.offer ws
          ~labels:(List.map (fun a -> a.Clio.Op_walk.description) alts)
          (List.map (fun a -> a.Clio.Op_walk.mapping) alts)
  | Rotate -> Clio.Workspace.rotate ws
  | Select { entry } -> Clio.Workspace.select ws entry
  | Delete { entry } -> Clio.Workspace.delete ws entry
  | Confirm -> Clio.Workspace.confirm ws
