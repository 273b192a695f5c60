open Relational
module J = Obs.Json

(* The spec type lives in the version library (snapshots embed it); the
   protocol re-exports it with an equation so both sides keep pattern
   matching on [Protocol.Paper] etc. *)
type scenario = Version.Scenario.t =
  | Paper
  | Chain of { n : int; rows : int; seed : int }
  | Star of { leaves : int; rows : int; seed : int }

type what = Dg | Fj | Target

let what_name = function Dg -> "dg" | Fj -> "fj" | Target -> "target"

type request =
  | Ping
  | Open_session of scenario
  | Close_session
  | Evaluate of { what : what; limit : int option }
  | Offer of { start : string; goal : string; max_len : int }
  | Rotate
  | Select of { entry : int }
  | Delete of { entry : int }
  | Confirm
  | Insert of { relation : string; rows : Value.t array list }
  | Rank
  | Branch of { name : string }
  | Checkout of { name : string }
  | Merge of { from_ : string }
  | Diff of { other : string }
  | Branches
  | Open_branch of { of_session : string; branch : string }
  | Stats
  | Metrics_prom
  | Shutdown

type envelope = {
  id : int;
  session : string option;
  request : request;
  trace_id : string option;
}

type entry_info = {
  entry : int;
  label : string;
  graph : string;
  active : bool;
  score : int option;
}

type eval_info = {
  what : what;
  count : int;
  scheme : string list;
  digest : string;
  rows : string list list option;
}

type result =
  | Pong
  | Opened of { session : string; relations : string list; version : int }
  | Closed
  | Evaluated of eval_info
  | Entries of entry_info list
  | Inserted of { fresh : bool; version : int }
  | Branched of { branch : string; version : int }
  | Checked_out of { branch : string; version : int }
  | Merged of { branch : string; rows : int; version : int }
  | Branch_list of { current : string; branches : (string * int) list }
  | Stats_report of (string * float) list
  | Prom_text of string
  | Bye

type error_code =
  | Parse_error
  | Bad_request
  | Unknown_session
  | Overloaded
  | Unavailable
  | Internal

let error_code_name = function
  | Parse_error -> "parse_error"
  | Bad_request -> "bad_request"
  | Unknown_session -> "unknown_session"
  | Overloaded -> "overloaded"
  | Unavailable -> "unavailable"
  | Internal -> "internal"

let error_code_of_name = function
  | "parse_error" -> Some Parse_error
  | "bad_request" -> Some Bad_request
  | "unknown_session" -> Some Unknown_session
  | "overloaded" -> Some Overloaded
  | "unavailable" -> Some Unavailable
  | "internal" -> Some Internal
  | _ -> None

type response = {
  id : int option;
  result : (result, error_code * string) Stdlib.result;
  trace_id : string option;
}

(* --- op verbs ---

   The six state-changing verbs are {!Version.Op}s: their frames carry
   exactly the fields of the changelog's op line, encoded and decoded by
   [Op] alone. *)

module Op = Version.Op

let op_of_request = function
  | Offer { start; goal; max_len } -> Some (Op.Offer { start; goal; max_len })
  | Rotate -> Some Op.Rotate
  | Select { entry } -> Some (Op.Select { entry })
  | Delete { entry } -> Some (Op.Delete { entry })
  | Confirm -> Some Op.Confirm
  | Insert { relation; rows } -> Some (Op.Insert { relation; rows })
  | Ping | Open_session _ | Close_session | Evaluate _ | Rank | Branch _
  | Checkout _ | Merge _ | Diff _ | Branches | Open_branch _ | Stats
  | Metrics_prom | Shutdown ->
      None

let request_of_op = function
  | Op.Offer { start; goal; max_len } -> Offer { start; goal; max_len }
  | Op.Rotate -> Rotate
  | Op.Select { entry } -> Select { entry }
  | Op.Delete { entry } -> Delete { entry }
  | Op.Confirm -> Confirm
  | Op.Insert { relation; rows } -> Insert { relation; rows }

(* --- encoding: requests --- *)

let verb_name request =
  match op_of_request request with
  | Some op -> Op.name op
  | None -> (
      match request with
      | Ping -> "ping"
      | Open_session _ -> "open"
      | Close_session -> "close"
      | Evaluate _ -> "evaluate"
      | Rank -> "rank"
      | Branch _ -> "branch"
      | Checkout _ -> "checkout"
      | Merge _ -> "merge"
      | Diff _ -> "diff"
      | Branches -> "branches"
      | Open_branch _ -> "open_branch"
      | Stats -> "stats"
      | Metrics_prom -> "metrics_prom"
      | Shutdown -> "shutdown"
      | Offer _ | Rotate | Select _ | Delete _ | Confirm | Insert _ ->
          assert false (* op verbs, named above *))

let request_fields request =
  match op_of_request request with
  | Some op -> Op.fields op
  | None -> (
      match request with
      | Open_session sc -> [ ("scenario", Version.Scenario.to_json sc) ]
      | Evaluate { what; limit } ->
          ("what", J.Str (what_name what))
          ::
          (match limit with
          | None -> []
          | Some k -> [ ("limit", J.Num (float_of_int k)) ])
      | Branch { name } | Checkout { name } -> [ ("name", J.Str name) ]
      | Merge { from_ } -> [ ("from", J.Str from_) ]
      | Diff { other } -> [ ("other", J.Str other) ]
      | Open_branch { of_session; branch } ->
          [ ("of_session", J.Str of_session); ("branch", J.Str branch) ]
      | Ping | Close_session | Rank | Branches | Stats | Metrics_prom | Shutdown
      | Offer _ | Rotate | Select _ | Delete _ | Confirm | Insert _ ->
          [])

let encode_request { id; session; request; trace_id } =
  let op = verb_name request and fields = request_fields request in
  let session_field =
    match session with None -> [] | Some s -> [ ("session", J.Str s) ]
  in
  (* trace_id is emitted only when present, so a client that never sends
     one produces frames byte-identical to the pre-telemetry protocol. *)
  let trace_field =
    match trace_id with None -> [] | Some t -> [ ("trace_id", J.Str t) ]
  in
  J.to_string
    (J.Obj
       ((("id", J.Num (float_of_int id)) :: ("op", J.Str op) :: session_field)
       @ trace_field @ fields))

(* --- encoding: responses --- *)

let result_json = function
  | Pong -> J.Obj [ ("kind", J.Str "pong") ]
  | Opened { session; relations; version } ->
      J.Obj
        [
          ("kind", J.Str "opened");
          ("session", J.Str session);
          ("relations", J.Arr (List.map (fun r -> J.Str r) relations));
          ("version", J.Num (float_of_int version));
        ]
  | Closed -> J.Obj [ ("kind", J.Str "closed") ]
  | Evaluated { what; count; scheme; digest; rows } ->
      J.Obj
        ([
           ("kind", J.Str "evaluated");
           ("what", J.Str (what_name what));
           ("count", J.Num (float_of_int count));
           ("scheme", J.Arr (List.map (fun c -> J.Str c) scheme));
           ("digest", J.Str digest);
         ]
        @
        match rows with
        | None -> []
        | Some rows ->
            [
              ( "rows",
                J.Arr
                  (List.map
                     (fun row -> J.Arr (List.map (fun c -> J.Str c) row))
                     rows) );
            ])
  | Entries entries ->
      J.Obj
        [
          ("kind", J.Str "entries");
          ( "entries",
            J.Arr
              (List.map
                 (fun e ->
                   J.Obj
                     ([
                        ("entry", J.Num (float_of_int e.entry));
                        ("label", J.Str e.label);
                        ("graph", J.Str e.graph);
                        ("active", J.Bool e.active);
                      ]
                     @
                     match e.score with
                     | None -> []
                     | Some s -> [ ("score", J.Num (float_of_int s)) ]))
                 entries) );
        ]
  | Inserted { fresh; version } ->
      J.Obj
        [
          ("kind", J.Str "inserted");
          ("fresh", J.Bool fresh);
          ("version", J.Num (float_of_int version));
        ]
  | Branched { branch; version } ->
      J.Obj
        [
          ("kind", J.Str "branched");
          ("branch", J.Str branch);
          ("version", J.Num (float_of_int version));
        ]
  | Checked_out { branch; version } ->
      J.Obj
        [
          ("kind", J.Str "checked_out");
          ("branch", J.Str branch);
          ("version", J.Num (float_of_int version));
        ]
  | Merged { branch; rows; version } ->
      J.Obj
        [
          ("kind", J.Str "merged");
          ("branch", J.Str branch);
          ("rows", J.Num (float_of_int rows));
          ("version", J.Num (float_of_int version));
        ]
  | Branch_list { current; branches } ->
      J.Obj
        [
          ("kind", J.Str "branches");
          ("current", J.Str current);
          ( "branches",
            J.Arr
              (List.map
                 (fun (name, version) ->
                   J.Obj
                     [
                       ("name", J.Str name);
                       ("version", J.Num (float_of_int version));
                     ])
                 branches) );
        ]
  | Stats_report counters ->
      J.Obj
        [
          ("kind", J.Str "stats");
          ("counters", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) counters));
        ]
  | Prom_text text ->
      J.Obj [ ("kind", J.Str "prom"); ("text", J.Str text) ]
  | Bye -> J.Obj [ ("kind", J.Str "bye") ]

let encode_response { id; result; trace_id } =
  let id_field =
    match id with
    | Some id -> [ ("id", J.Num (float_of_int id)) ]
    | None -> [ ("id", J.Null) ]
  in
  (* Echoed only when the request carried one: replies to trace-id-less
     clients stay byte-identical to the pre-telemetry protocol. *)
  let trace_field =
    match trace_id with None -> [] | Some t -> [ ("trace_id", J.Str t) ]
  in
  match result with
  | Ok r ->
      J.to_string
        (J.Obj
           (id_field @ trace_field
           @ [ ("ok", J.Bool true); ("result", result_json r) ]))
  | Error (code, message) ->
      J.to_string
        (J.Obj
           (id_field @ trace_field
           @ [
               ("ok", J.Bool false);
               ( "error",
                 J.Obj
                   [
                     ("code", J.Str (error_code_name code));
                     ("message", J.Str message);
                   ] );
             ]))

let ok ?trace_id id r = { id = Some id; result = Ok r; trace_id }
let error ?trace_id id code message = { id; result = Error (code, message); trace_id }

(* --- parsing ---

   Fields are read through {!Obs.Json}'s readers; a malformed frame
   raises [J.Bad], which becomes the error reply. *)

let reject fmt = Printf.ksprintf (fun m -> raise (J.Bad m)) fmt
let ok_or_reject = function Ok v -> v | Error msg -> raise (J.Bad msg)

let what_of_name = function
  | "dg" -> Dg
  | "fj" -> Fj
  | "target" -> Target
  | w -> reject "unknown evaluate target %S" w

let request_of_json j =
  match J.str "op" j with
  | "ping" -> Ping
  | "open" ->
      Open_session (ok_or_reject (Version.Scenario.of_json (J.field "scenario" j)))
  | "close" -> Close_session
  | "evaluate" ->
      let what = what_of_name (J.str "what" j) in
      Evaluate { what; limit = J.opt J.int "limit" j }
  | "rank" -> Rank
  | "branch" -> Branch { name = J.str "name" j }
  | "checkout" -> Checkout { name = J.str "name" j }
  | "merge" -> Merge { from_ = J.str "from" j }
  | "diff" -> Diff { other = J.str "other" j }
  | "branches" -> Branches
  | "open_branch" ->
      let branch = J.str "branch" j in
      Open_branch { of_session = J.str "of_session" j; branch }
  | "stats" -> Stats
  | "metrics_prom" -> Metrics_prom
  | "shutdown" -> Shutdown
  | _ -> request_of_op (ok_or_reject (Op.of_json j))

let parse_request line =
  match J.parse line with
  | Error msg -> Error (None, Parse_error, msg)
  | Ok j -> (
      match Option.bind (J.member "id" j) J.to_int with
      | Some id when id >= 0 -> (
          try
            let session = J.opt J.str "session" j in
            let trace_id = J.opt J.str "trace_id" j in
            Ok { id; session; request = request_of_json j; trace_id }
          with J.Bad msg -> Error (Some id, Bad_request, msg))
      | _ -> Error (None, Bad_request, "\"id\" must be a non-negative integer"))

(* --- parsing: responses --- *)

let strings what =
  List.map (function J.Str s -> s | _ -> reject "%s must be strings" what)

let result_of_json j =
  match J.str "kind" j with
  | "pong" -> Pong
  | "opened" ->
      Opened
        {
          session = J.str "session" j;
          relations = strings "relation names" (J.arr "relations" j);
          version = J.int "version" j;
        }
  | "closed" -> Closed
  | "evaluated" ->
      Evaluated
        {
          what = what_of_name (J.str "what" j);
          count = J.int "count" j;
          scheme = strings "scheme" (J.arr "scheme" j);
          digest = J.str "digest" j;
          rows =
            J.opt J.arr "rows" j
            |> Option.map
                 (List.map (function
                   | J.Arr cells -> strings "row cells" cells
                   | _ -> reject "rows must be arrays"));
        }
  | "entries" ->
      Entries
        (List.map
           (fun e ->
             {
               entry = J.int "entry" e;
               label = J.str "label" e;
               graph = J.str "graph" e;
               active = J.bool "active" e;
               score = J.opt J.int "score" e;
             })
           (J.arr "entries" j))
  | "inserted" -> Inserted { fresh = J.bool "fresh" j; version = J.int "version" j }
  | "branched" ->
      Branched { branch = J.str "branch" j; version = J.int "version" j }
  | "checked_out" ->
      Checked_out { branch = J.str "branch" j; version = J.int "version" j }
  | "merged" ->
      Merged
        {
          branch = J.str "branch" j;
          rows = J.int "rows" j;
          version = J.int "version" j;
        }
  | "branches" ->
      Branch_list
        {
          current = J.str "current" j;
          branches =
            List.map
              (fun b -> (J.str "name" b, J.int "version" b))
              (J.arr "branches" j);
        }
  | "stats" ->
      Stats_report
        (match J.field "counters" j with
        | J.Obj fields ->
            List.map
              (fun (k, v) ->
                match v with
                | J.Num f -> (k, f)
                | _ -> reject "counter values must be numbers")
              fields
        | _ -> reject "field \"counters\" must be an object")
  | "prom" -> Prom_text (J.str "text" j)
  | "bye" -> Bye
  | k -> reject "unknown result kind %S" k

let parse_response line =
  match J.parse line with
  | Error msg -> Error msg
  | Ok j -> (
      try
        let id =
          match J.member "id" j with
          | Some J.Null -> None
          | v -> (
              match Option.bind v J.to_int with
              | Some id when id >= 0 -> Some id
              | _ -> reject "\"id\" must be an integer or null")
        in
        let trace_id = J.opt J.str "trace_id" j in
        let result =
          if J.bool "ok" j then Ok (result_of_json (J.field "result" j))
          else
            let e = J.field "error" j in
            let code_name = J.str "code" e in
            match error_code_of_name code_name with
            | Some code -> Error (code, J.str "message" e)
            | None -> reject "unknown error code %S" code_name
        in
        Ok { id; result; trace_id }
      with J.Bad msg -> Error msg)
