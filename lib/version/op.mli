(** The mutation vocabulary of a refinement session, reified.

    Every state-changing step a session can take — example-tuple inserts
    and the workspace verbs — is one [t].  The server's session verbs, the
    offline [clio_cli store] commands and the version store's
    changelog-replay all construct the next state through {!apply}, so
    "what happened" has exactly one executable definition and a replayed
    changelog reproduces the live state byte-for-byte.

    Read-only operations (evaluate, rank, stats) are deliberately not ops:
    they never appear in a changelog. *)

open Relational

type t =
  | Insert of { relation : string; rows : Value.t array list }
  | Offer of { start : string; goal : string; max_len : int }
  | Rotate
  | Select of { entry : int }
  | Delete of { entry : int }
  | Confirm

val name : t -> string

(** The JSON codec shared by the wire protocol's op verbs and the
    changelog: a wire frame carries [id]/[session]/[trace_id] and then
    exactly the fields of {!to_json}, so a changelog op line holds the
    bytes the client sent.  Cells are [null], booleans, numbers (integral
    ones decode to [Value.Int], see {!Obs.Json.to_int}) and strings.
    [json_of_rows] raises [Invalid_argument] on non-finite floats (JSON
    cannot carry them losslessly). *)
val json_of_rows : Value.t array list -> Obs.Json.t

(** The rows of an ["rows"] array.  @raise Obs.Json.Bad on a row that is
    not an array or a cell that is an array or object. *)
val rows_of_json : Obs.Json.t list -> Value.t array list

(** The fields after ["op"], in emission order. *)
val fields : t -> (string * Obs.Json.t) list

(** [Obj (("op", Str (name op)) :: fields op)]. *)
val to_json : t -> Obs.Json.t

(** Reads the fields through {!Obs.Json}'s readers (their error texts,
    unprefixed); extra fields are ignored, so a whole wire frame decodes.
    An absent [max_len] is 2, the wire's default — changelog lines
    always carry it. *)
val of_json : Obs.Json.t -> (t, string) Stdlib.result

(** Apply one op.  Deterministic given the workspace state.  Raises
    [Invalid_argument] (unknown relation, malformed tuples, no walks, last
    entry) or [Not_found] (unknown entry id) exactly as the underlying
    workspace operations do; on raise the input workspace is unchanged
    (workspaces are immutable values). *)
val apply : Clio.Workspace.t -> t -> Clio.Workspace.t
