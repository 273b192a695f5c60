(** The wire protocol of [clio_serve]: newline-delimited JSON-RPC over the
    strict {!Obs.Json} emitter/parser.

    One request per line, one response per line; a client may pipeline
    requests and match responses by [id] (responses to {e executed}
    requests come back in submission order per connection, but error
    replies produced at admission time — parse errors, backpressure — are
    written immediately and may overtake them).

    This module is the single schema both sides compile against: the
    server parses requests and emits responses, while clients (the load
    generator, the tests) emit requests and parse responses — so a frame
    one side writes always parses on the other and escaping cannot drift.

    The six state-changing verbs ([offer], [rotate], [select], [delete],
    [confirm], [insert]) are {!Version.Op}s: after [id], [op], [session]
    and [trace_id] their frames hold exactly the fields of
    {!Version.Op.to_json} — the changelog's op line — and {!Version.Op}
    alone encodes and decodes them.  [offer]'s [max_len] defaults to 2.

    Every field is read through {!Obs.Json}'s readers: an integer field
    is an integral number with magnitude at most 1e15, and an optional
    field that is [null] counts as absent.  Values on the wire: [null],
    booleans, numbers (integral numbers decode to [Value.Int], others to
    [Value.Float]) and strings.  Non-finite floats have no JSON literal
    and are not supported; integers above 2{^53} lose precision. *)

open Relational

(** What a session is opened over: the paper's Figure 1 database with the
    Section 5 starting mapping, or a synthetic chain/star instance
    ({!Synth.Gen_graph}) with an identity mapping rooted at its first
    relation.  Specs are value-comparable: two sessions opened from equal
    specs share one resolved database.  Re-exported from
    {!Version.Scenario} (the version store embeds specs in snapshots). *)
type scenario = Version.Scenario.t =
  | Paper
  | Chain of { n : int; rows : int; seed : int }
  | Star of { leaves : int; rows : int; seed : int }

(** Which result [Evaluate] returns: the mapping's data associations D(G),
    the full associations F(J) of its (connected) query graph, or the
    WYSIWYG target view. *)
type what = Dg | Fj | Target

val what_name : what -> string

type request =
  | Ping
  | Open_session of scenario
  | Close_session
  | Evaluate of { what : what; limit : int option }
      (** [limit]: include up to that many rendered rows in the reply
          ([None] = digest and count only). *)
  | Offer of { start : string; goal : string; max_len : int }
      (** Data-walk alternatives from [start] to [goal], offered into the
          session's workspace ({!Clio.Op_walk}, {!Clio.Workspace.offer}). *)
  | Rotate
  | Select of { entry : int }
  | Delete of { entry : int }
  | Confirm
  | Insert of { relation : string; rows : Value.t array list }
      (** The example-edit: insert tuples into a base relation and evolve
          every workspace illustration ({!Clio.Workspace.add_tuples}). *)
  | Rank
  | Branch of { name : string }
      (** fork a new branch off the session's current branch at its head
          and switch the session to it (like [git checkout -b]) *)
  | Checkout of { name : string }
      (** point the session at an existing branch of its store *)
  | Merge of { from_ : string }
      (** fold branch [from_]'s example-tuple inserts into the session's
          current branch ({!Version.Store.merge}) *)
  | Diff of { other : string }
      (** compare the session's branch against [other]; replied to with a
          [Stats_report] of [diff.*] keys ({!Version.Store.diff}) *)
  | Branches  (** list the store's branches and the session's current one *)
  | Open_branch of { of_session : string; branch : string }
      (** server-level verb: open a {e new} session sharing [of_session]'s
          version store, positioned on [branch] — how two clients
          collaborate on one scenario with per-branch isolation *)
  | Stats
  | Metrics_prom
      (** one-shot Prometheus text-exposition scrape of the server's
          Obs registries ([clio_serve scrape]) *)
  | Shutdown

(** A request with its client-chosen id and (for session verbs) the
    session it addresses.  [trace_id], when sent, is attached to the
    request's server-side telemetry (log line, spans, exemplar trace) and
    echoed verbatim on the response; when absent the server assigns an
    internal id and the reply is byte-identical to the pre-telemetry
    protocol — old clients are unaffected. *)
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
  score : int option;  (** filled by [Rank] (lower = more likely) *)
}

type eval_info = {
  what : what;
  count : int;
  scheme : string list;
  digest : string;  (** MD5 hex of the rendered relation — the
                        byte-identity witness vs a direct CLI run *)
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
      (** [rows]: genuinely new tuples folded in (0 = nothing to merge) *)
  | Branch_list of { current : string; branches : (string * int) list }
      (** [(name, database version)] per branch, creation order *)
  | Stats_report of (string * float) list
  | Prom_text of string
      (** Prometheus text exposition document ({!Obs.Prom_export}) *)
  | Bye  (** shutdown acknowledged; the server drains and exits *)

type error_code =
  | Parse_error  (** frame is not valid JSON *)
  | Bad_request  (** well-formed JSON, but not a valid request — or a
                     valid request whose arguments the session rejected *)
  | Unknown_session
  | Overloaded  (** bounded request queue full — retry later; the
                    connection stays open *)
  | Unavailable  (** server is draining for shutdown *)
  | Internal

val error_code_name : error_code -> string

type response = {
  id : int option;  (** [None] when no id could be recovered from the frame *)
  result : (result, error_code * string) Stdlib.result;
  trace_id : string option;
      (** echo of the request's [trace_id]; never present unless sent *)
}

(** The op verbs as {!Version.Op}s: [op_of_request] is [None] for every
    other verb, and [request_of_op] is its inverse. *)
val op_of_request : request -> Version.Op.t option

val request_of_op : Version.Op.t -> request

(** A request's ["op"] name on the wire ("evaluate", "rotate", …). *)
val verb_name : request -> string

(** Encoders emit a single line (no trailing newline). *)

val encode_request : envelope -> string
val encode_response : response -> string

(** [parse_request line] — strict: the id must be a non-negative integral
    number and every field well-typed.  On failure the recovered id (when
    the frame was an object with a usable [id]) is returned so the error
    reply can still be correlated. *)
val parse_request :
  string -> (envelope, int option * error_code * string) Stdlib.result

val parse_response : string -> (response, string) Stdlib.result

(** Convenience constructors used by the server. *)

val ok : ?trace_id:string -> int -> result -> response
val error : ?trace_id:string -> int option -> error_code -> string -> response
