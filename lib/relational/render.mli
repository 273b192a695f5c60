(** Plain-text table rendering — the reproduction's stand-in for Clio's GUI
    workspaces and target viewer.

    All entry points share one writer.  A measuring pass takes column
    widths (in bytes); from them it builds one blank template line, so
    every data line has the same length and the same ['|'] offsets.  The
    fill pass blits the template per row and writes each cell's bytes at
    its precomputed column offset, so rendering allocates nothing per
    cell.  A columnar relation is read through its {!Value_pool} id
    columns and is never boxed ({!Relation.view}).

    {!digest} renders into a buffer kept per domain and hashes it in
    place, so a served evaluate allocates nothing proportional to its
    result.  Buffers above {!digest_buffer_cap} are not kept.  On a
    2000-row 3-chain D(G) (4273 rows, 346 KB of text, 2-core container)
    the digest takes about 1.0 ms, of which MD5 is 0.7 ms; see
    docs/data-plane.md § Rendering. *)

(** Render a relation as an aligned ASCII table.  [qualified] controls
    whether headers show ["Rel.col"] or just ["col"] (default: qualified
    when the schema spans several nodes). *)
val relation : ?qualified:bool -> Relation.t -> string

(** [digest r] is the hex MD5 of [relation r] (default header
    qualification): the digest the server returns for an evaluation. *)
val digest : Relation.t -> string

(** The largest digest buffer a domain keeps between calls (1 MiB).  A
    text longer than this is rendered into a transient buffer. *)
val digest_buffer_cap : int

(** Bytes of the digest buffer the calling domain keeps now (0 before
    its first {!digest}); never above {!digest_buffer_cap}. *)
val digest_buffer_bytes : unit -> int

(** Render arbitrary rows with a header. *)
val table : header:string list -> string list list -> string

(** Render with an extra leading annotation column (e.g. coverage tags or
    +/- example polarity). *)
val annotated :
  ?qualified:bool -> annot_header:string -> (string * Tuple.t) list -> Schema.t -> string
