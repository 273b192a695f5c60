(** Plain-text table rendering — the reproduction's stand-in for Clio's GUI
    workspaces and target viewer.  All three entry points share one
    writer that measures column widths (in bytes) in one pass and fills
    an exactly sized buffer in a second; values are written in place, so
    rendering allocates nothing per cell. *)

(** Render a relation as an aligned ASCII table.  [qualified] controls
    whether headers show ["Rel.col"] or just ["col"] (default: qualified
    when the schema spans several nodes). *)
val relation : ?qualified:bool -> Relation.t -> string

(** [digest r] is the hex MD5 of [relation r] (default header
    qualification): the digest the server returns for an evaluation. *)
val digest : Relation.t -> string

(** Render arbitrary rows with a header. *)
val table : header:string list -> string list list -> string

(** Render with an extra leading annotation column (e.g. coverage tags or
    +/- example polarity). *)
val annotated :
  ?qualified:bool -> annot_header:string -> (string * Tuple.t) list -> Schema.t -> string
