(** Clio — data-driven understanding and refinement of schema mappings.

    This is the library's front door.  It re-exports the building blocks
    and offers a compact session API for the workflow of the paper:

    + load a source {!Relational.Database.t} and build a {!Schemakb.Kb.t}
      (declared foreign keys, optionally enriched by mining);
    + start a {!Workspace.t} from an initial mapping (often a single-node
      graph and a couple of identity correspondences);
    + iterate: look at the sufficient {!Illustration.t}, then apply
      operators — {!add_correspondence}, {!data_walk}, {!data_chase},
      {!Op_trim} — choosing among alternatives in the workspace;
    + read the generated SQL ({!Mapping_sql}) and the WYSIWYG target view.

    See [examples/quickstart.ml] for a complete tour. *)

open Relational

(** The memoized evaluation engine (re-exported from [lib/engine]): every
    operator evaluates through an {!Eval_ctx.t}, whose versioned cache
    memoizes F(J) and D(G) across the interactive loop. *)
module Eval_ctx = Engine.Eval_ctx

module Eval_cache = Engine.Eval_cache
module Graph_key = Engine.Graph_key
module Correspondence = Correspondence
module Mapping = Mapping
module Mapping_eval = Mapping_eval
module Mapping_sql = Mapping_sql
module Example = Example
module Illustration = Illustration
module Sufficiency = Sufficiency
module Focus = Focus
module Op_trim = Op_trim
module Op_example = Op_example
module Op_correspondence = Op_correspondence
module Op_walk = Op_walk
module Op_chase = Op_chase
module Evolution = Evolution
module Workspace = Workspace
module Reuse = Reuse
module Target = Target
module Suggest = Suggest
module Session = Session
module Project = Project
module Explain = Explain
module Differentiate = Differentiate
module Interpretation = Interpretation
module Script = Script
module Target_constraints = Target_constraints
module Sampling = Sampling
module Mapping_io = Mapping_io
module Mapping_analysis = Mapping_analysis
module Schema_project = Schema_project
module Report_html = Report_html

(** Build a knowledge base from declared FKs, optionally adding mined
    inclusion dependencies ([mine] default [false]). *)
val knowledge_base : ?mine:bool -> Database.t -> Schemakb.Kb.t

(** A one-node mapping: start exploring from one source relation. *)
val initial_mapping :
  source:string -> target:string -> target_cols:string list -> Mapping.t

(** One-call context setup: [context db] = a caching {!Eval_ctx.t} over
    [db] with {!knowledge_base}[ ?mine db] attached. *)
val context :
  ?mine:bool ->
  ?no_cache:bool ->
  Database.t ->
  Eval_ctx.t

(** The mapping's universe of examples and a fresh sufficient illustration. *)
val illustrate : Eval_ctx.t -> Mapping.t -> Illustration.t

(** Shorthands for common correspondences. *)
val corr_identity : string -> string -> string -> Correspondence.t
(** [corr_identity target_col src_rel src_col]. *)
