open Relational

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

let knowledge_base ?(mine = false) db =
  let kb = Schemakb.Kb.of_database db in
  if mine then Schemakb.Kb.add_mined kb (Schemakb.Mine.inclusion_dependencies db)
  else kb

let initial_mapping ~source ~target ~target_cols =
  Mapping.make
    ~graph:(Querygraph.Qgraph.singleton ~alias:source ~base:source)
    ~target ~target_cols ()

let context ?mine ?no_cache db =
  Engine.Eval_ctx.create ?no_cache ~kb:(knowledge_base ?mine db) db

let illustrate ctx (m : Mapping.t) =
  Obs.with_span Obs.Names.sp_illustrate (fun () ->
      let universe = Mapping_eval.examples ctx m in
      Sufficiency.select ~universe ~target_cols:m.Mapping.target_cols ())

let corr_identity target_col src_rel src_col =
  Correspondence.identity target_col (Attr.make src_rel src_col)
