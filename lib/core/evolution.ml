open Relational

(* Where each old-scheme attribute sits in the new scheme; computed once
   per evolution step, then every candidate is tested in place. *)
let old_to_new ~old_scheme ~new_scheme =
  Array.map (Schema.index new_scheme) (Schema.attrs old_scheme)

(* [new_e]'s tuple, read at [positions], subsumes [old_e]'s: it agrees
   with every non-null field the user saw. *)
let continues_at positions old_e new_e =
  let old_t = old_e.Example.tuple
  and new_t = new_e.Example.tuple in
  let n = Array.length positions in
  Array.length old_t = n
  &&
  let rec go i =
    i = n
    || ((Value.is_null old_t.(i) || Value.equal new_t.(positions.(i)) old_t.(i))
       && go (i + 1))
  in
  go 0

let continues ~old_scheme ~new_scheme old_e new_e =
  continues_at (old_to_new ~old_scheme ~new_scheme) old_e new_e

let continuations ~old_scheme ~new_scheme old_e candidates =
  if candidates = [] then []
  else
    List.filter
      (continues_at (old_to_new ~old_scheme ~new_scheme) old_e)
      candidates

(* The positions are forced by the first candidate tested, so an old
   attribute missing from the new scheme raises exactly where testing
   each candidate with [continues] would. *)
let positions ctx (old_m : Mapping.t) (new_m : Mapping.t) =
  let lookup = Engine.Eval_ctx.lookup ctx in
  let old_scheme = Querygraph.Qgraph.scheme ~lookup old_m.Mapping.graph
  and new_scheme = Querygraph.Qgraph.scheme ~lookup new_m.Mapping.graph in
  lazy (old_to_new ~old_scheme ~new_scheme)

let evolve ctx ~old_mapping ~old_illustration (new_m : Mapping.t) =
  Obs.with_span Obs.Names.sp_evolve @@ fun () ->
  let positions = positions ctx old_mapping new_m in
  let universe = Mapping_eval.examples ctx new_m in
  let seed =
    List.filter_map
      (fun old_e ->
        List.find_opt
          (fun e -> continues_at (Lazy.force positions) old_e e)
          universe)
      old_illustration
  in
  (* An old example can be continued by the same new example; dedup seeds. *)
  let seed =
    List.fold_left
      (fun acc e -> if Illustration.mem e acc then acc else acc @ [ e ])
      [] seed
  in
  Sufficiency.select ~seed ~universe ~target_cols:new_m.Mapping.target_cols ()

let is_continuous ctx ~old_mapping ~old_illustration ~new_mapping illustration =
  let positions = positions ctx old_mapping new_mapping in
  let universe = Mapping_eval.examples ctx new_mapping in
  List.for_all
    (fun old_e ->
      let continues e = continues_at (Lazy.force positions) old_e e in
      (not (List.exists continues universe))
      || List.exists
           (fun e -> continues e && Illustration.mem e illustration)
           universe)
    old_illustration
