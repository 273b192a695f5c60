open Relational
open Fulldisj

type requirement =
  | Cover of Coverage.t
  | Polarity of Coverage.t * bool
  | Attr_null of Coverage.t * string * bool

let pp_requirement ppf = function
  | Cover c -> Format.fprintf ppf "coverage %a" Coverage.pp c
  | Polarity (c, pos) ->
      Format.fprintf ppf "%s example at %a" (if pos then "positive" else "negative")
        Coverage.pp c
  | Attr_null (c, b, null) ->
      Format.fprintf ppf "positive example at %a with %s %s" Coverage.pp c b
        (if null then "null" else "non-null")

let target_position target_cols b =
  let rec go i = function
    | [] -> raise Not_found
    | c :: rest -> if String.equal c b then i else go (i + 1) rest
  in
  go 0 target_cols

let satisfies ~target_cols e = function
  | Cover c -> Coverage.equal (Example.coverage e) c
  | Polarity (c, pos) ->
      Coverage.equal (Example.coverage e) c && Bool.equal e.Example.positive pos
  | Attr_null (c, b, null) ->
      Coverage.equal (Example.coverage e) c
      && e.Example.positive
      && Bool.equal (Value.is_null e.Example.target_tuple.(target_position target_cols b)) null

(* What the universe offers at one coverage: a positive and a negative
   example; per target attribute, a positive example with it non-null
   ([attr.(2k)]) and with it null ([attr.(2k+1)]).  [index] is the
   coverage's rank in order of first appearance. *)
type offer = {
  coverage : Coverage.t;
  index : int;
  mutable positive : bool;
  mutable negative : bool;
  attr : bool array;
}

(* One pass over the universe.  Each example's coverage is keyed once
   and its offers are recorded under it; the example is also filed under
   its signature — coverage, polarity and, when positive, which target
   columns are null — which is all [satisfies] reads, so the examples of
   one signature satisfy the same requirements.  Returns the offers and
   the first example of each signature with its offer, both in order of
   first appearance. *)
let survey ~universe ~target_cols =
  let cols = Array.of_list target_cols in
  let at = Array.map (target_position target_cols) cols in
  let ncols = Array.length cols in
  let offers = Hashtbl.create 16 and order = ref [] and n = ref 0 in
  let signatures = Hashtbl.create 64 and firsts = ref [] in
  List.iter
    (fun e ->
      let key = Coverage.to_list (Example.coverage e) in
      let o =
        match Hashtbl.find_opt offers key with
        | Some o -> o
        | None ->
            let o =
              {
                coverage = Example.coverage e;
                index = !n;
                positive = false;
                negative = false;
                attr = Array.make (2 * ncols) false;
              }
            in
            incr n;
            Hashtbl.add offers key o;
            order := o :: !order;
            o
      in
      let pattern =
        if e.Example.positive then begin
          o.positive <- true;
          let p = Bytes.make ncols '0' in
          for k = 0 to ncols - 1 do
            let null = Value.is_null e.Example.target_tuple.(at.(k)) in
            if null then Bytes.set p k '1';
            o.attr.((2 * k) + Bool.to_int null) <- true
          done;
          Some (Bytes.unsafe_to_string p)
        end
        else begin
          o.negative <- true;
          None
        end
      in
      let signature = (o.index, pattern) in
      if not (Hashtbl.mem signatures signature) then begin
        Hashtbl.add signatures signature ();
        firsts := (e, o) :: !firsts
      end)
    universe;
  (List.rev !order, List.rev !firsts)

(* The requirements the offers call for, each with the index of its
   coverage.  The order is Def 4.2's, then 4.4's, then 4.5's, each by
   coverage in order of first appearance. *)
let requirements_of ~target_cols offers =
  let cols = Array.of_list target_cols in
  let when_ b r = if b then [ r ] else [] in
  List.map (fun o -> (Cover o.coverage, o.index)) offers
  @ List.concat_map
      (fun o ->
        when_ o.positive (Polarity (o.coverage, true), o.index)
        @ when_ o.negative (Polarity (o.coverage, false), o.index))
      offers
  @ List.concat_map
      (fun o ->
        List.concat
          (List.init (Array.length cols) (fun k ->
               when_ o.attr.(2 * k)
                 (Attr_null (o.coverage, cols.(k), false), o.index)
               @ when_ o.attr.((2 * k) + 1)
                   (Attr_null (o.coverage, cols.(k), true), o.index))))
      offers

let requirements ~universe ~target_cols =
  let offers, _ = survey ~universe ~target_cols in
  List.map fst (requirements_of ~target_cols offers)

let graph_requirements ~universe =
  List.filter
    (function Cover _ -> true | Polarity _ | Attr_null _ -> false)
    (requirements ~universe ~target_cols:[])

let filter_requirements ~universe =
  List.filter
    (function Polarity _ -> true | Cover _ | Attr_null _ -> false)
    (requirements ~universe ~target_cols:[])

let correspondence_requirements ~universe ~target_cols =
  List.filter
    (function Attr_null _ -> true | Cover _ | Polarity _ -> false)
    (requirements ~universe ~target_cols)

let missing ~universe ~target_cols illustration =
  requirements ~universe ~target_cols
  |> List.filter (fun req ->
         not (List.exists (fun e -> satisfies ~target_cols e req) illustration))

let check reqs ~target_cols illustration =
  List.for_all
    (fun req -> List.exists (fun e -> satisfies ~target_cols e req) illustration)
    reqs

let is_sufficient_graph ~universe ~target_cols illustration =
  check (graph_requirements ~universe) ~target_cols illustration

let is_sufficient_filters ~universe ~target_cols illustration =
  check (filter_requirements ~universe) ~target_cols illustration

let is_sufficient_correspondences ~universe ~target_cols illustration =
  check (correspondence_requirements ~universe ~target_cols) ~target_cols illustration

let is_sufficient ~universe ~target_cols illustration =
  check (requirements ~universe ~target_cols) ~target_cols illustration

(* Greedy set cover: repeatedly take the example satisfying the most
   still-unmet requirements, the first such in universe order.  Examples
   of one signature satisfy the same requirements and the first of them
   comes first, so each round scores only the first example of each
   signature: the one the per-example argmax would pick. *)
let select_greedy ~seed ~universe ~target_cols =
  Obs.with_span Obs.Names.sp_illustration_select @@ fun () ->
  let offers, firsts = survey ~universe ~target_cols in
  let reqs = Array.of_list (requirements_of ~target_cols offers) in
  let unmet =
    Array.map
      (fun (req, _) ->
        not (List.exists (fun e -> satisfies ~target_cols e req) seed))
      reqs
  in
  (* Requirement indices per coverage: an example can only satisfy its
     own coverage's requirements. *)
  let at_offer = Array.make (List.length offers) [] in
  for i = Array.length reqs - 1 downto 0 do
    let _, o = reqs.(i) in
    at_offer.(o) <- i :: at_offer.(o)
  done;
  let candidates =
    Array.of_list
      (List.map
         (fun (e, o) ->
           ( e,
             List.filter
               (fun i -> satisfies ~target_cols e (fst reqs.(i)))
               at_offer.(o.index) ))
         firsts)
  in
  let n_universe = List.length universe in
  let rec cover chosen remaining =
    if remaining = 0 then List.rev chosen
    else begin
      if Obs.enabled () then
        (* Each greedy round stands for scoring every example in the
           universe. *)
        Obs.add Obs.Names.illustration_candidates n_universe;
      let best = ref (-1) and best_gain = ref 0 in
      Array.iteri
        (fun k (_, sat) ->
          let gain = List.fold_left (fun g i -> if unmet.(i) then g + 1 else g) 0 sat in
          if gain > !best_gain then begin
            best := k;
            best_gain := gain
          end)
        candidates;
      (* Unsatisfiable requirements cannot arise: they were derived from
         the universe itself. *)
      assert (!best >= 0);
      let e, sat = candidates.(!best) in
      List.iter (fun i -> unmet.(i) <- false) sat;
      cover (e :: chosen) (remaining - !best_gain)
    end
  in
  let remaining = Array.fold_left (fun n u -> if u then n + 1 else n) 0 unmet in
  let chosen = seed @ cover [] remaining in
  if Obs.enabled () then
    Obs.add Obs.Names.illustration_selected (List.length chosen);
  chosen

let select ?(seed = []) ~universe ~target_cols () =
  select_greedy ~seed ~universe ~target_cols

(* Branch and bound over examples ordered by decreasing requirement gain.
   At each node: if every requirement is met, record; else pick the first
   unmet requirement and branch on each example satisfying it. *)
let select_exact ?(max_universe = 64) ~universe ~target_cols () =
  let greedy = select_greedy ~seed:[] ~universe ~target_cols in
  if List.length universe > max_universe then greedy
  else begin
    let reqs = Array.of_list (requirements ~universe ~target_cols) in
    let n_reqs = Array.length reqs in
    let best = ref (Array.of_list greedy) in
    let rec branch chosen met =
      if List.length chosen >= Array.length !best then ()
      else
        match
          (* first unmet requirement *)
          let rec find i = if i >= n_reqs then None else if met.(i) then find (i + 1) else Some i in
          find 0
        with
        | None -> best := Array.of_list (List.rev chosen)
        | Some i ->
            List.iter
              (fun e ->
                if satisfies ~target_cols e reqs.(i) then begin
                  let newly =
                    Array.init n_reqs (fun j ->
                        met.(j) || satisfies ~target_cols e reqs.(j))
                  in
                  branch (e :: chosen) newly
                end)
              universe
    in
    branch [] (Array.make n_reqs false);
    Array.to_list !best
  end
