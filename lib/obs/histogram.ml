type stats = {
  n : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
  buckets : int array;
}

(* Retention bound for raw observations.  Below it percentiles are exact;
   beyond it the sample array becomes a uniform reservoir (algorithm R) of
   this size and percentiles are reservoir estimates.  Count, sum, mean,
   min, max and the exposition buckets stay exact at any volume — only the
   percentile estimator degrades, and it degrades gracefully (a 4096-sample
   uniform reservoir pins p99 to well under a percentile point of error).
   Before the cap existed a long-lived daemon retained every observation
   forever: 8 bytes x requests x histograms, an unbounded leak. *)
let reservoir_cap = 4096

(* Fixed bucket upper bounds (inclusive, Prometheus [le] semantics) for the
   text exposition: a 1-2.5-5 ladder wide enough for both sub-millisecond
   operator spans and multi-second requests, in milliseconds.  Counts are
   maintained exactly on every observation, independent of the reservoir. *)
let bucket_bounds =
  [|
    0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.;
    250.; 500.; 1000.; 2500.; 5000.; 10000.;
  |]

type t = {
  name : string;
  mutable n : int;  (* total observations, beyond the reservoir *)
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  (* Raw observations for percentiles: the first [reservoir_cap] exactly,
     a uniform reservoir thereafter.  Grows by doubling up to the cap; only
     written when observability is enabled, so disabled-mode cost is
     unchanged. *)
  mutable samples : float array;
  (* Per-bucket (non-cumulative) counts; last slot is the +Inf overflow. *)
  buckets : int array;
  (* Deterministic per-histogram stream for reservoir replacement. *)
  rng : Random.State.t;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let rev_order : t list ref = ref []

(* Handles are created from worker domains too (a span name's first use may
   happen inside a pool task), so registration is locked.  Sample recording
   is locked separately ([record_mutex] below). *)
let registry_mutex = Mutex.create ()

let make name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some h -> h
      | None ->
          let h =
            {
              name;
              n = 0;
              sum = 0.;
              min_v = infinity;
              max_v = neg_infinity;
              samples = [||];
              buckets = Array.make (Array.length bucket_bounds + 1) 0;
              rng = Random.State.make [| Hashtbl.hash name |];
            }
          in
          Hashtbl.replace registry name h;
          rev_order := h :: !rev_order;
          h)

let name h = h.name

(* Serializes every sample-array mutation and read.  Main-domain spans
   record directly; worker-domain observations are parked and replayed by
   whichever domain calls [adopt_pending] — with the server running
   requests on several worker domains at once, "whichever domain" is no
   longer always the main one, so recording must be safe from any
   domain. *)
let record_mutex = Mutex.create ()

(* Retained sample count: everything up to the cap, the reservoir after. *)
let retained h = min h.n reservoir_cap

let bucket_index v =
  let rec go i =
    if i >= Array.length bucket_bounds then i
    else if v <= bucket_bounds.(i) then i
    else go (i + 1)
  in
  go 0

let record_locked h v =
  (if h.n < reservoir_cap then begin
     if h.n >= Array.length h.samples then begin
       let cap = min reservoir_cap (max 16 (2 * Array.length h.samples)) in
       let grown = Array.make cap 0. in
       Array.blit h.samples 0 grown 0 h.n;
       h.samples <- grown
     end;
     h.samples.(h.n) <- v
   end
   else
     (* Algorithm R: observation i (0-based) replaces a uniformly chosen
        slot with probability cap/(i+1), keeping every prefix a uniform
        sample of the stream so far. *)
     let j = Random.State.int h.rng (h.n + 1) in
     if j < reservoir_cap then h.samples.(j) <- v);
  h.buckets.(bucket_index v) <- h.buckets.(bucket_index v) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.min_v then h.min_v <- v;
  if v > h.max_v then h.max_v <- v

let record h v = Mutex.protect record_mutex (fun () -> record_locked h v)

(* Worker-domain observations are buffered domain-locally (newest first),
   parked in [pending] when the task completes, and replayed into the real
   histograms after the batch joins — by the batch's caller, whatever
   domain that is (the locked [record] makes the replay safe). *)
let buffer_key : (t * float) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let pending_mutex = Mutex.create ()
let pending : (t * float) list ref = ref []

let observe h v =
  if !Switch.on then
    if Domain.is_main_domain () then record h v
    else begin
      let b = Domain.DLS.get buffer_key in
      b := (h, v) :: !b
    end

let flush_worker () =
  let b = Domain.DLS.get buffer_key in
  match !b with
  | [] -> ()
  | obs ->
      b := [];
      Mutex.protect pending_mutex (fun () -> pending := obs @ !pending)

let adopt_pending () =
  let obs =
    Mutex.protect pending_mutex (fun () ->
        let o = !pending in
        pending := [];
        o)
  in
  List.iter (fun (h, v) -> record h v) (List.rev obs)

(* Nearest-rank percentile on sorted samples: the smallest value with at
   least q% of the observations at or below it. *)
let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let percentile h q =
  let sorted =
    Mutex.protect record_mutex (fun () -> Array.sub h.samples 0 (retained h))
  in
  Array.sort compare sorted;
  nearest_rank sorted q

let stats h : stats =
  let sorted, n, sum, min_v, max_v, buckets =
    Mutex.protect record_mutex (fun () ->
        ( Array.sub h.samples 0 (retained h),
          h.n,
          h.sum,
          h.min_v,
          h.max_v,
          Array.copy h.buckets ))
  in
  Array.sort compare sorted;
  let p = nearest_rank sorted in
  {
    n;
    sum;
    mean = (if n = 0 then 0. else sum /. float_of_int n);
    min = (if n = 0 then 0. else min_v);
    max = (if n = 0 then 0. else max_v);
    p50 = p 50.;
    p90 = p 90.;
    p99 = p 99.;
    buckets;
  }

let sample_count h = Mutex.protect record_mutex (fun () -> retained h)

let find name =
  Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt registry name)

let all () = Mutex.protect registry_mutex (fun () -> List.rev !rev_order)

let reset_all () =
  Mutex.protect pending_mutex (fun () -> pending := []);
  List.iter
    (fun h ->
      Mutex.protect record_mutex (fun () ->
          h.n <- 0;
          h.sum <- 0.;
          h.min_v <- infinity;
          h.max_v <- neg_infinity;
          h.samples <- [||];
          Array.fill h.buckets 0 (Array.length h.buckets) 0))
    (all ())
