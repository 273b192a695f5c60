module Pool = Pool
module Workers = Workers

let sequential = None

(* --- batch runner --- *)

(* One batch = one shared cursor over the item array.  The caller and up to
   [Pool.workers pool] helper tasks race on the cursor; every item's result
   (or exception) lands in its input slot, so assembly order is independent
   of execution order.  Helpers flush their observability state *before*
   counting an item completed, and the caller only reads results after
   seeing [completed = n] under the batch mutex — that lock pairing is what
   publishes both the result slots and the worker-side Obs state. *)
let run_batch pool items f =
  let n = Array.length items in
  let results = Array.make n None in
  let errors = Array.make n None in
  let mutex = Mutex.create () in
  let batch_done = Condition.create () in
  let next = ref 0 in
  let completed = ref 0 in
  let grab () =
    Mutex.lock mutex;
    let i = !next in
    if i < n then incr next;
    Mutex.unlock mutex;
    if i < n then Some i else None
  in
  let mark () =
    Mutex.lock mutex;
    incr completed;
    if !completed = n then Condition.broadcast batch_done;
    Mutex.unlock mutex
  in
  let run_item i =
    match f items.(i) with
    | v -> results.(i) <- Some v
    | exception e -> errors.(i) <- Some e
  in
  let helper () =
    let rec go () =
      match grab () with
      | None -> ()
      | Some i ->
          run_item i;
          Obs.Domains.flush_worker ();
          mark ();
          go ()
    in
    go ()
  in
  for _ = 1 to min (Pool.workers pool) (n - 1) do
    Pool.submit pool helper
  done;
  let rec drain () =
    match grab () with
    | None -> ()
    | Some i ->
        run_item i;
        mark ();
        drain ()
  in
  drain ();
  Mutex.lock mutex;
  while !completed < n do
    Condition.wait batch_done mutex
  done;
  Mutex.unlock mutex;
  (* The caller adopts parked worker state whatever domain it runs on —
     the server executes requests (and so batches) on worker domains, and
     never adopting there would leak parked spans.  Under concurrent
     batches adoption is best-effort attribution: a caller can graft
     another in-flight batch's just-parked helper spans into its own open
     span.  Histogram replay is internally locked, so this is safe. *)
  Obs.Domains.adopt_pending ();
  Array.iteri
    (fun _ e -> match e with Some e -> raise e | None -> ())
    errors;
  Array.map
    (function Some v -> v | None -> assert false (* completed = n *))
    results

(* --- process-wide pool registry --- *)

let max_jobs = 64
let clamp_jobs j = max 1 (min max_jobs j)

let jobs_ref =
  ref
    (match Sys.getenv_opt "CLIO_JOBS" with
    | Some s -> ( match int_of_string_opt (String.trim s) with
                  | Some j -> clamp_jobs j
                  | None -> 1)
    | None -> 1)

let default_jobs () = !jobs_ref
let set_default_jobs j = jobs_ref := clamp_jobs j

let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 4
let pools_mutex = Mutex.create ()

let shutdown_all () =
  let ps =
    Mutex.protect pools_mutex (fun () ->
        let ps = Hashtbl.fold (fun _ p acc -> p :: acc) pools [] in
        Hashtbl.reset pools;
        ps)
  in
  List.iter Pool.shutdown ps

let () = at_exit shutdown_all

let get_pool ~jobs =
  let jobs = clamp_jobs jobs in
  if jobs <= 1 then None
  else
    Some
      (Mutex.protect pools_mutex (fun () ->
           match Hashtbl.find_opt pools jobs with
           | Some p -> p
           | None ->
               let p = Pool.create ~jobs in
               Hashtbl.replace pools jobs p;
               p))

(* --- combinators --- *)

let map ?pool f xs =
  match (pool, xs) with
  | None, _ | _, ([] | [ _ ]) -> List.map f xs
  | Some p, _ -> Array.to_list (run_batch p (Array.of_list xs) f)

let mapi ?pool f xs =
  match (pool, xs) with
  | None, _ | _, ([] | [ _ ]) -> List.mapi f xs
  | Some p, _ ->
      Array.to_list
        (run_batch p (Array.of_list (List.mapi (fun i x -> (i, x)) xs))
           (fun (i, x) -> f i x))

let init ?pool n f =
  match pool with
  | None -> Array.init n f
  | Some p ->
      (* Chunked so one batch item amortizes the per-item bookkeeping over
         many cheap [f] calls (subsumption checks, keep-flags).  4 chunks
         per job keeps the tail balanced without oversubmitting. *)
      let chunk = max 64 ((n + (4 * Pool.jobs p) - 1) / (4 * Pool.jobs p)) in
      if n <= chunk then Array.init n f
      else begin
        let ranges = ref [] in
        let lo = ref 0 in
        while !lo < n do
          ranges := (!lo, min n (!lo + chunk)) :: !ranges;
          lo := !lo + chunk
        done;
        let parts =
          run_batch p
            (Array.of_list (List.rev !ranges))
            (fun (lo, hi) -> Array.init (hi - lo) (fun i -> f (lo + i)))
        in
        Array.concat (Array.to_list parts)
      end

let iter ?pool f xs =
  match (pool, xs) with
  | None, _ | _, ([] | [ _ ]) -> List.iter f xs
  | Some p, _ -> ignore (run_batch p (Array.of_list xs) f : unit array)
