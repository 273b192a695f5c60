(* A sharded submit/notify executor: K worker domains, one FIFO queue per
   shard.  Tasks submitted to the same shard run serially in submission
   order; distinct shards run concurrently.  This is the server's request
   execution plane — the event loop pins every session (strictly: every
   version store) to one shard, which is what turns "per-session serial,
   cross-session parallel" into a queueing discipline instead of a locking
   problem.

   Unlike [Pool] (batch combinators with a caller that participates and
   joins), this executor is fire-and-forget: the submitter never blocks.
   Completed tasks signal the owner through the [notify] callback — the
   server loop points it at a self-pipe so a blocked [Unix.select] wakes
   the moment a reply is ready. *)

type t = {
  shard_count : int;
  (* (submit time, task) per shard, FIFO *)
  queues : (float * (unit -> unit)) Queue.t array;
  mutex : Mutex.t;
  conds : Condition.t array;  (* one per shard: work available / stopping *)
  idle : Condition.t;  (* signalled when [in_flight] returns to 0 *)
  mutable in_flight : int;  (* submitted and not yet finished *)
  mutable stopping : bool;
  mutable domains : unit Domain.t array;
  notify : unit -> unit;
  (* Read by the owner's stats/gauge refresh from outside the mutex. *)
  dispatched_total : int Atomic.t;
  busy_now : int Atomic.t;
  wait_us_total : int Atomic.t;
}

(* Per-shard worker: pull, run (exceptions are the task's own business —
   the server's tasks catch everything and turn it into an error reply),
   publish domain-local Obs state, account, notify. *)
let worker_loop t shard =
  let q = t.queues.(shard) in
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty q && not t.stopping do
      Condition.wait t.conds.(shard) t.mutex
    done;
    if Queue.is_empty q then Mutex.unlock t.mutex
    else begin
      let submitted_at, task = Queue.pop q in
      Mutex.unlock t.mutex;
      let waited_us =
        int_of_float ((Unix.gettimeofday () -. submitted_at) *. 1e6)
      in
      Atomic.fetch_and_add t.wait_us_total (max 0 waited_us) |> ignore;
      Atomic.incr t.busy_now;
      (try task () with _ -> ());
      Obs.Domains.flush_worker ();
      Atomic.decr t.busy_now;
      Mutex.lock t.mutex;
      t.in_flight <- t.in_flight - 1;
      if t.in_flight = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.mutex;
      (try t.notify () with _ -> ());
      loop ()
    end
  in
  loop ()

let create ~workers ~notify =
  let shard_count = max 1 workers in
  let t =
    {
      shard_count;
      queues = Array.init shard_count (fun _ -> Queue.create ());
      mutex = Mutex.create ();
      conds = Array.init shard_count (fun _ -> Condition.create ());
      idle = Condition.create ();
      in_flight = 0;
      stopping = false;
      domains = [||];
      notify;
      dispatched_total = Atomic.make 0;
      busy_now = Atomic.make 0;
      wait_us_total = Atomic.make 0;
    }
  in
  t.domains <-
    Array.init shard_count (fun shard ->
        Pool.spawn (fun () -> worker_loop t shard));
  t

let shards t = t.shard_count

let submit t ~shard task =
  let shard = ((shard mod t.shard_count) + t.shard_count) mod t.shard_count in
  let submitted_at = Unix.gettimeofday () in
  Mutex.lock t.mutex;
  if t.stopping then begin
    Mutex.unlock t.mutex;
    invalid_arg "Workers.submit: executor is shut down"
  end;
  t.in_flight <- t.in_flight + 1;
  Queue.push (submitted_at, task) t.queues.(shard);
  Condition.signal t.conds.(shard);
  Mutex.unlock t.mutex;
  Atomic.incr t.dispatched_total

let in_flight t = Mutex.protect t.mutex (fun () -> t.in_flight)

let drain t =
  Mutex.lock t.mutex;
  while t.in_flight > 0 do
    Condition.wait t.idle t.mutex
  done;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Array.iter Condition.broadcast t.conds;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains;
  t.domains <- [||]

let dispatched t = Atomic.get t.dispatched_total
let busy t = Atomic.get t.busy_now
let wait_ms t = Atomic.get t.wait_us_total / 1000
