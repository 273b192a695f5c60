type t = {
  pool_jobs : int;
  mutable workers : unit Domain.t array;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work_available : Condition.t;
  mutable stop : bool;
}

(* Workers pull tasks FIFO until [stop] is raised with the queue empty.
   After each task the worker publishes its domain-local observability
   state ([Obs.Domains.flush_worker]), so by the time a batch runner has
   counted a task as completed its counters and spans are already
   visible process-wide. *)
let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stop do
      Condition.wait t.work_available t.mutex
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mutex
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      (try task () with _ -> ());
      Obs.Domains.flush_worker ();
      loop ()
    end
  in
  loop ()

(* A new domain's thread inherits the signal mask of the thread that
   spawns it; a spawned domain blocks SIGTERM and SIGINT before it runs
   anything.  The kernel then delivers those signals to the main thread,
   where a blocking [select] returns EINTR and the OCaml handler runs.
   Left unblocked, a signal can land on a worker idling in a condition
   wait, which never reaches a poll point to run the handler, and the
   signal is lost. *)
let spawn f =
  Domain.spawn (fun () ->
      ignore (Unix.sigprocmask SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
      f ())

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      pool_jobs = jobs;
      workers = [||];
      queue = Queue.create ();
      mutex = Mutex.create ();
      work_available = Condition.create ();
      stop = false;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> spawn (fun () -> worker_loop t));
  t

let jobs t = t.pool_jobs
let workers t = Array.length t.workers

let submit t task =
  Mutex.lock t.mutex;
  Queue.push task t.queue;
  Condition.signal t.work_available;
  Mutex.unlock t.mutex

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||]
