(** A fixed-size pool of worker domains fed from one mutex/condvar work
    queue.

    A pool sized [~jobs] spawns [jobs - 1] domains: the caller of
    {!Par.map} participates in its own batches, so total parallelism is
    [jobs] and a pool is never an extra thread of control sitting idle.
    Submitted tasks must not raise — batch runners trap exceptions
    per-item themselves. *)

type t

(** [spawn f] runs [f] on a new domain that first blocks SIGTERM and
    SIGINT, so those signals reach the main thread.  Every domain of
    this library ({!create} and [Workers.create]) is spawned this way. *)
val spawn : (unit -> 'a) -> 'a Domain.t

(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains. *)
val create : jobs:int -> t

(** The parallelism this pool was sized for (including the caller). *)
val jobs : t -> int

(** Number of spawned worker domains, [jobs t - 1]. *)
val workers : t -> int

(** Enqueue a task.  Tasks run in FIFO order as workers free up. *)
val submit : t -> (unit -> unit) -> unit

(** Stop accepting work, drain the queue, and join all workers.
    Idempotent. *)
val shutdown : t -> unit
