(** A pool of persistent worker domains for job-level parallelism.

    [Domain.spawn] costs a thread, a minor heap and a handshake with
    every running domain. The pool spawns each worker once and hands it
    tasks over a mutex/condition pair, so repeated {!run_queue} calls
    (batch chains, explore schedule chunks) pay no spawn cost. *)

type t

exception Pool_closed
(** Raised by {!run_queue} after {!shutdown}: submitting to a stopped
    pool would otherwise park the task forever. *)

exception Worker_lost of int
(** Raised by {!run_queue} when a worker domain died mid-call (slot
    index). The tasks that did complete are lost with the call; the slot
    is respawned transparently on the next call, so the caller's retry
    runs on a healthy pool. *)

val create : unit -> t
(** A pool with no workers; they are spawned on demand by {!run_queue}. *)

val global : unit -> t
(** The process-wide pool, shut down automatically at exit. *)

val run_queue : t -> workers:int -> (unit -> 'a) array -> ('a, exn) result array
(** [run_queue t ~workers fns] drains the [fns] through at most [workers]
    concurrent slots (slot 0 on the calling domain, slot [s >= 1] on
    worker [s - 1]) pulling task indices off a shared counter. Result
    order is deterministic ([i]-th result is [fns.(i)]'s outcome; an
    exception is captured as [Error] for that task only); task-to-slot
    placement is {e not}. Each task binds its slot's {!Obs.Timeline}
    lane. The whole drain is serialised with other pool calls — tasks
    must never re-enter the pool (a nested {!run_queue} self-deadlocks).
    Raises {!Pool_closed} after {!shutdown} and {!Worker_lost} when a
    worker died mid-drain (remaining results of that call are lost; the
    slot respawns on the next call). *)

val shutdown : t -> unit
(** Stop and join every worker, then close the pool: subsequent
    {!run_queue} calls raise {!Pool_closed} instead of hanging on a
    stopped worker. Idempotent — a second call is a no-op. In-flight
    calls must have returned before the first call. *)
