(** A fixed-size domain pool (stdlib only: [Domain] + [Mutex] /
    [Condition]).

    [create ~jobs] spawns [jobs - 1] worker domains; the submitting
    domain itself participates in every batch as worker [0], so
    [jobs = 1] spawns nothing and runs tasks inline in submission
    order — the zero-overhead sequential baseline.

    Batches are synchronous: {!run_list} returns only after every
    task has finished (or been skipped after a failure), and the
    queue mutex publishes all task writes to the caller, so data
    produced by one batch can be read freely by the next without
    further synchronization. *)

type t

val create : jobs:int -> t
(** @raise Invalid_argument if [jobs < 1]. *)

val jobs : t -> int

val run_list : t -> (int -> unit) list -> unit
(** Run every task, passing each the id (0 .. jobs-1) of the worker
    domain executing it — tasks index per-domain scratch state with
    it.  Tasks start in submission order (put the heaviest first).
    If a task raises, remaining queued tasks are skipped and the
    exception of the lowest-indexed failing task is re-raised here
    with its backtrace.  Not reentrant: one batch at a time.
    @raise Invalid_argument after {!shutdown} or from inside a task. *)

val run_fun : t -> int -> (int -> int -> unit) -> unit
(** [run_fun p k f] = [run_list p] over [f 0; …; f (k-1)], each
    receiving [(task_index, worker_id)]. *)

val shutdown : t -> unit
(** Stop and join all worker domains.  Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
