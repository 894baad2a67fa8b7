(** A small fixed-size domain pool: spawn once, share a FIFO work queue,
    hand out futures.  No libraries — just [Domain], [Mutex],
    [Condition] and [Atomic] from the stdlib.

    The pool is built for {e deterministic} parallelism: callers submit
    pure tasks and merge the results themselves in a fixed order
    ({!map_list}/{!map_array} already do so), which is how the mapping,
    campaign, dwell and serve layers reproduce byte-identical output at
    any [jobs] count.

    Blocking [await] {e helps}: while the awaited future is pending, the
    waiting domain executes queued tasks from the same submission group
    instead of going idle.  Helping makes nested parallelism safe — a
    task running on a worker may itself call {!map_array} on the same
    pool without deadlock, and a pool with [jobs = 1] (no worker
    domains at all) degenerates to plain in-order sequential execution. *)

type t

type 'a future

val create : jobs:int -> t
(** A pool executing on [jobs] domains in total: the caller plus
    [jobs - 1] spawned workers.  [jobs = 1] spawns nothing.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task.  The closure must not depend on domain-local state
    (it may run on any domain of the pool, including the caller's). *)

val await : t -> 'a future -> 'a
(** Block until the future is resolved, helping with same-group queued
    tasks meanwhile.  Re-raises the task's exception (with its original
    backtrace) if it failed. *)

val submit_list : t -> (unit -> 'a) list -> 'a future list
(** Enqueue every thunk under one shared submission group — the
    coarse-grained counterpart of {!map_array} for work items that are
    themselves big (a whole slot group's verification each).  Awaiting
    any returned future helps with the other still-queued thunks of
    the same list, so nested parallelism on one pool stays
    deadlock-free. *)

val await_list : t -> 'a future list -> 'a list
(** {!await} each future in list order (the merge point callers use to
    keep results deterministic). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel map preserving order.  Work is submitted in contiguous
    chunks (several elements per future when the input is large, so the
    queue overhead amortises) and the results are merged in index
    order.  With [jobs = 1] this is exactly [Array.map].  If several
    elements raise, the exception of the smallest index is re-raised —
    the same one a sequential run would have surfaced. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_array} over a list, preserving order. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Only call when no task is in
    flight; pending futures of a shut-down pool never resolve.
    Idempotent. *)

(** {2 Process default}

    One shared pool, sized by the [--jobs] CLI flag or the
    [CPSDIM_JOBS] environment variable (default 1 = sequential).  The
    coarse parallel sites — [Mapping.first_fit] candidate probes,
    [Campaign.run] trials, [Dwell.compute] rows and the serve layer's
    per-group sharding — all run on this pool.  A single search
    ({!Search}) never uses it. *)

val default : unit -> t
(** The shared pool, created on first use with {!default_jobs}. *)

val default_jobs : unit -> int
(** Current default size: the last {!set_default_jobs}, else
    [CPSDIM_JOBS], else 1. *)

val env_jobs : unit -> int
(** The [CPSDIM_JOBS] environment variable as a job count: unset reads
    as 1; a value that is not a positive integer also reads as 1 but
    additionally emits a one-time stderr warning naming the rejected
    value (a misconfigured fleet must not {e silently} run
    sequential).  Exposed for tests. *)

val set_default_jobs : int -> unit
(** Resize the default pool (shutting the previous one down if its size
    changes).  @raise Invalid_argument when [jobs < 1]. *)
