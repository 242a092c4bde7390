(** Work-stealing domain pool.

    A pool owns [jobs - 1] worker domains, each with a private
    work-stealing deque ({!Deque}): owners push and pop at the bottom
    (LIFO), idle executors steal from the top (FIFO, biggest sub-range
    first).  The caller of {!map_range}/{!map_ordered} is the remaining
    executor, so a pool sized [jobs] computes with exactly [jobs]-way
    parallelism and a pool sized 1 never spawns a domain at all (maps
    degenerate to strict left-to-right [Array.map], byte-for-byte).

    {!map_range} exposes a sweep as splittable sub-ranges: the range is
    split in half lazily — fork the right half where a thief can steal
    it, descend into the left, stop at [cutoff] — so load balances
    without any central division of labour.  Results are always joined
    in input order: a pure element function makes any map equivalent to
    its sequential form regardless of [jobs], the property the
    experiment layer relies on for its [--jobs]-independence guarantee.

    Nested use is supported: a task may itself map on the same pool.
    While an inner call waits for its results it helps — running its own
    deque, the posted-thunk inbox, or stolen tasks of other in-flight
    maps — so nesting adds no deadlock and wastes no worker.

    Lifecycle: a pool is live from {!create} until {!close} completes.
    Mapping on a closed pool raises {!Closed} rather than silently
    running caller-only; closing a pool with maps in flight defers the
    shutdown until the last of them finishes. *)

type t

exception Closed
(** Raised by the mapping functions and {!post} on a pool whose
    {!close} has completed. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains.  [jobs] defaults
    to {!Domain.recommended_domain_count}; values below 1 are clamped to
    1.  Pools are independent; prefer {!shared} for the process-wide
    one. *)

val jobs : t -> int
(** The parallelism width this pool was created with. *)

val map_range : t -> ?cutoff:int -> lo:int -> hi:int -> (int -> 'a) -> 'a array
(** [map_range t ~lo ~hi f] computes [[| f lo; …; f (hi - 1) |]] by
    splitting [lo, hi) into stealable sub-ranges; sub-ranges of at most
    [cutoff] elements (default 1) run sequentially.  Returns [[||]] when
    [hi <= lo].  On a [jobs = 1] pool the range runs strictly left to
    right in the calling domain.

    Error aggregation: if any application raises, the exception of the
    {e lowest-indexed} failing element is re-raised in the caller after
    all scheduled work settles (deterministic regardless of which
    executor failed first), with the {e original} backtrace preserved
    via [Printexc.raise_with_backtrace].  Additional failures are
    counted in the [pool.suppressed_failures] metric rather than
    silently discarded.  The pool remains usable after a failed map.
    Raises {!Closed} if the pool has been shut down. *)

val parallel_for : t -> ?cutoff:int -> lo:int -> hi:int -> (int -> unit) -> unit
(** {!map_range} for effects only. *)

val map_ordered : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_ordered t f arr] applies [f] to every element through
    {!map_range} (cutoff 1) and returns the results in input order.
    Adds the per-element observability of the experiment runner: a
    [pool.task] fault-injection site keyed by index and task start/stop
    trace events.  Same error contract as {!map_range}. *)

val run_all : t -> (unit -> 'a) list -> 'a list
(** Heterogeneous fan-out: run every thunk (concurrently, order
    unspecified) and return their results in list order.  Same exception
    contract as {!map_ordered}. *)

val post : t -> (unit -> unit) -> unit
(** Fire-and-forget: enqueue a thunk on the pool's inbox and return
    immediately.  The thunk runs on whichever executor drains it next;
    there is no completion notification.  A raising posted thunk never
    kills its executor — every task runs under a guard that traps the
    exception and counts it in [pool.worker_failures].  Thunks still
    queued when the pool shuts down are drained by the closing caller in
    submission order ({!close} below), so posts are never silently
    dropped — in particular on a [jobs = 1] pool, which has no worker
    domains and otherwise only drains its inbox when a concurrent map
    helps.  Raises {!Closed} on a shut-down pool. *)

val close : t -> unit
(** Shut the workers down, join their domains, then drain: any tasks
    still queued (posted thunks first, FIFO; then leftover stealable
    tasks) run in the closing caller before [close] returns.  Called
    while maps are in flight, it retires the pool instead: those maps
    (and their nested maps) run to completion, the last one's epilogue
    performs the shutdown and drain, and only then do new maps raise
    {!Closed}.  Idempotent. *)

val shared : jobs:int -> t
(** The process-wide pool, created on first use.  Asking for a different
    [jobs] than the live shared pool has closes it (deferring while it
    still has maps in flight, so a caller holding the old pool keeps a
    working one) and creates a fresh pool, so a long-lived process
    follows the most recent request. *)

(** {1 Observability} *)

type stats = {
  tasks : int;
  steals : int;
  splits : int;
  spec_started : int;
      (** Always 0: the pool runs no speculative tasks.  Kept only because
          the benchmark probe ([perfbench/probe/probe.ml]) reads it. *)
  spec_cancelled : int;  (** Always 0, for the same reason. *)
  worker_failures : int;
  suppressed_failures : int;
}

val stats : unit -> stats
(** Process-wide scheduler counters (the [pool.*] metrics of
    {!Rs_obs.Metrics}, summed over every pool). *)

val describe : stats -> string
(** One-line rendering for [--pool-stats]: tasks, steals and splits. *)

val fault_hook : (site:string -> key:string -> unit) ref
(** Wiring point for [Rs_fault]: consulted at the ["pool.task"] and
    ["pool.worker_start"] injection sites.  The default is a no-op; an
    exception from the hook fails the task (re-raised by the map like
    any task error) or kills the starting worker (the pool degrades to
    fewer helpers, counted in [pool.worker_failures]).  Not for general
    use — install {!Rs_fault.Fault} plans via its [configure]. *)
