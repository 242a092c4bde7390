(** Record-once / replay-many packed branch traces.

    A {!Stream} is pure in its [(population, config)] pair, yet every
    consumer regenerates it from scratch — one heap-allocated event
    record, an alias draw and a per-branch behaviour sample per event.
    When the same stream is evaluated under many controller parameters
    (the figure5/table3/table4 sweeps, the ablations), regeneration is
    pure waste.  This module runs the generator {e once} and packs the
    result into a struct-of-arrays trace — branch id, taken bit and
    instruction delta packed into one immediate integer per event,
    stored in preallocated fixed-size chunks with no per-event boxing —
    that replays at memory speed.

    Replay is exact: {!replay} yields the same [Stream.event] sequence
    (branch, outcome, exec_index, instruction count) that {!Stream.iter}
    produced during {!record}, so any consumer switched to a trace is
    byte-identical to one regenerating the stream.  Consumers that do
    not need boxed events (the simulator's hot loop) iterate the packed
    chunks directly via {!iter_packed} and the [packed_*] decoders.

    A process-global, capacity-bounded LRU ({!cached}) shares traces
    across consumers, keyed on a caller-supplied population key plus the
    stream config.  Capacity defaults to {!default_capacity_mb} MB,
    overridable with [$RS_TRACE_CACHE_MB] or {!set_capacity_bytes}
    (the CLI's [--trace-cache-mb]); a capacity of 0 disables caching
    (every {!cached} call records afresh) and turns {!replay_enabled}
    off.  Lookups feed the
    [trace_store.hits] / [.misses] / [.evictions] counters and the
    [trace_store.bytes] / [.entries] gauges of {!Rs_obs.Metrics} and,
    when tracing is on, emit ["trace_store"] {!Rs_obs.Trace} events.
    All cache operations are domain-safe; concurrent requests for one
    key record it exactly once.

    Recording consults the ["trace_store.record"] fault-injection site
    through {!fault_hook} (wired up by [Rs_fault.Fault.configure],
    mirroring the pool and trace hooks). *)

type t
(** An immutable packed trace. *)

val record : Population.t -> Stream.config -> t
(** Run the stream generator once and pack every event.  @raise
    Invalid_argument on a config {!Stream.iter} would reject, or on one
    whose events cannot be packed (instruction deltas >= 2^20). *)

val of_events :
  n_branches:int ->
  config:Stream.config ->
  ((branch:int -> taken:bool -> instr:int -> unit) -> unit) ->
  t
(** Pack an explicit event sequence that did {e not} come from a
    {!Stream} generator — merged multi-context streams, hand-built
    schedules.  [of_events ~n_branches ~config emit] calls [emit] once
    with a push function the caller must invoke exactly [config.length]
    times, in stream order, with non-decreasing [instr]; [exec_index]
    is reconstructed per branch at replay, exactly as {!record} does.
    The result replays through every consumer of packed traces
    (including the batched engine path) like a recorded trace whose
    population has [n_branches] branches.
    @raise Invalid_argument on an out-of-range branch id, a decreasing
    or >= 2^20 instruction delta, an event count different from
    [config.length], or a config {!Stream.iter} would reject. *)

val config : t -> Stream.config
val n_branches : t -> int
val length : t -> int
(** Number of events; equals [(config t).length]. *)

val bytes : t -> int
(** Heap footprint of the packed chunks (the unit of LRU accounting). *)

val exec_counts : t -> int array
(** Per-branch execution totals, captured at record time: a fresh copy
    of exactly what {!Stream.iter_counted} returned. *)

val replay : t -> (Stream.event -> unit) -> unit
(** Feed the recorded events to the consumer, in order, reconstructing
    [exec_index] and [instr] exactly as generation produced them. *)

val replay_counted : t -> (Stream.event -> unit) -> int array
(** {!replay}, returning the per-branch execution totals (the
    drop-in replacement for {!Stream.iter_counted}). *)

val matches : t -> Population.t -> Stream.config -> bool
(** Whether the trace was recorded for this (population size, config) —
    the cheap sanity check consumers run before replaying. *)

(** {2 Chunked access (the simulator's fast path)}

    Events are packed one per integer: bit 0 is the taken flag, bits
    1-20 the instruction delta, the remaining bits the branch id.
    [iter_packed f] calls [f chunk len] for each chunk in order; only
    the first [len] entries of the final chunk are live. *)

val chunk_size : int
val iter_packed : t -> (int array -> int -> unit) -> unit

val fold_packed_chunks : t -> init:'a -> ('a -> int array -> int -> 'a) -> 'a
(** [fold_packed_chunks t ~init f] threads an accumulator through
    [f acc chunk len] for each chunk in order — the batch decode entry
    point: one call per 32k-event chunk, everything per-event is
    mask-and-shift on immediate integers inside the consumer's own loop
    (no closure per event, no boxing). *)

val packed_branch : int -> int
val packed_taken : int -> bool
val packed_delta : int -> int

(** {2 Automatic record-then-replay}

    Simulation entry points called {e without} an explicit trace hand
    their (population, config) pair to {!auto}: the stream is recorded
    once (keyed on the population's {e physical} identity plus the
    structural config, held in a small bounded FIFO of
    {!auto_capacity} entries) and every later pass over the same pair
    decodes the packed chunks instead of regenerating.  Replay is exact,
    so this is invisible except in speed. *)

val auto : Population.t -> Stream.config -> t option
(** The memoized trace for this (population, config), recording on
    first sight — or [None] when the trace-cache capacity is zero. *)

val auto_capacity : int

val replay_enabled : unit -> bool
(** [capacity_bytes () > 0].  A zero capacity is the one switch that
    turns record-once/replay-many off everywhere: {!auto} and the
    experiment cache's traces return [None], so every stream regenerates
    live — results are identical either way. *)

(** {2 The process-global LRU} *)

val cached : key:string -> Population.t -> Stream.config -> t
(** Return the trace for [(key, config)], recording it on a miss.  [key]
    must identify the population (equal keys with equal configs must
    mean identical streams — the caller's contract).  Entries are
    evicted least-recently-used first whenever the packed bytes held
    exceed the capacity; a single trace larger than the whole capacity
    is returned uncached. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** traces currently held *)
  bytes : int;  (** packed bytes currently held *)
}

val stats : unit -> stats

val default_capacity_mb : int
val env_var : string
(** ["RS_TRACE_CACHE_MB"], read once at startup. *)

val capacity_bytes : unit -> int

val set_capacity_bytes : int -> unit
(** Negative values are clamped to 0; shrinking evicts immediately. *)

val clear : unit -> unit
(** Drop every cached trace and zero the hit/miss/eviction counters. *)

val fault_hook : (site:string -> key:string -> unit) ref
(** Consulted at the ["trace_store.record"] site before each recording.
    Default no-op.  Not for general use — install [Rs_fault.Fault] plans
    via its [configure]. *)
