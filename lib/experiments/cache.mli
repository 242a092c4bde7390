(** Shared artifact cache for one experiment-suite run.

    The experiments of Sections 2–4 sweep the same 12 benchmarks over and
    over: figure2, figure3 and figure5 each rebuild the same populations
    and re-collect the same whole-run profiles, table3 re-runs figure5's
    baseline simulation, table4 and the claims checklist re-run figure5
    and figure2 outright.  This module memoises the three artifact kinds
    those loops share — built populations, collected {!Rs_sim.Profile}s
    and plain (hook-free) {!Rs_sim.Engine} results — keyed on the
    context's [(seed, scale, tau)] plus the benchmark, input and (for
    engine runs) controller parameters.  [jobs] is deliberately not part
    of the key: parallelism never changes results.

    Profiles are collected once per [(context, benchmark, input)] with a
    superset of every checkpoint window the suite asks for (the default
    {!Rs_core.Static.windows}, the context's compressed windows and
    figure3's 20,000-execution window), so all three figure experiments
    share one physical profile.  A request for a window outside the
    cached set upgrades the entry in place with the union.

    All entries are immutable once published and all operations are
    domain-safe: concurrent requests for one key compute it exactly once
    (latecomers block until the first computation publishes).  The cache
    is process-global — [rspec all] threads it through every experiment —
    and hit/miss counters (lock-free [Atomic.t]s, safe against concurrent
    pool workers) are exposed for the bench harness.  Every lookup also
    feeds the [cache.<kind>.hits]/[.misses] counters of
    {!Rs_obs.Metrics} and, when tracing is on, emits a ["cache"]
    {!Rs_obs.Trace} event tagged with the artifact kind and benchmark.

    Failure semantics: a compute body that raises is retried in place up
    to {!retry_limit} total attempts (each retry counted in
    [cache.<kind>.retries]), so a transient failure — an I/O blip, an
    {!Rs_fault.Fault.Injected} fault whose plan lets retries succeed —
    never poisons a key.  Only after the budget is exhausted is the
    exception published; later lookups (and waiters) on such a key
    re-raise it, counted as misses so the totals add up.  A {!reset}
    racing an in-flight computation is safe: publication checks a
    generation counter, so pre-reset results never resurrect into the
    post-reset table.  Compute bodies consult the [cache.build] /
    [cache.profile] / [cache.run] fault-injection sites. *)

type stats = {
  build_hits : int;
  build_misses : int;
  profile_hits : int;
  profile_misses : int;
  run_hits : int;
  run_misses : int;
}

val build :
  Context.t ->
  Rs_workload.Benchmark.t ->
  input:Rs_workload.Benchmark.input ->
  Rs_behavior.Population.t * Rs_behavior.Stream.config
(** Memoised {!Context.build}.  The population is immutable after
    construction, so sharing one across domains is safe. *)

val profile :
  ?windows:int array ->
  Context.t ->
  Rs_workload.Benchmark.t ->
  input:Rs_workload.Benchmark.input ->
  Rs_sim.Profile.t
(** Memoised {!Rs_sim.Profile.collect} over the memoised build.
    [windows] (default {!Rs_core.Static.windows}) lists the checkpoints
    the caller needs; the cached profile is guaranteed to contain them
    but may contain more.  Repeat requests return the physically same
    profile. *)

val run :
  Context.t ->
  Rs_workload.Benchmark.t ->
  input:Rs_workload.Benchmark.input ->
  Rs_core.Params.t ->
  Rs_sim.Engine.result
(** Memoised hook-free [Rs_sim.Engine.run] over the memoised build,
    keyed additionally on the (already compressed) parameters.  Callers
    that pass an [observer] or [on_transition] must keep calling the
    engine directly — hooks observe the run, so a cached replay would
    skip them. *)

val trace :
  Context.t ->
  Rs_workload.Benchmark.t ->
  input:Rs_workload.Benchmark.input ->
  Rs_behavior.Trace_store.t option
(** The packed branch-event trace for the memoised build, recorded once
    per [(seed, scale, tau, benchmark, input)] through
    {!Rs_behavior.Trace_store.cached} and replayed by every later
    consumer ({!run}, {!profile}, and the figure experiments that drive
    the engine with hooks) for as long as the store's LRU keeps it.  A
    failed recording is retried in place like a compute body (up to
    {!retry_limit} attempts), so an injected [trace_store.record] fault
    never fails the experiment.  Returns [None] when the trace store's
    capacity is 0 ([--trace-cache-mb 0] or [RS_TRACE_CACHE_MB=0]) —
    callers pass the option straight to the [?trace] parameter of the
    sim layer, which then regenerates live.  Replay is byte-identical to
    regeneration, so the capacity never changes results, only speed. *)

val fabricated_trace :
  key:string ->
  Rs_behavior.Population.t ->
  Rs_behavior.Stream.config ->
  Rs_behavior.Trace_store.t
(** {!Rs_behavior.Trace_store.cached} for fabricated (non-ckey)
    populations — the adversarial scenario entries — with the same
    bounded retry as {!trace}.  [key] must encode everything the
    recording depends on (scenario name, seed, scale, tau).  Nothing
    here pins the trace: it stays shared only while the store's LRU
    holds it, and at capacity 0 every call records afresh (fabricated
    traces have no live-generation fallback). *)

val stats : unit -> stats
(** Counters since the last {!reset} (or process start). *)

val hit_rate : stats -> float
(** Overall hits / (hits + misses), 0 if nothing was requested. *)

val describe : stats -> string
(** One-line [hits/misses] summary per artifact kind. *)

val retry_limit : unit -> int
(** Total attempts (first try included) a compute body is given before
    its exception is published.  Default 3. *)

val set_retry_limit : int -> unit
(** Change {!retry_limit}; values below 1 are clamped to 1. *)

val reset : unit -> unit
(** Drop every entry and zero the counters (tests and benches), including
    the process-global {!Rs_behavior.Trace_store} LRU.  Safe against
    in-flight computations: they complete for their own caller but
    publish nothing (see the generation check above). *)

(**/**)

module Private : sig
  type ('k, 'v) memo

  val memo : string -> ('k, 'v) memo

  val find_or_compute : ('k, 'v) memo -> bench:string -> 'k -> (unit -> 'v) -> 'v
end
(** Test-only access to the raw memo machinery, so the retry / reset-race
    semantics can be exercised without simulating benchmarks.  Private
    memos participate in {!reset}. *)
