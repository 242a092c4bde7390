(** The functional simulator (Section 3.2's experimental vehicle).

    Replays a stream against a reactive controller: each event is scored
    against the decision the {e deployed} code embodies at that moment
    (which lags the controller by the optimization latency), then handed
    to the controller as an observation.

    Hookless runs never materialize per-event values: an explicit trace
    is consumed whole packed chunks at a time by {!run_chunk}, and
    without one the raw generator feeds the same fused
    {!Rs_core.Reactive.step_code}, so the per-event work is integer
    decode or generation, one controller step and integer scoring —
    nothing the minor heap ever sees. *)

type result = {
  total_events : int;
  total_instructions : int;
  correct : int;  (** Correct speculations (eliminated branches). *)
  incorrect : int;  (** Misspeculations. *)
  misspec_gap : Rs_util.Running_stats.t;
      (** Instruction distances between consecutive misspeculations. *)
  controller : Rs_core.Reactive.t;  (** Post-run controller state. *)
}

val run :
  ?label:string ->
  ?observer:(Rs_behavior.Stream.event -> Rs_core.Types.decision -> unit) ->
  ?observer_raw:(branch:int -> taken:bool -> instr:int -> code:int -> unit) ->
  ?on_transition:(Rs_core.Types.transition -> unit) ->
  ?trace:Rs_behavior.Trace_store.t ->
  Rs_behavior.Population.t ->
  Rs_behavior.Stream.config ->
  Rs_core.Params.t ->
  result
(** Run to completion.  [observer] sees every event with the decision it
    was scored against; [on_transition] fires at every controller
    transition.  Both default to no-ops.  [label] (default empty) tags
    this run's {!Rs_obs.Trace} events — transitions and the end-of-run
    [engine_run] summary — and costs nothing when tracing is off.

    [observer_raw] is the allocation-free variant of [observer]: the
    same hook point and ordering (after scoring, before the controller's
    observation), but the event arrives as plain integers and the
    decision as a {!Rs_core.Reactive.step_code}-style 2-bit [code].
    At most one of the two observers may be given.

    [trace] replays a prerecorded {!Rs_behavior.Trace_store} trace of
    the same (population, config) instead of regenerating the stream:
    the result — counters, misspeculation gaps, controller state,
    observer/transition hook sequence — is identical, the hot loop just
    iterates packed chunks at memory speed.  Without [trace] the stream
    is generated live (the raw generator for hookless and
    [observer_raw] runs, the event-record generator for a boxed
    [observer]).
    @raise Invalid_argument if the trace does not match the
    (population, config) pair, or both observers are given. *)

(** {2 Batched chunk interface}

    The building blocks of the hookless fast path, exposed for drivers
    that manage their own chunk iteration. *)

type batch = {
  b_controller : Rs_core.Reactive.t;
  mutable b_instr : int;  (** Instruction count after the last event. *)
  mutable b_correct : int;
  mutable b_incorrect : int;
  mutable b_last_misspec : int;
  b_gaps : Rs_util.Running_stats.t;
}
(** Scoring state threaded across {!run_chunk} calls. *)

val batch : Rs_core.Reactive.t -> batch
(** A fresh zeroed batch over this controller. *)

val run_chunk : batch -> int array -> int -> unit
(** [run_chunk b chunk len] feeds the first [len] packed events of
    [chunk] (encoding of {!Rs_behavior.Trace_store}) through the
    controller — one fused [step_code] per event — and accumulates the
    scores into [b].  Allocates nothing per event. *)

val correct_rate : result -> float
val incorrect_rate : result -> float
val misspec_distance : result -> float
(** Mean instructions between misspeculations ([infinity] if none). *)
