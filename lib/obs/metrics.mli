(** Process-global registry of named counters, gauges and fixed-bucket
    histograms.

    All recording operations are domain-safe and lock-free: counter and
    histogram cells are striped per domain and summed on read, so workers
    of a domain pool record without contention.  Registration is
    idempotent — asking for an existing name returns the same metric —
    and cheap enough to do once at module initialisation; recording is
    the hot operation.

    Recording is always on (the instrumented call sites sit off the
    simulator's per-event hot path); whether anything is {e printed} is
    the caller's choice, via {!render_summary}. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get or create the counter [name].
    @raise Invalid_argument if [name] is registered as another kind. *)

val gauge : string -> gauge

val histogram : string -> bounds:float array -> histogram
(** Get or create a histogram with one bucket per upper bound (an
    observation [x] lands in the first bucket with [x <= bound]) plus an
    overflow bucket.  [bounds] must be strictly increasing and non-empty;
    re-registering a name with different bounds is an error. *)

val incr : counter -> unit
val add : counter -> int -> unit

val set : gauge -> int -> unit
(** Last write wins; no cross-domain ordering is guaranteed. *)

val observe : histogram -> float -> unit

val counter_value : counter -> int
(** Sum over all domain stripes. *)

val gauge_value : gauge -> int

val histogram_counts : histogram -> int array
(** Merged per-bucket counts, length [Array.length bounds + 1] (the last
    entry is the overflow bucket). *)

val histogram_count : histogram -> int
(** Total observations across all buckets. *)

type value =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of { bounds : float array; counts : int array }

val snapshot : unit -> (string * value) list
(** Every registered metric with its merged value, sorted by name. *)

val render_summary : unit -> string
(** Human-readable multi-line summary of {!snapshot} (the [--metrics]
    end-of-run table). *)

val reset : unit -> unit
(** Zero every registered metric (registrations persist).  Tests only —
    not synchronised with concurrent writers. *)
