(** Section 2.1's profitability inequality.

    Speculation pays when
    [correct_preds * benefit > incorrect_preds * penalty], i.e. when the
    correct-to-incorrect ratio exceeds the penalty-to-benefit ratio.  The
    paper's thesis needs misspeculation rates low enough that penalties
    {e two orders of magnitude} larger than the per-speculation benefit
    stay profitable.  This experiment reports, per benchmark, the
    break-even penalty/benefit ratio the reactive baseline sustains, next
    to the same ratio for the no-eviction (open-loop) policy.

    It also reports the complementary slack: the {e eviction-threshold
    headroom}, i.e. the largest power-of-two scaling of the eviction
    trigger that still keeps misspeculation under 0.1% of dynamic
    branches.  The crossing point is found by plain sequential bisection
    over cached engine runs. *)

type row = {
  benchmark : string;
  reactive_ratio : float;  (** correct / incorrect under the baseline. *)
  open_loop_ratio : float;
  headroom : int option;
      (** log2 of the eviction-threshold headroom; [None] when even the
          paper threshold breaks the misspeculation bound. *)
}

type t = { rows : row list }

val run : Context.t -> t
val render : t -> string
