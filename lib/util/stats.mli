(** Descriptive statistics over float samples.

    Every experiment table reports mean / max / percentiles of measured
    ratios or loads; this module centralises those reductions. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summarize : float list -> summary
(** Raises [Invalid_argument] on the empty list. *)

val mean : float list -> float
val stddev : float list -> float
val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,1\]], linear interpolation. *)

val wins_needed : int -> int option
(** [wins_needed n] — the smallest [k] with P(Binomial(n, 1/2) >= k) <=
    0.025: the wins out of [n] paired readings a one-sided sign test
    needs.  [None] when not even [n] wins reach 0.025 ([n <= 5]).
    Raises [Invalid_argument] on a negative [n]. *)

val histogram : bins:int -> float list -> (float * float * int) array
(** [histogram ~bins xs] returns [(lo, hi, count)] per bin over
    [\[min xs, max xs\]]. *)

val pp_summary : Format.formatter -> summary -> unit
