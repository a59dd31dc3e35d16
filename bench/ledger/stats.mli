(** Order statistics for the ledger.

    Latency samples are summarised by nearest-rank percentiles, and a
    percentile is reported only when at least 10 samples lie above it:
    below that, a "p99" is the sample maximum in disguise.  Run-level
    values (one number per run) are summarised by their median and
    quartiles with the same rule as Python's
    [statistics.quantiles(data, n=4)], so the spreads [ledger compare]
    prints can be reproduced from the result files with the standard
    library. *)

val beyond : int -> float -> int
(** [beyond n q] — samples strictly above the nearest-rank [q]-quantile of
    [n] samples ([q] is read to a tenth of a percent). *)

val choose : ?at_most:float -> int -> float option
(** [choose n] — the highest percentile of the ladder 99.9, 99, 95, 90,
    75, 50 that is at most [at_most] (default 0.999) and has at least 10
    of [n] samples beyond it; [None] when not even the median has. *)

val sorted : float array -> float array
(** Ascending copy. *)

val quantile : float array -> float -> float
(** Nearest-rank [q]-quantile of a sorted non-empty array. *)

val mean : float array -> float
(** Arithmetic mean; [nan] for the empty array. *)

val median : float array -> float
(** Middle value, or the mean of the two middle values; [nan] when empty. *)

val block_median : blocks:int -> int -> (int -> int -> float) -> float
(** [block_median ~blocks n f] — the median of [f lo hi] over [blocks]
    contiguous ranges [\[lo, hi)] of near-equal size partitioning
    [\[0, n)] (fewer when [n < blocks]).  Run-level statistics are taken
    this way over time-ordered samples, so that a slow spell of the
    machine confined to one block does not move them. *)

val quartiles : float array -> float * float * float
(** [(q1, median, q3)] by the exclusive method (Python's default for
    [statistics.quantiles]); a single value [x] gives [(x, x, x)]. *)
