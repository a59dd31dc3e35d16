(** Model-based properties for the {!Rr_util} containers.

    Each check runs a random operation sequence simultaneously against the
    real container and a deliberately naive reference implementation
    (sorted lists, label arrays) and compares observable behaviour after
    every step.  Deterministic in the given RNG; returns [None] on
    agreement, [Some message] naming the first divergence. *)

val check_bitset : Rr_util.Rng.t -> string option
val check_workspace_heap : Rr_util.Rng.t -> string option
val check_pairing_heap : Rr_util.Rng.t -> string option
val check_union_find : Rr_util.Rng.t -> string option
