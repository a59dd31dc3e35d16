(** Host-speed reference.

    On a shared virtual machine the processor's speed drifts by tens of
    percent over tens of seconds (other tenants, shared cores), which
    moves every timing of a run together.  A run therefore times a fixed
    reference kernel — an in-place heap sort plus a pointer chase over
    arrays the kernel owns, allocating nothing, so the program under test
    cannot change its cost — between blocks of its own work, and scales
    its timings by [nominal / measured], where [nominal] (2.3 ms) is the
    kernel's median on a quiet 2-vCPU x86-64 host.  Times are then
    reported in reference-speed units, close to what the host measures
    when quiet; the unscaled values are kept beside them. *)

val bracket : unit -> unit
(** Time the kernel ten times in a row — before and after a measured
    phase — and record the times. *)

val reference_ns : unit -> float
(** Median of the times recorded so far; the nominal time when none. *)

val factor : unit -> float
(** [nominal /. reference_ns ()]: multiply a time by it, divide a rate
    by it. *)
