(** Which rule applies to which part of the tree.

    Paths are relative to the lint root, ['/']-separated, as recorded in
    the [.cmt] files ([lib/wdm/auxiliary.ml]).

    - R1/R2 (determinism): the libraries whose outputs must be
      byte-identical across the cached, batch and sequential engines —
      [lib/graph], [lib/wdm], [lib/core], [lib/sim] — plus [lib/util],
      whose containers and RNG feed all of them.
    - R3 (instrumentation threading) and R4 (probe names): all scanned
      code.
    - R5 (hot-path purity): the three search kernels on the per-request
      hot path.
    - R9 (one connection book): [lib/sim/simulator.ml] and [lib/serve],
      the owners of live connections, which must leave their resources
      to [Robust_routing.Connections]. *)

val determinism : string -> bool
val hot_kernel : string -> bool
val book_only : string -> bool

val connection_resource_functions : string list
(** [Semilightpath.allocate]/[release] and [Types.allocate]/[release], as
    normalized resolved paths: the calls R9 flags in {!book_only} files. *)

val optional_labels : string list
(** The threaded optionals R3 tracks: [obs] and [workspace].  The
    auxiliary-graph cache is not optional anywhere (the policies take it
    as a required argument), so it has no ghost [None] to track. *)

val probe_functions : string list
(** Suffixes of resolved paths whose second positional argument is a
    probe name ([Obs.stop], [Obs.add], …). *)

(** {1 Domain-safety vocabulary (R6/R7/R8)}

    All entries are [Module.name] suffixes matched against normalized
    resolved paths (see {!Callgraph.normalize_path}). *)

val pool_map_functions : string list
(** [Parallel.map] — its [~worker]/[~f] closure arguments are
    worker-scope roots. *)

val pool_run_functions : string list
(** [Parallel.run] — its last positional closure argument runs on every
    pool domain. *)

val pool_spawn_functions : string list
(** Raw [Domain.spawn] — its closure argument is a worker-scope root. *)

val slot_get_functions : string list
(** [Parallel.get_state] — applications are R7 taint sources (the result
    is a pool-slot value owned by the calling worker). *)

val slot_set_functions : string list
(** [Parallel.set_state] — the sanctioned sink for slot values. *)

val mutable_type_heads : string list
(** Type heads whose module-level values count as shared mutable state
    for R6 ([ref], [array], [Hashtbl.t], …). *)

val sanctioned_type_heads : string list
(** Type heads exempt from R6: [Atomic.t], [Parallel.slot],
    [Parallel.t], [Mutex.t]. *)

val extern_modules : string list
(** Stdlib/runtime module names the call graph never resolves bare-name
    fallbacks into. *)

val allocating_externs : string list
(** External functions known to allocate — the R8 denylist, matched as
    suffixes of fully-qualified resolved paths. *)
