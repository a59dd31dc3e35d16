(** The typed rule pass: R1–R5 and R9 over a module's [.cmt] typed AST, plus
    the per-module summary feeding the interprocedural layer.

    Types let the pass distinguish a polymorphic [compare] instantiated
    at [int] (harmless) from one instantiated at a boxed type (a
    determinism hazard), recover the optional-argument labels a callee
    accepts for the R3 threading check, and see the compiler-inserted
    ghost [None] of a dropped optional argument.  Resolved paths let R9
    see through module aliases ([Slp.release] is
    [Semilightpath.release]).

    For the domain-safety rules the pass walks every closure handed to
    [Parallel.map]/[Parallel.run]/[Domain.spawn] a second time in
    "worker mode": module-level mutable touches there are emitted
    directly (R6), slot values are taint-tracked to their escape sinks
    (R7), and every project function referenced becomes a worker-scope
    root in the returned {!Callgraph.file_summary} — the rest of R6 and
    all of R8 are completed by {!Callgraph.analyze} once every module
    has been summarized. *)

val scan :
  source_info:Source_info.t ->
  manifest:Probes.manifest option ->
  rules:Finding.rule list ->
  file:string ->
  Cmt_format.cmt_infos ->
  Finding.t list * string list * Callgraph.file_summary
(** [scan … ~file cmt] returns the findings for [file] (the source path
    the cmt was compiled from, relative to the lint root), every
    probe-name literal seen — the input to [--emit-manifest] — and the
    call-graph summary.  A cmt that does not hold an implementation
    yields nothing. *)
