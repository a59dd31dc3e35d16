(** Section 4.2 — minimising network load *and* routing cost.

    Phase 1 fixes a feasible load threshold [ϑ] with
    {!Mincog.route}; phase 2 routes on the threshold-filtered auxiliary
    graph with cost weights ([G_rc]), runs Suurballe, and refines the two
    induced subgraphs into optimal semilightpaths.  This is the paper's
    headline "simultaneous" algorithm: among the lightly-loaded part of the
    network it picks the cheapest robust route. *)

type result = {
  theta : float;       (** threshold accepted in phase 1 *)
  bottleneck : float;  (** max link load along the phase-2 pair *)
  solution : Types.solution;
}

val route :
  workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Aux_cache.t ->
  source:int ->
  target:int ->
  (result, Types.blocked) Stdlib.result
(** Both phases on the cache's network: phase 1 syncs it and probes its
    [G_c] views, phase 2 routes on its [G_rc] view at the accepted
    threshold.  [Error] only when phase 1 ({!Mincog.route}) blocks, with
    its cause; once a threshold is feasible, phase 2 falls back to the
    phase-1 pair rather than blocking. *)
