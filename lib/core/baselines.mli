(** Baseline routing policies the paper's algorithms are compared against.

    - {!two_step}: the classic remove-and-reroute heuristic — route the
      optimal semilightpath, delete its links, route again.  Cheap, but it
      fails on "trap" topologies where the shortest path blocks every
      disjoint partner (the standard motivation for Suurballe).
    - {!unprotected}: a single optimal semilightpath, no backup — the
      passive-restoration strawman of Section 1.
    - {!first_fit}: hop-count shortest route with first-fit wavelength
      assignment, then the same on the remaining links — the
      separate-RWA-decisions strawman. *)

val two_step :
  workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  source:int ->
  target:int ->
  Types.solution option

val unprotected :
  ?workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  source:int ->
  target:int ->
  Types.solution option

val first_fit :
  ?workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  source:int ->
  target:int ->
  Types.solution option

val most_used_fit :
  ?workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  source:int ->
  target:int ->
  Types.solution option
(** Hop-count routing with *packing* wavelength assignment: prefer the
    wavelength already used on the most links (cf. adaptive RWA, the
    paper's ref [16]). *)

val least_used_fit :
  ?workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  source:int ->
  target:int ->
  Types.solution option
(** Spreading assignment: prefer the least-used wavelength. *)
