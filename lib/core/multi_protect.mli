(** k-fold protection (extension beyond the paper).

    Generalises the primary/backup pair to [k] pairwise edge-disjoint
    semilightpaths — 1 working path plus [k-1] reserved backups, surviving
    any [k-1] simultaneous link failures.  A minimum-cost flow of [k] units
    on the auxiliary graph [G'] replaces Suurballe (which is exactly the
    [k = 2] case), and each flow path is refined to an optimal
    semilightpath in its induced subgraph by {!Approx_cost.refine}, whose
    screen rejects layered walks that revisit a physical link. *)

val route :
  Rr_wdm.Network.t ->
  k:int ->
  source:int ->
  target:int ->
  Rr_wdm.Semilightpath.t list option
(** [k >= 1] pairwise edge-disjoint semilightpaths ordered by cost, or
    [None] when fewer than [k] edge-disjoint routes exist or some flow
    path's subgraph holds no semilightpath. *)

val max_protection : Rr_wdm.Network.t -> source:int -> target:int -> int
(** Largest feasible [k] in the residual network (a max-flow value). *)
