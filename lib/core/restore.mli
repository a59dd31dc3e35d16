(** Restoration: the failure-time counterpart of admission.

    When a failure hits a connection's working path, the owner (simulator
    event loop, [rr_serve] burst handler, check harness) calls {!restore}
    with the still-allocated path and its protection.  The engine

    - splices the covering segment detour in place
      ({!Partial_protect.restore_segments}) for segment-protected
      connections,
    - switches to the reserved full backup when it survived,
    - re-routes from scratch on the residual network otherwise (through
      {!Router.admit_result} on the caller's context, so the re-route
      syncs its cache incrementally),

    and drops the connection only when the residual network has no path
    left.

    Probes: every call increments [restore.attempt] and exactly one of
    [restore.ok] / [restore.dropped]; the chosen mechanism additionally
    bumps [restore.switch] (backup promotion or segment splice) or
    [restore.reroute], and a successful fresh backup reservation bumps
    [restore.reprovision].  Journal events mirror the outcome:
    [journal.restore.switch] / [journal.restore.reroute] /
    [journal.restore.reprovision] (a=source, b=target) and
    [journal.restore.drop] (a=source, b=target). *)

type outcome =
  | Switched of Rr_wdm.Semilightpath.t * Partial_protect.protection
      (** Reserved protection absorbed the failure: the new working path
          is the promoted backup or the spliced primary (its resources
          stay allocated; the dead hops' were returned).  The protection
          is a freshly reserved full backup when [reprovision] succeeded,
          [Unprotected] otherwise. *)
  | Rerouted of Rr_wdm.Semilightpath.t * Partial_protect.protection
      (** Protection dead, uncovering, or absent; a from-scratch admission
          on the residual network succeeded.  All prior resources were
          returned first. *)
  | Dropped
      (** No protection and no residual route: every resource of the old
          state was returned and the connection is gone. *)

val restore :
  ?obs:Rr_obs.Obs.t ->
  ?req:int ->
  ?reprovision:bool ->
  Router.ctx ->
  Router.policy ->
  request:Types.request ->
  primary:Rr_wdm.Semilightpath.t ->
  protection:Partial_protect.protection ->
  outcome
(** [restore ctx policy ~request ~primary ~protection] restores a
    connection after a failure hit its working path, on the context's
    network.  Precondition: every wavelength of [primary] and of the
    protection's paths is still allocated on that network (failed links
    keep their allocations; release happens here).  [reprovision] (default [false]) asks for a fresh full
    backup — edge-disjoint from the new working path — after a successful
    switch.  [policy] and [req] are used by the re-route path exactly as
    in {!Router.admit_result}. *)
