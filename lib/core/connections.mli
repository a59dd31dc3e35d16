(** The connection book: the live connections of one admission context.
    Once admitted, a connection's working path, reserved protection,
    policy and caller payload belong to the book, and only the book
    returns their wavelengths — on departure, preemption and failure.

    Restoration ({!fail}) splices the covering segment detour
    ({!Partial_protect.restore_segments}), switches to an intact full
    backup, or else returns everything and re-routes from scratch under
    the connection's own policy ({!Router.admit_result} on the book's
    context); it drops the connection only when no residual route is left.

    Probes: each restoration adds 1 to [restore.attempt] and to one of
    [restore.ok] / [restore.dropped], and to [restore.switch] (backup or
    splice) or [restore.reroute] on success; a fresh backup adds
    [restore.reprovision].  The journal events [journal.restore.switch],
    [.reroute], [.reprovision] and [.drop] carry a=source, b=target. *)

type 'a conn = private {
  id : int;
  request : Types.request;
  policy : Router.policy;  (** failure-time re-routes use it *)
  mutable working : Rr_wdm.Semilightpath.t;
  mutable protection : Partial_protect.protection;  (** reserved, allocated *)
  data : 'a;
}

val solution : 'a conn -> Types.solution
(** The working path and its full backup, if any. *)

type 'a t

val create : Router.ctx -> 'a t
val ctx : 'a t -> Router.ctx

type admission =
  | Admitted of Types.solution  (** {!Router.admit_result}'s, allocated *)
  | Partial of Rr_wdm.Semilightpath.t * Partial_protect.protection
      (** {!Partial_protect.admit}'s, allocated *)
  | Routed of Types.solution
      (** a {!Router.route} result, allocated by {!add} ([Invalid_argument]
          as {!Types.allocate}, book unchanged) *)

val add :
  'a t -> id:int -> request:Types.request -> policy:Router.policy -> 'a ->
  admission -> 'a conn

val find : 'a t -> int -> 'a conn option
val length : 'a t -> int

val conns : 'a t -> 'a conn list
(** Ascending by id. *)

val release : 'a t -> 'a conn -> unit
(** Departure: return the working path and the protection, forget the
    connection. *)

val evict : 'a t -> 'a conn -> unit
(** Preemption: as {!release}; the connection comes back through
    {!reinstate} or through {!add} on a new route, or is gone. *)

val reinstate : 'a t -> 'a conn -> unit
(** Undo {!evict}.  The footprint must still be free and on live links,
    else [Invalid_argument]. *)

type outcome =
  | Switched  (** reserved protection absorbed the failure *)
  | Rerouted  (** re-admitted on the residual network *)
  | Dropped  (** no protection and no residual route *)
  | Endpoint_down  (** an endpoint is one of the failed nodes *)

val fail :
  ?obs:Rr_obs.Obs.t ->
  ?reprovision:bool ->
  ?nodes:int list ->
  'a t ->
  links:int list ->
  req:(unit -> int) ->
  on:('a conn -> outcome -> unit) ->
  unit
(** One restoration pass once the network flags [links] (and the nodes
    [nodes], default none) failed; failed links keep their allocations
    until this pass returns them.  In ascending id order, a connection
    with an endpoint in [nodes] is released ([Endpoint_down]) and one
    whose working path crosses a link of [links] is restored, its
    request id drawn from [req ()] just before; others are left alone
    (reserved protection on a failed link stays reserved).  [on] runs
    after each, before the next: a dropped connection has left the book,
    a survivor carries its new paths.  [reprovision] (default [false])
    reserves a fresh full backup, edge-disjoint from the new working
    path, after a switch. *)
