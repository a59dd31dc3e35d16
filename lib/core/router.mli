(** Unified routing facade: one entry point per policy, plus the one
    admission (route + validate + allocate). *)

type policy =
  | Cost_approx      (** Section 3.3 auxiliary-graph approximation *)
  | Load_aware       (** Section 4.1 MinCog (load only) *)
  | Load_cost        (** Section 4.2 two-phase (load then cost) *)
  | Two_step         (** remove-and-reroute baseline *)
  | First_fit        (** hop-count + first-fit RWA baseline *)
  | Most_used        (** hop-count + packing wavelength assignment *)
  | Least_used       (** hop-count + spreading wavelength assignment *)
  | Unprotected      (** single path, passive restoration *)
  | Node_protect     (** internally node-disjoint pair (extension) *)
  | Exact            (** combinatorial optimum (small instances only) *)

val all_policies : policy list
val policy_name : policy -> string
val policy_of_string : string -> policy option

(** {1 Admission context} *)

type ctx
(** Everything one admission stream reuses across requests: the
    incremental auxiliary-graph engine ({!Rr_wdm.Aux_cache}) bound to one
    network, and one search {!Rr_util.Workspace}.  The cost and load
    policies route on the cache's views; every search of every policy
    draws its scratch arrays from the workspace.  A context serves one
    domain at a time.  Routing through a long-lived context is
    byte-identical to routing through a fresh one per request. *)

val context : Rr_wdm.Network.t -> ctx
(** Build the cache (one {!Rr_wdm.Aux_cache.create}) and an empty
    workspace for [net].  The context stays bound to [net]: routing reads
    its live residual state, and each cost or load admission syncs the
    cache against whatever changed since the previous call. *)

val network : ctx -> Rr_wdm.Network.t
val cache : ctx -> Rr_wdm.Aux_cache.t
val workspace : ctx -> Rr_util.Workspace.t

(** {1 Routing and admission} *)

val route :
  ?obs:Rr_obs.Obs.t ->
  ctx ->
  policy ->
  source:int ->
  target:int ->
  (Types.solution, Types.blocked) result
(** Compute a robust route on the context's residual network; no
    allocation.  A refusal says why: the pipeline policies return their
    own cause, the baselines and [Exact] block as [No_route].
    [Cost_approx], [Load_aware] and [Load_cost] sync the context's cache
    and route over its views; [Node_protect] builds the gated [G'] afresh
    (see {!Node_protect}); [Exact] ignores the workspace.  [obs] is
    threaded through the policy pipeline, recording per-stage spans
    ([stage.*]) and kernel spans and counters ([kernel.*], [heap.*],
    [conv.expansions], [workspace.*]).  This is the one place a blocking
    cause is counted: each [Error] adds 1 to its {!Types.blocked_counter}
    ([route.block.*]). *)

val admit_result :
  ?obs:Rr_obs.Obs.t ->
  ?req:int ->
  ctx ->
  policy ->
  source:int ->
  target:int ->
  (Types.solution, Types.blocked) result
(** The one admission: {!route}, then validate against the residual
    network and allocate all wavelengths of both paths ([stage.validate] /
    [stage.allocate] spans).  An admitted request increments [admit.ok];
    a refusal increments [admit.blocked].  A solution the validator
    rejects — an algorithm defect, not an operational condition — is
    refused as [Validator msg] (the validator's message) rather than
    raised, and counted under [admit.reject.validator], so long
    simulations survive and the defect shows up in exported metrics (the
    shipped policies keep this counter at zero).  Every counter, journal
    payload and reply is derived from the returned value, so the outcome
    is the same whether [obs] is enabled or not.

    [req] is the request id for request-scoped observability: the whole
    admission runs inside [Obs.set_request]/[Obs.clear_request], so every
    stage span is attributable (and subject to the context's sampling
    rate), the admission outcome lands in the flight recorder as
    [journal.admit.ok] (a=source, b=target) or [journal.admit.blocked]
    (a = {!Types.blocked_code}), and the end-to-end latency feeds the
    [req.admit] histogram plus the sliding window via [Obs.stop_admit].
    Without [req] the same probes fire with request id -1. *)

val admit :
  aux_cache:Rr_wdm.Aux_cache.t ->
  workspace:Rr_util.Workspace.t ->
  ?obs:Rr_obs.Obs.t ->
  ?req:int ->
  Rr_wdm.Network.t ->
  policy ->
  source:int ->
  target:int ->
  Types.solution option
(** [Result.to_option (admit_result …)] on the context made of
    [aux_cache] and [workspace].  This is the benchmark ledger's entry
    point, kept in its call shape until the ledger holds a {!ctx}; it
    goes when the ledger moves.  Every other caller uses {!admit_result}.
    Raises [Invalid_argument] if [aux_cache] is not bound to [net] — the
    one place a cache can meet the wrong network. *)

val footprint : Types.solution -> (int * int) list
(** The [(link, wavelength)] hops the solution would allocate — primary
    hops then backup hops, in path order.  Each physical link appears at
    most once across the whole list (link simplicity within a path,
    edge-disjointness across the pair), so two solutions conflict on
    residual state iff their footprints share a link.  Used by
    {!Batch}'s optimistic commit to build the conflict graph. *)
