(** The daemon's pure request-handler core: resident routing state plus a
    [request -> response] dispatcher, with no sockets anywhere — the
    whole service semantics is unit-testable in-process (and fuzzed by
    rr_check case [serve]).

    A core keeps one {!Robust_routing.Router.ctx} — the network, its
    {!Rr_wdm.Aux_cache} and a workspace — resident across requests, so
    the daemon serves admissions at the incremental-engine price.  A
    long-lived context is result-invisible by the [Router.admit_result]
    contract (pinned by the aux-cache and obs fuzz cases), which is what
    makes the server-vs-library differential test meaningful.  An [admit] reply,
    blocking cause included, is derived from [Router.admit_result]'s
    value, so it does not depend on whether [obs] is enabled. *)

type t

val create :
  ?policy:Robust_routing.Router.policy ->
  ?obs:Rr_obs.Obs.t ->
  Rr_wdm.Network.t ->
  t
(** [policy] (default [Cost_approx]) applies to [admit] requests that
    don't carry their own. *)

val handle : t -> Protocol.request -> Protocol.response
(** Dispatch one request.  Total: protocol-level misuse (unknown ids,
    out-of-range links, rejected restore text) returns [Error _]
    responses, never raises. *)

val handle_frame : t -> string -> string
(** Decoded-payload-in, encoded-response-out: [decode_request], then
    {!handle}, then [encode_response]; malformed payloads become encoded
    typed errors. *)

val handle_round : t -> queue_capacity:int -> Protocol.request list -> Protocol.response list
(** One pump round of the bounded admission queue: the first
    [queue_capacity] requests are enqueued and handled in FIFO order, the
    rest answered [Error Busy] — responses align positionally with
    requests.  Updates the [queue.depth] gauge and [queue.rejected]
    counter.  Raises [Invalid_argument] if [queue_capacity < 1]. *)

(** {1 Snapshots} *)

val snapshot : t -> string
(** {!Rr_wdm.Network_io.print_snapshot} text plus an [# rr-serve meta]
    comment carrying [next_id] and the admission counters, so a restore
    resumes id assignment exactly.  Raises [Invalid_argument] on
    networks {!Rr_wdm.Network_io.print} cannot serialise. *)

val load_snapshot : t -> string -> (int, string) result
(** Replace this core's state with the snapshot's; returns the number of
    restored connections. *)

val of_snapshot :
  ?policy:Robust_routing.Router.policy ->
  ?obs:Rr_obs.Obs.t ->
  string ->
  (t, string) result
(** Fresh core from snapshot text. *)

(** {1 Introspection} *)

val network : t -> Rr_wdm.Network.t
val obs : t -> Rr_obs.Obs.t
val default_policy : t -> Robust_routing.Router.policy

val stopping : t -> bool
(** Set once a [shutdown] request has been handled. *)

val connections : t -> (int * Robust_routing.Types.solution) list
(** Live connections, ascending by id. *)

val stats : t -> Protocol.stats
