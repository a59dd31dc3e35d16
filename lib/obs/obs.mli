(** Observability context: one {!Metrics} registry, one {!Tracer} and one
    {!Journal} flight recorder, behind an on/off switch.

    Instrumented functions take [?obs:Obs.t] defaulting to {!null}, the
    shared permanently-disabled context, so un-instrumented callers pay
    one pointer load and branch per probe — no closures, no allocation
    (see the disabled-mode test and the bench overhead gate).

    Contexts are single-domain.  For parallel sections, {!fork} a child
    per worker (fresh registry, tracer and journal, same switch and
    sampling rate) and {!merge} the children back in worker order at the
    join; totals are deterministic because {!Metrics.merge_into}
    commutes, and spans/events keep their request ids across the join.

    Request scoping: {!set_request} tags every subsequent span and
    journal event with a request id until {!clear_request}, and decides
    — deterministically, [id mod sample = 0] — whether this request's
    spans enter the tracer.  Sampling gates only the tracer: histograms
    and the journal always see every request.

    Probe-name grammar.  A probe or event name is a dotted path of two
    or more lowercase segments, [seg ("." seg)+] with
    [seg = [a-z][a-z0-9_]*]: the first segment names the subsystem
    namespace, the rest narrow to an operation and (optionally) an
    outcome, e.g. [restore.ok] or [route.block.no_route].  Names must be
    static string literals at the call site — rr_lint R4 extracts every
    literal passed to {!stop}, {!count} and {!event} from the compiled
    artefacts and diffs the set against
    [tools/rr_lint/probes.manifest]; a name absent from the manifest
    (or a stale manifest entry) fails CI, so regenerate the manifest
    ([rr_lint --emit-manifest lib bin]) whenever probes are added or
    removed.  Journal event names live in the same manifest under the
    [journal.] prefix.

    Naming conventions used across the repository:
    - [stage.*]    per-stage latency histograms of the Section 3.3
                   pipeline (aux_graph, disjoint_pair, induce, refine,
                   validate, allocate; [stage.aux_delta] is the
                   incremental engine's sync replacing [stage.aux_graph]
                   when routing through an {!Rr_wdm.Aux_cache})
    - [kernel.*]   latency histograms of the search kernels (dijkstra,
                   suurballe, layered, layered_bounded)
    - [sim.*]      simulator event-loop spans (arrival, epoch, departure,
                   fail_link, fail_node, repair; [sim.fail_srlg] and
                   [sim.fail_region] cover the correlated failure
                   processes — a shared-risk conduit cut felling its
                   whole link group, and a regional outage felling a
                   node ball)
    - [admit.*]    admission counters: [admit.ok], [admit.blocked],
                   [admit.reject.validator]
    - [route.block.*]  blocking causes: [no_disjoint_pair],
                   [no_wavelength], [no_route] — counted once per
                   refusal, by [Router.route], from the cause the policy
                   returns (no policy counts its own)
    - [req.*]      request-scoped probes recorded internally by this
                   module: [req.admit] is the whole-admission span and
                   latency histogram written by {!stop_admit} (and fed
                   into the sliding window when one is configured)
    - [journal.*]  flight-recorder event names ({!event} call sites,
                   same dotted grammar and manifest as probe names):
                   [journal.admit.ok] (a=source, b=target),
                   [journal.admit.blocked] (a encodes the cause, see
                   [Types.blocked_code]: 1=no_disjoint_pair,
                   2=no_wavelength, 3=no_route, 4=validator reject),
                   [journal.batch.fallback] (a=request index),
                   [journal.link.fail] / [journal.link.repair] (a=link),
                   [journal.node.fail] (a=node),
                   [journal.srlg.fail] (a=conduit group id) and
                   [journal.region.fail] (a=center node, b=radius) for
                   the correlated failure processes,
                   [journal.restore.switch] / [journal.restore.reroute]
                   / [journal.restore.drop] /
                   [journal.restore.reprovision] (a=source, b=target)
                   for restoration outcomes, and
                   [journal.survive.splice] (a=source, b=target) when a
                   segment detour is spliced into a working path,
                   [journal.aux.rebuild] (full auxiliary recompute);
                   [journal.anomaly] is recorded internally by
                   {!anomaly}.  [journal.dropped] counts events lost to
                   ring wrap, [trace.dropped] spans lost likewise
    - [window.*]   reserved for sliding-window read-outs in exports
                   (the window itself is queried via {!window})
    - [restore.*]  restoration counters ({!Robust_routing.Connections.fail}):
                   [restore.attempt] (a primary lost a link),
                   [restore.switch] (traffic moved onto the reserved
                   backup or a spliced segment detour),
                   [restore.reroute] (backup also dead; a fresh path was
                   found on the residual network), [restore.ok]
                   (switch + reroute), [restore.dropped] (no residual
                   path: the connection is lost),
                   [restore.reprovision] (a fresh backup was reserved
                   after restoration)
    - [survive.*]  partial path protection counters
                   ({!Robust_routing.Partial_protect}):
                   [survive.partial.segmented] (admission protected only
                   the failure-exposed sub-segments),
                   [survive.partial.full_fallback] (segmentation did not
                   pay or found no detours; fell back to a full
                   edge-disjoint backup), [survive.partial.hop_bound]
                   (a segment plan dropped before its detour searches:
                   a hop lower bound showed it could not pay; it also
                   falls back), [survive.splice] (a detour was
                   spliced into the working path after a segment
                   failure)
    - [workspace.hit] / [workspace.miss]  scratch-state pooling counters
    - [aux.cache.*]  incremental auxiliary-graph engine counters:
                   [aux.cache.hit] (delta syncs), [aux.cache.rebuild]
                   (majority-change full recomputes),
                   [aux.cache.links_touched] (sum of changed links)
    - [heap.pop] / [heap.insert] / [conv.expansions]  kernel op counters
    - [stage.commit]  latency histogram of a batch's whole phase-B
                   commit loop (shadow validation + grouped allocation +
                   sequential fallbacks)
    - [batch.conflict.*]  optimistic-commit counters:
                   [batch.conflict.components] (link-sharing groups of
                   two or more speculative solutions),
                   [batch.conflict.fallbacks] (solutions invalidated by
                   an earlier admission and re-routed sequentially),
                   [batch.conflict.parallel_commits] (solutions admitted
                   through the grouped commit path).  All three are
                   functions of the batch alone — independent of [jobs]
                   and of whether a pool was used — so they participate
                   in cross-[jobs] determinism comparisons
    - [parallel.oversubscribed]  pool-sizing clamp events (a pool was
                   requested with more workers than
                   [Domain.recommended_domain_count ()]).  Host-dependent
                   by design: *excluded* from cross-[jobs] determinism
                   comparisons
    - [serve.*]    routing-daemon counters ({!Rr_serve}):
                   [serve.requests] (frames decoded into a request and
                   dispatched, including those answered [busy]),
                   [serve.errors] (frames answered with a typed error of
                   any kind), [serve.clients] (gauge: currently
                   connected clients)
    - [queue.*]    daemon admission-queue telemetry: [queue.depth]
                   (gauge: requests accepted into the current pump
                   round, at most the configured capacity) and
                   [queue.rejected] (requests answered [busy] because
                   the round was already full).  The daemon also emits
                   [journal.link.fail] / [journal.link.repair] on
                   operator link transitions and feeds [req.admit]
                   through the shared {!stop_admit} path, so service
                   latency lands in the same histogram and sliding
                   window as library admissions *)

type t

val null : t
(** Shared disabled context; the default for every [?obs] argument.
    Cannot be enabled. *)

val create :
  ?tid:int ->
  ?trace_capacity:int ->
  ?journal_capacity:int ->
  ?sample:int ->
  ?window_ns:int ->
  unit ->
  t
(** Fresh enabled context.  [tid] labels its spans in trace exports;
    [sample] (default 1 = trace everything) keeps spans only for
    requests with [id mod sample = 0]; [window_ns] attaches a sliding
    {!Window} fed by {!stop_admit}.  Raises [Invalid_argument] if
    [sample < 1]. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** Raises [Invalid_argument] on {!null}. *)

val metrics : t -> Metrics.t
val tracer : t -> Tracer.t

val journal : t -> Journal.t
(** The flight recorder. *)

val window : t -> Window.t option
(** The sliding admit-latency window, when configured. *)

val sample : t -> int
val tid : t -> int

val now_ns : unit -> int

val set_request : t -> int -> unit
(** Enter request scope: subsequent spans and events carry this id, and
    the deterministic sampling decision for the tracer is made here.
    No-op when disabled. *)

val clear_request : t -> unit
(** Leave request scope (id reverts to -1, tracing re-enabled). *)

val request : t -> int
(** Current request id, -1 outside any request scope. *)

val start : t -> int
(** Begin a span: the start timestamp when enabled, 0 when disabled. *)

val stop : t -> string -> int -> unit
(** [stop t name t0] completes the span opened by {!start}: records it in
    the tracer (unless the current request is sampled out) and feeds its
    duration into the [name] latency histogram (always).  No-op when
    disabled.  [name] should be a static string literal. *)

val stop_admit : t -> int -> unit
(** [stop_admit t t0] completes a whole-admission span: the [req.admit]
    span/histogram plus a sample into the sliding window when one is
    configured.  Called by [Router.admit_result]. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** Closure convenience for cold paths (allocates the closure even when
    disabled — use {!start}/{!stop} in hot loops). *)

val add : t -> string -> int -> unit
(** Counter increment; no-op when disabled. *)

val gauge : t -> string -> float -> unit

val observe_ns : t -> string -> int -> unit
(** Histogram sample without a tracer span. *)

val event : t -> ?a:int -> ?b:int -> string -> unit
(** [event t ?a ?b name] records a flight-recorder event (always-on,
    never sampled out) tagged with the current request id.  [a]/[b] are
    small integer payloads, -1 when omitted.  [name] should be a static
    string literal in the [journal.*] namespace — checked against the
    probe manifest by rr_lint R4. *)

val set_anomaly_sink : t -> (string -> string -> unit) -> unit
(** [set_anomaly_sink t f] — [f reason jsonl] is called by {!anomaly}
    with the anomaly reason and a JSONL dump of the journal at that
    moment (the black-box retrieval). *)

val anomaly : t -> string -> unit
(** Record a [journal.anomaly] event and hand the journal dump to the
    anomaly sink, if any.  No-op when disabled. *)

val fork : t -> tid:int -> t
(** Child context for a parallel worker: fresh registry, tracer and
    journal (same capacities and sampling rate), the parent's switch
    state.  The child has no window or anomaly sink — those belong to
    the root context. *)

val merge : into:t -> t -> unit
(** Fold a child's metrics, spans and journal events into [into],
    preserving request ids.  No-op when [into] is {!null}. *)
