(** The rr_serve wire protocol: typed requests/responses, canonical JSON
    codecs, and length-prefixed framing.

    Everything here is pure — the daemon's socket loop and the loadgen
    client are thin layers over these functions, so the whole protocol is
    unit-testable without sockets.

    {b Wire format.}  A frame is the decimal ASCII byte length of the
    payload, a newline, then the payload — a single JSON object.
    Requests carry an ["op"] tag ([ping], [admit], [release], [fail],
    [repair], [fail_burst], [repair_burst], [query], [snapshot],
    [restore], [shutdown]); responses
    either an ["ok"] tag or an ["error"] kind.  Encoding is canonical
    (fixed field order, [%.17g] floats), so encode/decode round-trips are
    byte-identical — pinned by the golden tests in [test_serve]. *)

type request =
  | Ping
  | Admit of { src : int; dst : int; policy : Robust_routing.Router.policy option }
      (** [policy] overrides the server's default for this request. *)
  | Release of { id : int }
  | Fail_link of { link : int }
      (** flips link state only — resident connections are untouched *)
  | Repair_link of { link : int }
  | Fail_burst of { links : int list }
      (** correlated failure scenario: fail every listed link atomically,
          then run restoration over the resident connections (switch to
          intact backups, re-route the rest, drop what cannot re-route).
          Validated as a unit: any bad link rejects the whole burst with
          no state change. *)
  | Repair_burst of { links : int list }
      (** repair every listed link atomically (same all-or-nothing
          validation). *)
  | Query
  | Snapshot
  | Restore of { state : string }
      (** [state] is {!Rr_wdm.Network_io.print_snapshot} text. *)
  | Shutdown

type stats = {
  st_nodes : int;
  st_links : int;
  st_wavelengths : int;
  st_connections : int;
  st_in_use : int;
  st_load : float;
  st_failed_links : int list;  (** ascending *)
  st_admitted_total : int;
  st_blocked_total : int;
}

type error_kind =
  | Bad_frame     (** malformed length prefix or oversized frame *)
  | Bad_json      (** payload is not valid JSON *)
  | Unknown_op    (** well-formed JSON, unrecognised ["op"] *)
  | Bad_request   (** recognised op with missing/ill-typed fields *)
  | Unknown_id    (** release of a connection the server doesn't hold *)
  | Bad_state     (** restore text rejected, or fail/repair out of range *)
  | Busy          (** bounded admission queue full — retry later *)

type response =
  | Pong
  | Admitted of { id : int; cost : float }
  | Blocked of { cause : string }
      (** Admission refused; [cause] is the refusal's
          {!Robust_routing.Types.blocked_name} ([no_disjoint_pair],
          [no_wavelength], [no_route] or [validator_reject]), the same
          whether the daemon's observability is on or off. *)
  | Released of { id : int }
  | Link_failed of { link : int }
  | Link_repaired of { link : int }
  | Burst_failed of { links : int list; switched : int; rerouted : int; dropped : int }
      (** [links] echoed ascending; the three counters partition the
          resident connections whose working path the burst hit. *)
  | Burst_repaired of { links : int list }  (** [links] echoed ascending *)
  | Stats of stats
  | Snapshot_state of { state : string }
  | Restored of { connections : int }
  | Bye
  | Error of { kind : error_kind; msg : string }

val error_kind_name : error_kind -> string
val error_kind_of_name : string -> error_kind option

val encode_request : request -> string
val encode_response : response -> string

val decode_request : string -> (request, error_kind * string) result
(** Malformed payloads return a typed error, never an exception. *)

val decode_response : string -> (response, string) result

(** {1 Framing} *)

val max_frame_default : int
(** 16 MiB — bounds [restore] payloads. *)

val frame : string -> string
(** [frame payload] = ["<length>\n<payload>"]. *)

type frame_error =
  | Bad_prefix of string      (** non-digit bytes before the newline *)
  | Frame_too_large of int

val frame_error_message : frame_error -> string

(** Incremental frame decoder for a byte stream.  A framing error poisons
    the stream permanently (there is no way to resync after garbage) —
    the server answers with a [Bad_frame] error and closes. *)
module Framer : sig
  type t

  val create : ?max_frame:int -> unit -> t
  val feed : t -> string -> unit

  val next : t -> (string, frame_error) result option
  (** [None] — need more bytes.  After an [Error] every subsequent call
      returns the same error. *)

  val pending : t -> bool
  (** Unconsumed healthy bytes remain buffered. *)
end

val decode_frames : string -> (string, frame_error) result list
(** Split a complete byte string into frames (pure convenience over
    {!Framer}); a trailing partial frame is dropped, a framing error ends
    the list. *)
