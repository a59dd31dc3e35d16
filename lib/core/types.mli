(** Requests and robust-routing solutions. *)

type request = { src : int; dst : int }

type solution = {
  primary : Rr_wdm.Semilightpath.t;
  backup : Rr_wdm.Semilightpath.t option;
      (** [None] only for deliberately unprotected baselines. *)
}

(** Why an admission was refused.  A policy decides it once; every
    counter, journal payload and protocol reply is derived from it. *)
type blocked =
  | No_disjoint_pair  (** Suurballe found no edge-disjoint pair in [G′] *)
  | No_wavelength
      (** a refine found no semilightpath in an induced subgraph *)
  | No_route  (** a baseline or the exact solver found nothing *)
  | Validator of string
      (** the validator rejected the policy's solution (an algorithm
          defect); carries the validator's message *)

val blocked_code : blocked -> int
(** The [journal.admit.blocked] payload: 1 [No_disjoint_pair],
    2 [No_wavelength], 3 [No_route], 4 [Validator]. *)

val blocked_name : blocked -> string
(** The protocol reply's [cause]: [no_disjoint_pair], [no_wavelength],
    [no_route] or [validator_reject]. *)

val blocked_counter : blocked -> string
(** The counter the cause is counted under: [route.block.<name>] for the
    three routing causes (counted by [Router.route]), and
    [admit.reject.validator] for [Validator]. *)

val blocked_of_code : int -> blocked option
(** Inverse of {!blocked_code}; [Validator] decodes with an empty
    message. *)

val total_cost : Rr_wdm.Network.t -> solution -> float
(** Cost sum of both paths (Eq. 1 each) — the paper's objective. *)

val primary_cost : Rr_wdm.Network.t -> solution -> float
val backup_cost : Rr_wdm.Network.t -> solution -> float
(** 0 when unprotected. *)

val validate :
  ?require_available:bool ->
  Rr_wdm.Network.t ->
  request ->
  solution ->
  (unit, string) result
(** Both paths valid semilightpaths from [src] to [dst] and mutually
    edge-disjoint (when a backup exists). *)

val allocate : Rr_wdm.Network.t -> solution -> unit
(** Reserve every wavelength of both paths (the paper's *activate*
    protection: backup resources are held from admission time). *)

val release : Rr_wdm.Network.t -> solution -> unit

val pp : Rr_wdm.Network.t -> Format.formatter -> solution -> unit
