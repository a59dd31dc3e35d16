(** The rule [ledger compare] applies to one metric on one workload, given
    the values of a set of base runs and a set of new runs. *)

type better =
  | Lower
  | Higher
  | Exact  (** every run of both sides must read the same *)
  | Zero   (** every run of both sides must read 0 *)

type t =
  | Within      (** no worse than the bound allows, no gain shown *)
  | Worse       (** new median worse than the base median by more than the bound *)
  | Gain        (** see {!judge} *)
  | Unresolved  (** the base's own quartile spread exceeds the bound *)
  | Mismatch    (** an [Exact] or [Zero] metric differs *)

val name : t -> string

val spread : float array -> float
(** Quartile distance over the median's magnitude; 0 for an all-zero set. *)

val judge : better:better -> bound:float -> base:float array -> next:float array -> t
(** [Worse] when the new median is worse than the base median by more
    than [bound] (a share of the base median).  [Gain] only when the new
    side wins at least 9 in 10 of the pairs [(base.(i), next.(i))] (ties
    count for neither) and the medians differ by more than the base's
    quartile distance.  When the base's {!spread} exceeds [bound] the
    answer is [Unresolved] unless every new run beats every base run by
    that margin.  Empty sides give [Unresolved]. *)
