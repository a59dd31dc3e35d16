(** Span buffer for the traced runs.

    The benchmark records a span around each call it makes into a layer
    (the program itself is not instrumented).  A span has a name, start,
    end, parent and request id; spans nest through an open-span stack, so
    a span's parent is whatever span was open when it began.  Storage is
    preallocated parallel int arrays; spans past the capacity are counted
    in {!dropped} and not kept.  A span's self time is its duration minus
    the durations of its children (children of one span never overlap:
    the benchmark is single-threaded while tracing). *)

type t

val create : capacity:int -> string array -> t
(** [create ~capacity names] — span names are indices into [names]. *)

val enter : t -> int -> req:int -> unit
(** Open a span named [names.(i)] now, nested in the innermost open span. *)

val leave : t -> unit
(** Close the innermost open span now.  Raises [Invalid_argument] when no
    span is open. *)

val enter_at : t -> int -> req:int -> ns:int -> unit
val leave_at : t -> ns:int -> unit
(** The same at an explicit timestamp (for tests). *)

val length : t -> int
(** Spans kept. *)

val dropped : t -> int

val name : t -> int -> int
val parent : t -> int -> int
(** [-1] for a root span. *)

val duration_ns : t -> int -> int

val self_ns : t -> int array
(** Self time of every kept span, indexed like the spans. *)

val durations : t -> int -> float array
(** Durations (ns) of every kept span with the given name, in order. *)

val chrome_json : t -> string
(** The kept spans as Chrome [trace_event] JSON (complete events, [ph]
    ["X"], microsecond timestamps, request id and parent in [args]). *)
