(** Open-loop request generator over one FIFO connection.

    Operations are sent in script order, each no earlier than its due
    time, with at most [window] replies outstanding.  An operation may
    depend on an earlier one (a release on its admission): it is not sent
    until that reply has arrived, and the whole generator waits with it,
    so the sequence on the wire is always the script order — which keeps
    the server's decisions a function of the script alone.

    Latency is taken from the due time, not the send time: when the
    server stalls, requests that fall due during the stall wait for it
    too, and a stall shows in the tail as users would see it.  How late
    the generator itself ran is reported separately ([sent - due]). *)

type transport = {
  now : unit -> int;  (** nanoseconds, monotonic *)
  send : int -> bool;
      (** Put operation [i] on the wire; [false] skips it (nothing is
          sent, no reply is expected). *)
  recv : deadline:int -> int;
      (** Wait until at least one reply has arrived or [now () >= deadline];
          return how many replies arrived (replies come back in send
          order). *)
}

type result = {
  sent_ns : int array;   (** send time per operation; [-1] when skipped *)
  reply_ns : int array;  (** reply time per operation; [-1] when skipped *)
}

val run :
  ?burst:bool ->
  transport -> due:int array -> window:int -> depends:(int -> int) -> result
(** [depends i] is the index of the operation [i] waits for, or [-1].
    With [~burst:true] operations go out in rounds: up to [window] at
    once, and the next round only when every reply of the last one is in.
    Raises [Invalid_argument] if [window < 1] or a dependency does not
    precede its dependant. *)
