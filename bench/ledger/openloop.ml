type transport = {
  now : unit -> int;
  send : int -> bool;
  recv : deadline:int -> int;
}

type result = { sent_ns : int array; reply_ns : int array }

(* Far enough ahead that a wait on outstanding replies never times out
   into a busy loop, short enough to re-check a dead connection. *)
let idle_wait_ns = 1_000_000_000

let run ?(burst = false) tr ~due ~window ~depends =
  if window < 1 then invalid_arg "Openloop.run: window < 1";
  let n = Array.length due in
  let sent_ns = Array.make n (-1) and reply_ns = Array.make n (-1) in
  let inflight = Queue.create () in
  let next = ref 0 in
  let room = ref window in  (* sends left in the current round (burst) *)
  while !next < n || not (Queue.is_empty inflight) do
    if Queue.is_empty inflight then room := window;
    let i = !next in
    let dep = if i < n then depends i else -1 in
    if dep >= i then invalid_arg "Openloop.run: dependency does not precede";
    let dep_ready = dep < 0 || reply_ns.(dep) >= 0 || sent_ns.(dep) < 0 in
    let has_room = if burst then !room > 0 else Queue.length inflight < window in
    let can_send = i < n && has_room && dep_ready in
    let now = tr.now () in
    if can_send && due.(i) <= now then begin
      incr next;
      decr room;
      if tr.send i then begin
        sent_ns.(i) <- now;
        Queue.push i inflight
      end
    end
    else if can_send && Queue.is_empty inflight then
      (* Nothing to read: sleep until the next operation falls due. *)
      ignore (tr.recv ~deadline:due.(i) : int)
    else begin
      let deadline = if can_send then due.(i) else now + idle_wait_ns in
      let k = tr.recv ~deadline in
      let t = tr.now () in
      for _ = 1 to k do
        reply_ns.(Queue.pop inflight) <- t
      done
    end
  done;
  { sent_ns; reply_ns }
