(* The routing daemon in a forked child, built the way [rr serve] builds
   it, and a pipelining client for it.  Only called before any domain is
   spawned: OCaml 5 refuses to fork a process with live domains. *)

open Rr_ledger
module P = Rr_serve.Protocol
module Obs = Rr_obs.Obs

type t = {
  pid : int;
  port : int;
  info : in_channel;  (* child -> parent: port, then VmHWM at exit *)
  mutable reaped : bool;
}

let live : t list ref = ref []

let reap d =
  if not d.reaped then begin
    d.reaped <- true;
    live := List.filter (fun x -> x != d) !live;
    close_in_noerr d.info;
    ignore (Unix.waitpid [] d.pid : int * Unix.process_status)
  end

let kill d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d
  end

(* No daemon outlives the ledger: on exit, and on an interrupt, which is
   turned into an exit. *)
let () =
  at_exit (fun () -> List.iter kill !live);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]

(* The daemon as [rr serve] builds it, bound to an ephemeral port. *)
let server net =
  let core = Rr_serve.Core.create ~obs:(Obs.create ~window_ns:1_000_000_000 ()) net in
  Rr_serve.Server.create ~port:0 core

let spawn net =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    (try
       let srv = server net in
       Printf.fprintf oc "%d\n%!" (Rr_serve.Server.port srv);
       Rr_serve.Server.run srv;
       Printf.fprintf oc "%.6f\n%!" (Setup.rss_mb ())
     with e -> Printf.eprintf "ledger: daemon: %s\n%!" (Printexc.to_string e));
    Unix._exit 0
  | pid ->
    Unix.close w;
    let info = Unix.in_channel_of_descr r in
    let port = try int_of_string_opt (input_line info) with End_of_file -> None in
    let d = { pid; port = Option.value port ~default:0; info; reaped = false } in
    live := d :: !live;
    if port = None then begin
      kill d;
      failwith "daemon did not start"
    end;
    d

(* A client connection: framed requests out, decoded replies in FIFO
   order.  Nagle is off on the client side so requests leave when they
   are written; [queue] holds requests back until the next [flush]. *)
type conn = {
  fd : Unix.file_descr;
  framer : P.Framer.t;
  buf : Bytes.t;
  out : Buffer.t;
  replies : P.response Queue.t;
}

let connect d =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, d.port));
  {
    fd;
    framer = P.Framer.create ();
    buf = Bytes.create 65536;
    out = Buffer.create 4096;
    replies = Queue.create ();
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let queue c req = Buffer.add_string c.out (P.frame (P.encode_request req))

let flush c =
  let s = Buffer.contents c.out in
  Buffer.clear c.out;
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring c.fd s !off (len - !off)
  done

let send c req =
  queue c req;
  flush c

(* Wait up to [timeout_ns] for bytes; decode every complete reply.
   Returns the number of replies decoded. *)
let poll c ~timeout_ns =
  let timeout = float_of_int (max 0 timeout_ns) /. 1e9 in
  let ready =
    match Unix.select [ c.fd ] [] [] timeout with
    | r, _, _ -> r <> []
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  if not ready then 0
  else begin
    let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
    if n = 0 then failwith "daemon closed the connection";
    P.Framer.feed c.framer (Bytes.sub_string c.buf 0 n);
    let rec drain k =
      match P.Framer.next c.framer with
      | None -> k
      | Some (Error e) -> failwith (P.frame_error_message e)
      | Some (Ok payload) -> (
        match P.decode_response payload with
        | Ok r ->
          Queue.push r c.replies;
          drain (k + 1)
        | Error m -> failwith ("bad reply: " ^ m))
    in
    drain 0
  end

(* A reply that takes this long means the daemon is wedged. *)
let reply_timeout_ns = 30_000_000_000

let await c =
  let deadline = Setup.now_ns () + reply_timeout_ns in
  let rec go () =
    match Queue.take_opt c.replies with
    | Some r -> r
    | None ->
      if Setup.now_ns () > deadline then failwith "daemon stopped answering";
      ignore (poll c ~timeout_ns:1_000_000_000 : int);
      go ()
  in
  go ()

let rpc c req =
  send c req;
  await c

(* Stop the daemon through the protocol; returns its peak RSS (MiB). *)
let shutdown d c =
  (match rpc c P.Shutdown with
   | P.Bye -> ()
   | _ -> failwith "unexpected reply to shutdown");
  close c;
  let hwm = try float_of_string (input_line d.info) with _ -> nan in
  reap d;
  hwm

(* Start a daemon and wait until it answers: fork, build, bind, first
   pong. *)
let ready net =
  let d = spawn net in
  let c = connect d in
  (match rpc c P.Ping with P.Pong -> () | _ -> failwith "unexpected reply to ping");
  (d, c)

(* Transport-layer phases: lockstep pings, then [window] pings in
   flight.  Returns (lockstep RTTs, pipelined RTTs) in ns. *)
let ping_phases c ~n ~window =
  let lock =
    Array.init n (fun _ ->
        let t0 = Setup.now_ns () in
        ignore (rpc c P.Ping : P.response);
        float_of_int (Setup.now_ns () - t0))
  in
  let tr =
    {
      Openloop.now = Setup.now_ns;
      send =
        (fun _ ->
          send c P.Ping;
          true);
      recv = (fun ~deadline -> poll c ~timeout_ns:(deadline - Setup.now_ns ()));
    }
  in
  let r = Openloop.run tr ~due:(Array.make n 0) ~window ~depends:(fun _ -> -1) in
  Queue.clear c.replies;
  let piped = Array.init n (fun i -> float_of_int (r.Openloop.reply_ns.(i) - r.sent_ns.(i))) in
  (lock, piped)
