(* rr_serve: protocol golden frames, framing, the pure handler core,
   snapshot/restore, and the live socket loop (server-vs-library
   differential, queue backpressure, loadgen, the CLI entry points). *)

module Sp = Rr_serve.Protocol
module Sc = Rr_serve.Core
module Server = Rr_serve.Server
module Loadgen = Rr_serve.Loadgen
module Net = Rr_wdm.Network
module Router = Robust_routing.Router
module Types = Robust_routing.Types
module Obs = Rr_obs.Obs
module Metrics = Rr_obs.Metrics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let ring4 ?(w = 3) () =
  Rr_topo.Fitout.fit_out ~rng:(Rr_util.Rng.create 5) ~n_wavelengths:w
    (Rr_topo.Reference.ring 4)

let nsfnet ?(w = 4) () =
  Rr_topo.Fitout.fit_out ~rng:(Rr_util.Rng.create 7) ~n_wavelengths:w
    Rr_topo.Reference.nsfnet

(* A path graph: no two link-disjoint routes anywhere, every admission
   blocks. *)
let path3 () =
  Rr_topo.Fitout.fit_out ~rng:(Rr_util.Rng.create 5) ~n_wavelengths:2
    (Rr_topo.Reference.grid 1 3)

(* ------------------------------------------------------------------ *)
(* Protocol: golden encodings and malformed input                      *)

let golden_requests =
  [
    (Sp.Ping, {|{"op": "ping"}|});
    ( Sp.Admit { src = 0; dst = 2; policy = None },
      {|{"op": "admit", "src": 0, "dst": 2}|} );
    ( Sp.Admit { src = 1; dst = 3; policy = Some Router.Load_aware },
      {|{"op": "admit", "src": 1, "dst": 3, "policy": "load-aware"}|} );
    (Sp.Release { id = 7 }, {|{"op": "release", "id": 7}|});
    (Sp.Fail_link { link = 4 }, {|{"op": "fail", "link": 4}|});
    (Sp.Repair_link { link = 4 }, {|{"op": "repair", "link": 4}|});
    ( Sp.Fail_burst { links = [ 2; 5; 9 ] },
      {|{"op": "fail_burst", "links": [2, 5, 9]}|} );
    ( Sp.Repair_burst { links = [ 2; 5 ] },
      {|{"op": "repair_burst", "links": [2, 5]}|} );
    (Sp.Query, {|{"op": "query"}|});
    (Sp.Snapshot, {|{"op": "snapshot"}|});
    ( Sp.Restore { state = "wdm 2 1\nline\n" },
      {|{"op": "restore", "state": "wdm 2 1\nline\n"}|} );
    (Sp.Shutdown, {|{"op": "shutdown"}|});
  ]

let golden_responses =
  [
    (Sp.Pong, {|{"ok": "pong"}|});
    ( Sp.Admitted { id = 3; cost = 4.0 },
      {|{"ok": "admitted", "id": 3, "cost": 4.0}|} );
    ( Sp.Admitted { id = 0; cost = 2.5 },
      {|{"ok": "admitted", "id": 0, "cost": 2.5}|} );
    ( Sp.Blocked { cause = "no_disjoint_pair" },
      {|{"ok": "blocked", "cause": "no_disjoint_pair"}|} );
    (Sp.Released { id = 3 }, {|{"ok": "released", "id": 3}|});
    (Sp.Link_failed { link = 1 }, {|{"ok": "failed", "link": 1}|});
    (Sp.Link_repaired { link = 1 }, {|{"ok": "repaired", "link": 1}|});
    ( Sp.Burst_failed { links = [ 2; 5 ]; switched = 1; rerouted = 2; dropped = 0 },
      {|{"ok": "burst_failed", "links": [2, 5], "switched": 1, "rerouted": 2, "dropped": 0}|}
    );
    ( Sp.Burst_repaired { links = [ 2; 5 ] },
      {|{"ok": "burst_repaired", "links": [2, 5]}|} );
    ( Sp.Stats
        {
          Sp.st_nodes = 4;
          st_links = 8;
          st_wavelengths = 3;
          st_connections = 2;
          st_in_use = 10;
          st_load = 0.25;
          st_failed_links = [ 2; 5 ];
          st_admitted_total = 3;
          st_blocked_total = 1;
        },
      {|{"ok": "stats", "nodes": 4, "links": 8, "wavelengths": 3, "connections": 2, "in_use": 10, "load": 0.25, "failed_links": [2, 5], "admitted_total": 3, "blocked_total": 1}|}
    );
    ( Sp.Snapshot_state { state = "# rr-serve snapshot v1\n" },
      {|{"ok": "snapshot", "state": "# rr-serve snapshot v1\n"}|} );
    (Sp.Restored { connections = 2 }, {|{"ok": "restored", "connections": 2}|});
    (Sp.Bye, {|{"ok": "bye"}|});
    ( Sp.Error { kind = Sp.Unknown_op; msg = "unknown op \"frob\"" },
      {|{"error": "unknown_op", "msg": "unknown op \"frob\""}|} );
    ( Sp.Error { kind = Sp.Busy; msg = "queue full" },
      {|{"error": "busy", "msg": "queue full"}|} );
  ]

let test_protocol_golden () =
  List.iter
    (fun (req, bytes) ->
      checks "request encoding" bytes (Sp.encode_request req);
      match Sp.decode_request bytes with
      | Ok back -> checkb "request round-trip" true (back = req)
      | Error (_, m) -> Alcotest.failf "decode %s: %s" bytes m)
    golden_requests;
  List.iter
    (fun (resp, bytes) ->
      checks "response encoding" bytes (Sp.encode_response resp);
      match Sp.decode_response bytes with
      | Ok back -> checkb "response round-trip" true (back = resp)
      | Error m -> Alcotest.failf "decode %s: %s" bytes m)
    golden_responses

let test_protocol_malformed () =
  (* Malformed payloads: typed error kinds, never exceptions. *)
  let cases =
    [
      ("not json at all", Sp.Bad_json);
      ({|{"op": "admit", "src": 0|}, Sp.Bad_json);
      ({|[1, 2]|}, Sp.Bad_request);
      ({|{"noop": 1}|}, Sp.Bad_request);
      ({|{"op": 7}|}, Sp.Bad_request);
      ({|{"op": "frobnicate"}|}, Sp.Unknown_op);
      ({|{"op": "admit", "src": 0}|}, Sp.Bad_request);
      ({|{"op": "admit", "src": "a", "dst": 2}|}, Sp.Bad_request);
      ({|{"op": "admit", "src": 0, "dst": 2, "policy": "nope"}|}, Sp.Bad_request);
      ({|{"op": "release"}|}, Sp.Bad_request);
      ({|{"op": "restore"}|}, Sp.Bad_request);
      ({|{"op": "fail_burst"}|}, Sp.Bad_request);
      ({|{"op": "fail_burst", "links": 3}|}, Sp.Bad_request);
      ({|{"op": "repair_burst", "links": [1, "a"]}|}, Sp.Bad_request);
    ]
  in
  List.iter
    (fun (payload, kind) ->
      match Sp.decode_request payload with
      | Ok _ -> Alcotest.failf "accepted malformed payload %s" payload
      | Error (k, _) ->
        checks
          (Printf.sprintf "error kind for %s" payload)
          (Sp.error_kind_name kind) (Sp.error_kind_name k))
    cases;
  (* And through the full handler: an encoded typed reply, no raise. *)
  let core = Sc.create (ring4 ()) in
  let reply = Sc.handle_frame core {|{"op": "frobnicate"}|} in
  (match Sp.decode_response reply with
   | Ok (Sp.Error { kind = Sp.Unknown_op; _ }) -> ()
   | _ -> Alcotest.failf "handle_frame reply %s" reply)

let test_framing () =
  let payload = {|{"op": "ping"}|} in
  checks "frame shape" (Printf.sprintf "%d\n%s" (String.length payload) payload)
    (Sp.frame payload);
  (* Incremental: two frames delivered byte by byte. *)
  let f = Sp.Framer.create () in
  let stream = Sp.frame payload ^ Sp.frame {|{"op": "query"}|} in
  let got = ref [] in
  String.iter
    (fun c ->
      Sp.Framer.feed f (String.make 1 c);
      match Sp.Framer.next f with
      | Some (Ok p) -> got := p :: !got
      | Some (Error e) -> Alcotest.fail (Sp.frame_error_message e)
      | None -> ())
    stream;
  checkb "both frames recovered" true
    (List.rev !got = [ payload; {|{"op": "query"}|} ]);
  checkb "nothing pending" false (Sp.Framer.pending f);
  (* Truncated length prefix: not an error yet, just incomplete. *)
  let f = Sp.Framer.create () in
  Sp.Framer.feed f "12";
  checkb "incomplete prefix waits" true (Sp.Framer.next f = None);
  (* Garbage prefix: permanent error. *)
  let f = Sp.Framer.create () in
  Sp.Framer.feed f "12x\n{}";
  (match Sp.Framer.next f with
   | Some (Error (Sp.Bad_prefix _)) -> ()
   | _ -> Alcotest.fail "garbage prefix not rejected");
  (match Sp.Framer.next f with
   | Some (Error (Sp.Bad_prefix _)) -> ()
   | _ -> Alcotest.fail "framing error must be sticky");
  (* Oversized frame. *)
  let f = Sp.Framer.create ~max_frame:10 () in
  Sp.Framer.feed f "11\nxxxxxxxxxxx";
  (match Sp.Framer.next f with
   | Some (Error (Sp.Frame_too_large 11)) -> ()
   | _ -> Alcotest.fail "oversized frame not rejected");
  (* decode_frames convenience. *)
  match Sp.decode_frames (Sp.frame "a" ^ Sp.frame "bc" ^ "3\nx") with
  | [ Ok "a"; Ok "bc" ] -> ()
  | _ -> Alcotest.fail "decode_frames split"

(* ------------------------------------------------------------------ *)
(* The pure handler core                                               *)

let test_core_basics () =
  let core = Sc.create (ring4 ()) in
  (match Sc.handle core Sp.Ping with
   | Sp.Pong -> ()
   | _ -> Alcotest.fail "ping");
  let id0 =
    match Sc.handle core (Sp.Admit { src = 0; dst = 2; policy = None }) with
    | Sp.Admitted { id; cost } ->
      checkb "positive cost" true (cost > 0.0);
      id
    | r -> Alcotest.failf "admit: %s" (Sp.encode_response r)
  in
  checki "ids start at zero" 0 id0;
  (match Sc.handle core (Sp.Admit { src = 2; dst = 2; policy = None }) with
   | Sp.Error { kind = Sp.Bad_request; _ } -> ()
   | _ -> Alcotest.fail "degenerate pair must be rejected");
  (match Sc.handle core (Sp.Release { id = 99 }) with
   | Sp.Error { kind = Sp.Unknown_id; _ } -> ()
   | _ -> Alcotest.fail "unknown id");
  (match Sc.handle core (Sp.Fail_link { link = 0 }) with
   | Sp.Link_failed { link = 0 } -> ()
   | _ -> Alcotest.fail "fail link");
  (match Sc.handle core (Sp.Fail_link { link = 0 }) with
   | Sp.Error { kind = Sp.Bad_state; _ } -> ()
   | _ -> Alcotest.fail "double fail");
  (match Sc.handle core (Sp.Fail_link { link = 999 }) with
   | Sp.Error { kind = Sp.Bad_state; _ } -> ()
   | _ -> Alcotest.fail "out of range fail");
  (match Sc.handle core (Sp.Repair_link { link = 0 }) with
   | Sp.Link_repaired { link = 0 } -> ()
   | _ -> Alcotest.fail "repair");
  (match Sc.handle core Sp.Query with
   | Sp.Stats s ->
     checki "one connection" 1 s.Sp.st_connections;
     checki "admitted total" 1 s.Sp.st_admitted_total;
     checkb "usage accounted" true (s.Sp.st_in_use > 0);
     checkb "no failed links" true (s.Sp.st_failed_links = [])
   | _ -> Alcotest.fail "query");
  (match Sc.handle core (Sp.Release { id = id0 }) with
   | Sp.Released { id } -> checki "released id" id0 id
   | _ -> Alcotest.fail "release");
  checki "network drained" 0 (Net.total_in_use (Sc.network core));
  (* Blocking on a path graph (no disjoint pair exists): the cause is
     named even though this core's observability is off. *)
  let blocked = Sc.create (path3 ()) in
  (match Sc.handle blocked (Sp.Admit { src = 0; dst = 2; policy = None }) with
   | Sp.Blocked { cause = "no_disjoint_pair" } -> ()
   | r -> Alcotest.failf "expected blocked: %s" (Sp.encode_response r));
  (* Shutdown flips [stopping]. *)
  checkb "not stopping" false (Sc.stopping core);
  (match Sc.handle core Sp.Shutdown with
   | Sp.Bye -> ()
   | _ -> Alcotest.fail "shutdown");
  checkb "stopping" true (Sc.stopping core)

let test_core_round_ordering () =
  let core = Sc.create (ring4 ()) in
  (match Sc.handle_round core ~queue_capacity:2 [ Sp.Ping; Sp.Ping; Sp.Ping; Sp.Ping ] with
   | [ Sp.Pong; Sp.Pong; Sp.Error { kind = Sp.Busy; _ }; Sp.Error { kind = Sp.Busy; _ } ]
     -> ()
   | rs ->
     Alcotest.failf "round: %s"
       (String.concat " | " (List.map Sp.encode_response rs)));
  (* FIFO id assignment under the cap. *)
  let admits =
    List.init 5 (fun _ -> Sp.Admit { src = 0; dst = 2; policy = None })
  in
  let resps = Sc.handle_round core ~queue_capacity:3 admits in
  let ids =
    List.filter_map
      (function Sp.Admitted { id; _ } -> Some id | _ -> None)
      resps
  in
  checkb "ids ascend in FIFO order" true (ids = List.sort Int.compare ids);
  checki "overflow answered busy" 2
    (List.length
       (List.filter
          (function Sp.Error { kind = Sp.Busy; _ } -> true | _ -> false)
          resps));
  (* queue.rejected is counted when the core carries a live context. *)
  let obs = Obs.create () in
  let counted = Sc.create ~obs (ring4 ()) in
  ignore (Sc.handle_round counted ~queue_capacity:1 [ Sp.Ping; Sp.Ping; Sp.Ping ]);
  checki "queue.rejected" 2 (Metrics.counter (Obs.metrics obs) "queue.rejected");
  checki "serve.requests counts accepted" 1
    (Metrics.counter (Obs.metrics obs) "serve.requests")

let test_core_bursts () =
  let core = Sc.create (ring4 ()) in
  let id0 =
    match Sc.handle core (Sp.Admit { src = 0; dst = 2; policy = None }) with
    | Sp.Admitted { id; _ } -> id
    | r -> Alcotest.failf "admit: %s" (Sp.encode_response r)
  in
  (* Atomic validation: any bad member rejects the whole burst with no
     state change. *)
  (match Sc.handle core (Sp.Fail_burst { links = [ 0; 999 ] }) with
   | Sp.Error { kind = Sp.Bad_state; _ } -> ()
   | r -> Alcotest.failf "out-of-range burst: %s" (Sp.encode_response r));
  (match Sc.handle core (Sp.Repair_burst { links = [ 0 ] }) with
   | Sp.Error { kind = Sp.Bad_state; _ } -> ()
   | r -> Alcotest.failf "repair of healthy link: %s" (Sp.encode_response r));
  (match Sc.handle core Sp.Query with
   | Sp.Stats s ->
     checkb "rejected bursts left no state" true (s.Sp.st_failed_links = [])
   | _ -> Alcotest.fail "query");
  (* Fell the connection's entire primary at once: the reserved backup is
     edge-disjoint and intact, so restoration switches and the
     connection survives the correlated cut. *)
  let prim =
    match List.assoc_opt id0 (Sc.connections core) with
    | Some sol -> Rr_wdm.Semilightpath.links sol.Types.primary
    | None -> Alcotest.fail "connection missing"
  in
  (match Sc.handle core (Sp.Fail_burst { links = prim }) with
   | Sp.Burst_failed { links; switched; rerouted; dropped } ->
     checkb "links echoed sorted" true
       (links = List.sort_uniq Int.compare prim);
     checki "switched" 1 switched;
     checki "rerouted" 0 rerouted;
     checki "dropped" 0 dropped
   | r -> Alcotest.failf "fail burst: %s" (Sp.encode_response r));
  checki "connection survived" 1 (List.length (Sc.connections core));
  (match Sc.handle core (Sp.Repair_burst { links = prim }) with
   | Sp.Burst_repaired { links } ->
     checkb "repairs echoed sorted" true
       (links = List.sort_uniq Int.compare prim)
   | r -> Alcotest.failf "repair burst: %s" (Sp.encode_response r));
  (match Sc.handle core Sp.Query with
   | Sp.Stats s ->
     checkb "all repaired" true (s.Sp.st_failed_links = []);
     checki "one connection" 1 s.Sp.st_connections
   | _ -> Alcotest.fail "query");
  (match Sc.handle core (Sp.Release { id = id0 }) with
   | Sp.Released _ -> ()
   | r -> Alcotest.failf "release: %s" (Sp.encode_response r));
  checki "network drained after burst cycle" 0
    (Net.total_in_use (Sc.network core))

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)

let run_script core reqs = List.map (fun r -> Sc.handle core r) reqs

let demo_script =
  [
    Sp.Admit { src = 0; dst = 2; policy = None };
    Sp.Admit { src = 1; dst = 3; policy = None };
    Sp.Fail_link { link = 2 };
    Sp.Admit { src = 3; dst = 1; policy = None };
    Sp.Release { id = 1 };
    Sp.Query;
    Sp.Repair_link { link = 2 };
    Sp.Admit { src = 2; dst = 0; policy = None };
    Sp.Release { id = 42 };
    (* unknown id: error paths must replay too *)
    Sp.Admit { src = 0; dst = 3; policy = None };
  ]

let test_snapshot_roundtrip () =
  let core = Sc.create (ring4 ()) in
  ignore (run_script core demo_script : Sp.response list);
  let snap = Sc.snapshot core in
  (* Network_io round-trip is byte-identical. *)
  (match Rr_wdm.Network_io.parse_snapshot snap with
   | Error m -> Alcotest.failf "parse_snapshot: %s" m
   | Ok { Rr_wdm.Network_io.snap_net; snap_conns } ->
     let reprint = Rr_wdm.Network_io.print_snapshot snap_net ~conns:snap_conns in
     let without_meta =
       String.split_on_char '\n' snap
       |> List.filter (fun l -> not (String.starts_with ~prefix:"# rr-serve meta" l))
       |> String.concat "\n"
     in
     checks "Network_io round-trip" without_meta reprint;
     checkb "usage restored" true
       (Net.total_in_use snap_net = Net.total_in_use (Sc.network core)));
  (* Core round-trip: a restored core re-prints the same bytes and serves
     the same stats. *)
  match Sc.of_snapshot snap with
  | Error m -> Alcotest.failf "of_snapshot: %s" m
  | Ok core' ->
    checks "core snapshot round-trip" snap (Sc.snapshot core');
    checkb "stats preserved" true (Sc.stats core' = Sc.stats core)

let test_snapshot_midworkload () =
  (* Snapshot mid-workload, restart the handler on the restored state,
     replay the rest: byte-identical outcomes vs the uninterrupted run. *)
  let prefix, suffix =
    let rec cut k xs =
      if k = 0 then ([], xs)
      else
        match xs with
        | [] -> ([], [])
        | x :: rest ->
          let a, b = cut (k - 1) rest in
          (x :: a, b)
    in
    cut 4 demo_script
  in
  let uninterrupted = Sc.create (ring4 ()) in
  let expect = run_script uninterrupted (prefix @ suffix) in
  let interrupted = Sc.create (ring4 ()) in
  let got_prefix = run_script interrupted prefix in
  let snap = Sc.snapshot interrupted in
  let resumed =
    match Sc.of_snapshot snap with
    | Ok c -> c
    | Error m -> Alcotest.failf "restore: %s" m
  in
  let got = got_prefix @ run_script resumed suffix in
  List.iteri
    (fun i (a, b) ->
      checks
        (Printf.sprintf "response %d identical across restart" i)
        (Sp.encode_response a) (Sp.encode_response b))
    (List.combine expect got);
  checks "final snapshot identical" (Sc.snapshot uninterrupted)
    (Sc.snapshot resumed)

let test_restore_over_protocol () =
  let donor = Sc.create (ring4 ()) in
  ignore (run_script donor demo_script : Sp.response list);
  let snap = Sc.snapshot donor in
  let core = Sc.create (nsfnet ()) in
  (match Sc.handle core (Sp.Restore { state = snap }) with
   | Sp.Restored { connections } ->
     checki "restored connections" (List.length (Sc.connections donor)) connections
   | r -> Alcotest.failf "restore: %s" (Sp.encode_response r));
  checkb "stats follow the restored state" true (Sc.stats core = Sc.stats donor);
  (* Rejected restore text leaves a typed error. *)
  match Sc.handle core (Sp.Restore { state = "wdm nope" }) with
  | Sp.Error { kind = Sp.Bad_state; _ } -> ()
  | r -> Alcotest.failf "bad restore: %s" (Sp.encode_response r)

let test_corpus_snapshot () =
  let path = Filename.concat "corpus" "serve_snapshot_ring4.snap" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Rr_wdm.Network_io.parse_snapshot text with
  | Error m -> Alcotest.failf "corpus parse: %s" m
  | Ok { Rr_wdm.Network_io.snap_net; snap_conns } ->
    checks "corpus byte-identical round-trip" text
      (Rr_wdm.Network_io.print_snapshot snap_net ~conns:snap_conns);
    checki "two live connections" 2 (List.length snap_conns);
    checkb "failed link applied" true (Net.is_failed snap_net 2);
    (* The snapshot must boot a serving core directly. *)
    (match Sc.of_snapshot text with
     | Error m -> Alcotest.failf "corpus boot: %s" m
     | Ok core -> (
       match Sc.handle core Sp.Query with
       | Sp.Stats s ->
         checki "connections served" 2 s.Sp.st_connections;
         checkb "failed link visible" true (s.Sp.st_failed_links = [ 2 ])
       | _ -> Alcotest.fail "query on restored corpus"))

(* ------------------------------------------------------------------ *)
(* Live socket loop                                                    *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  fd

let send_raw fd bytes =
  let len = String.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write_substring fd bytes !written (len - !written)
  done

let send fd req = send_raw fd (Sp.frame (Sp.encode_request req))

(* Pump the server until [n] replies arrive on [fd] (deterministic
   single-threaded interleaving, as in the obs_http socket test). *)
let await srv fd framer n =
  let buf = Bytes.create 4096 in
  let replies = ref [] in
  let guard = ref 0 in
  while List.length !replies < n && !guard < 2000 do
    incr guard;
    Server.pump ~timeout:0.002 srv;
    (match Unix.read fd buf 0 (Bytes.length buf) with
     | 0 -> ()
     | got -> Sp.Framer.feed framer (Bytes.sub_string buf 0 got)
     | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    let rec drain () =
      match Sp.Framer.next framer with
      | Some (Ok p) -> (
        match Sp.decode_response p with
        | Ok r ->
          replies := r :: !replies;
          drain ()
        | Error m -> Alcotest.failf "bad reply: %s" m)
      | Some (Error e) -> Alcotest.failf "reply framing: %s" (Sp.frame_error_message e)
      | None -> ()
    in
    drain ()
  done;
  if List.length !replies < n then Alcotest.failf "server never answered";
  List.rev !replies

let test_server_differential () =
  (* The same script through the live server and through direct library
     calls on an independent copy: identical admissions, costs, errors
     and final per-link state. *)
  let core = Sc.create (nsfnet ()) in
  let srv = Server.create ~port:0 core in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let fd = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let framer = Sp.Framer.create () in
  let script =
    [
      Sp.Admit { src = 0; dst = 13; policy = None };
      Sp.Admit { src = 3; dst = 9; policy = Some Router.Load_aware };
      Sp.Fail_link { link = 1 };
      Sp.Admit { src = 1; dst = 10; policy = None };
      Sp.Release { id = 0 };
      Sp.Admit { src = 5; dst = 12; policy = None };
      Sp.Repair_link { link = 1 };
      Sp.Release { id = 77 };
      Sp.Admit { src = 2; dst = 7; policy = None };
      Sp.Query;
    ]
  in
  (* Live server path. *)
  let got =
    List.concat_map
      (fun req ->
        send fd req;
        await srv fd framer 1)
      script
  in
  (* Direct library path. *)
  let net = nsfnet () in
  let conns = Hashtbl.create 16 in
  let next_id = ref 0 in
  let admitted_total = ref 0 in
  let blocked_total = ref 0 in
  let ctx = Router.context net in
  let expect =
    List.map
      (fun req ->
        match req with
        | Sp.Admit { src; dst; policy } -> (
          let p = Option.value policy ~default:Router.Cost_approx in
          let rid = !next_id in
          incr next_id;
          match Router.admit_result ctx p ~source:src ~target:dst with
          | Ok sol ->
            Hashtbl.replace conns rid sol;
            incr admitted_total;
            Sp.Admitted { id = rid; cost = Types.total_cost net sol }
          | Error b ->
            incr blocked_total;
            Sp.Blocked { cause = Types.blocked_name b })
        | Sp.Release { id } -> (
          match Hashtbl.find_opt conns id with
          | Some sol ->
            Types.release net sol;
            Hashtbl.remove conns id;
            Sp.Released { id }
          | None -> Sp.Error { kind = Sp.Unknown_id; msg = "" })
        | Sp.Fail_link { link } ->
          Net.fail_link net link;
          Sp.Link_failed { link }
        | Sp.Repair_link { link } ->
          Net.repair_link net link;
          Sp.Link_repaired { link }
        | Sp.Query ->
          Sp.Stats
            {
              Sp.st_nodes = Net.n_nodes net;
              st_links = Net.n_links net;
              st_wavelengths = Net.n_wavelengths net;
              st_connections = Hashtbl.length conns;
              st_in_use = Net.total_in_use net;
              st_load = Net.network_load net;
              st_failed_links = [];
              st_admitted_total = !admitted_total;
              st_blocked_total = !blocked_total;
            }
        | _ -> Alcotest.fail "unexpected script op")
      script
  in
  let norm r =
    Sp.encode_response
      (match r with
       | Sp.Error { kind; msg = _ } -> Sp.Error { kind; msg = "" }
       | r -> r)
  in
  List.iteri
    (fun i (g, e) ->
      checks (Printf.sprintf "script step %d byte-identical" i) (norm e) (norm g))
    (List.combine got expect);
  (* Final per-link used/failed state identical. *)
  let state n =
    List.init (Net.n_links n) (fun e ->
        (Rr_util.Bitset.to_list (Net.used n e), Net.is_failed n e))
  in
  checkb "final link state identical" true
    (state (Sc.network core) = state net)

let test_server_backpressure () =
  let obs = Obs.create () in
  let core = Sc.create ~obs (ring4 ()) in
  let srv = Server.create ~queue_capacity:2 ~port:0 core in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let fd = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let framer = Sp.Framer.create () in
  (* Ensure the connection is accepted before the burst so all six
     frames land in a single pump round. *)
  send fd Sp.Ping;
  ignore (await srv fd framer 1 : Sp.response list);
  let burst = String.concat "" (List.init 6 (fun _ -> Sp.frame {|{"op": "ping"}|})) in
  send_raw fd burst;
  (* One read drains the whole burst (loopback, 4 KiB buffer): exactly
     one round of queue accounting. *)
  let replies = await srv fd framer 6 in
  let pongs, busy =
    List.partition (function Sp.Pong -> true | _ -> false) replies
  in
  checki "capacity worth of pongs" 2 (List.length pongs);
  checki "overflow busy" 4 (List.length busy);
  List.iter
    (function
      | Sp.Pong | Sp.Error { kind = Sp.Busy; _ } -> ()
      | r -> Alcotest.failf "unexpected reply: %s" (Sp.encode_response r))
    replies;
  (* Ordered: accepted prefix first, then the busy tail. *)
  checkb "prefix accepted in order" true
    (match replies with
     | Sp.Pong :: Sp.Pong :: rest ->
       List.for_all (function Sp.Error { kind = Sp.Busy; _ } -> true | _ -> false) rest
     | _ -> false);
  checki "queue.rejected counted" 4
    (Metrics.counter (Obs.metrics obs) "queue.rejected");
  (* The queue recovers: later requests are served normally. *)
  send fd Sp.Query;
  match await srv fd framer 1 with
  | [ Sp.Stats _ ] -> ()
  | _ -> Alcotest.fail "server wedged after backpressure"

let test_server_bad_frame_close () =
  let core = Sc.create (ring4 ()) in
  let srv = Server.create ~port:0 core in
  Fun.protect ~finally:(fun () -> Server.shutdown srv) @@ fun () ->
  let fd = connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let framer = Sp.Framer.create () in
  send_raw fd "garbage\n";
  (match await srv fd framer 1 with
   | [ Sp.Error { kind = Sp.Bad_frame; _ } ] -> ()
   | rs ->
     Alcotest.failf "expected bad_frame, got %s"
       (String.concat "|" (List.map Sp.encode_response rs)));
  (* The poisoned stream is then closed by the server. *)
  let buf = Bytes.create 64 in
  let closed = ref false in
  let guard = ref 0 in
  while (not !closed) && !guard < 500 do
    incr guard;
    Server.pump ~timeout:0.002 srv;
    match Unix.read fd buf 0 64 with
    | 0 -> closed := true
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> closed := true
  done;
  checkb "connection closed after framing error" true !closed

let test_loadgen_live () =
  (* Full stack: daemon on its own domain, loadgen over a real socket. *)
  let obs = Obs.create ~window_ns:1_000_000_000 () in
  let core = Sc.create ~obs (nsfnet ()) in
  let srv = Server.create ~port:0 core in
  let port = Server.port srv in
  let domain = Domain.spawn (fun () -> Server.run ~timeout:0.01 srv) in
  let model = Rr_sim.Workload.make ~arrival_rate:20.0 ~mean_holding:1.0 in
  let ops = Loadgen.script ~seed:11 ~n_nodes:14 ~requests:60 model in
  checkb "script interleaves releases" true
    (Array.exists (function Loadgen.Op_release _ -> true | _ -> false) ops);
  (* Determinism: same seed, same script. *)
  checkb "script deterministic" true
    (Loadgen.script ~seed:11 ~n_nodes:14 ~requests:60 model = ops);
  let report = Loadgen.run ~shutdown:true ~port ops in
  Domain.join domain;
  checki "every request answered" 60 report.Loadgen.lg_requests;
  checki "no protocol errors" 0 report.Loadgen.lg_errors;
  checki "all requests resolved" 60
    (report.Loadgen.lg_admitted + report.Loadgen.lg_blocked);
  checkb "p50 <= p99" true
    (Loadgen.quantile_ns report 0.5 <= Loadgen.quantile_ns report 0.99);
  checkb "latencies measured" true
    (Array.for_all (fun l -> l > 0) report.Loadgen.lg_latencies_ns);
  (* CSV artifact shape. *)
  let csv = Loadgen.csv report in
  checki "csv rows" 61 (List.length (String.split_on_char '\n' (String.trim csv)));
  checkb "csv header" true
    (String.starts_with ~prefix:"request,outcome,latency_ns\n" csv);
  (* The daemon's registry saw the traffic: admissions, request-window
     histogram, and a clean journal. *)
  let m = Obs.metrics obs in
  checki "admit.ok counted" report.Loadgen.lg_admitted
    (Metrics.counter m "admit.ok");
  checki "no journal drops" 0 (Metrics.counter m "journal.dropped");
  checkb "serve.requests counted" true
    (Metrics.counter m "serve.requests" > 60);
  match List.assoc_opt "req.admit" (Metrics.items m) with
  | Some (Metrics.Histogram h) ->
    checki "req.admit histogram fed" 60 h.Metrics.count
  | _ -> Alcotest.fail "req.admit histogram missing"

(* ------------------------------------------------------------------ *)
(* CLI entry points (child processes, as in the obs CLI tests)         *)

let cli = Filename.concat (Filename.concat ".." "bin") "rr_cli.exe"

let wait_for path pred =
  let deadline = 200 in
  let rec go i =
    if i > deadline then Alcotest.failf "timed out waiting on %s" path;
    let text =
      try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""
    in
    match pred text with
    | Some v -> v
    | None ->
      Unix.sleepf 0.05;
      go (i + 1)
  in
  go 0

let test_cli_serve_loadgen () =
  let out = Filename.temp_file "rr_serve_cli" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--port"; "0"; "--http-port"; "0"; "--topo"; "ring:6" |]
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let port =
    wait_for out (fun text ->
        List.find_map
          (fun line ->
            match String.split_on_char '=' line with
            | [ "serve: port"; p ] -> int_of_string_opt p
            | _ -> None)
          (String.split_on_char '\n' text))
  in
  let csv = Filename.temp_file "rr_loadgen" ".csv" in
  let code =
    Sys.command
      (Filename.quote_command cli
         [
           "loadgen"; "--port"; string_of_int port; "--requests"; "25";
           "--seed"; "3"; "--shutdown"; "--csv"; csv;
         ]
         ~stdout:Filename.null ~stderr:Filename.null)
  in
  checki "loadgen exits 0" 0 code;
  let _, status = Unix.waitpid [] pid in
  checkb "daemon exits 0 on shutdown" true (status = Unix.WEXITED 0);
  let rows = In_channel.with_open_bin csv In_channel.input_all in
  checki "csv carries every request" 26
    (List.length (String.split_on_char '\n' (String.trim rows)));
  let final = In_channel.with_open_bin out In_channel.input_all in
  checkb "clean goodbye logged" true
    (List.exists
       (String.starts_with ~prefix:"serve: bye")
       (String.split_on_char '\n' final));
  Sys.remove out;
  Sys.remove csv

let suite =
  [
    ( "serve.protocol",
      [
        Alcotest.test_case "golden frames" `Quick test_protocol_golden;
        Alcotest.test_case "malformed payloads" `Quick test_protocol_malformed;
        Alcotest.test_case "framing" `Quick test_framing;
      ] );
    ( "serve.core",
      [
        Alcotest.test_case "request dispatch" `Quick test_core_basics;
        Alcotest.test_case "bounded queue ordering" `Quick test_core_round_ordering;
        Alcotest.test_case "fail/repair bursts" `Quick test_core_bursts;
      ] );
    ( "serve.snapshot",
      [
        Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "mid-workload restart" `Quick test_snapshot_midworkload;
        Alcotest.test_case "restore over the protocol" `Quick test_restore_over_protocol;
        Alcotest.test_case "corpus snapshot" `Quick test_corpus_snapshot;
      ] );
    ( "serve.socket",
      [
        Alcotest.test_case "server-vs-library differential" `Quick
          test_server_differential;
        Alcotest.test_case "queue backpressure" `Quick test_server_backpressure;
        Alcotest.test_case "bad frame closes" `Quick test_server_bad_frame_close;
        Alcotest.test_case "loadgen end to end" `Quick test_loadgen_live;
      ] );
    ( "serve.cli",
      [ Alcotest.test_case "serve + loadgen round trip" `Quick test_cli_serve_loadgen ]
    );
  ]
