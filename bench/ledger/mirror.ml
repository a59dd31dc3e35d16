(* In-process replays of an admit/release script on private copies of a
   network.

   - [Library]: [Router.admit ~aux_cache ~workspace], the library path,
     timed per call with nothing else recorded — the reference every other
     replay must match, and the oracle for the daemon's replies.
   - [Recomposed]: the same admission rebuilt from public calls, with a
     span around each layer.  Requests enter as wire bytes through
     [Protocol.Framer] and [decode_request] and leave through
     [encode_response], as in the daemon.
   - [Handler]: [Serve.Core.handle] with an enabled [Obs], as [rr serve]
     builds it, timed per call.

   Admission ids follow [Serve.Core]: one per admission request, in order,
   whatever the outcome; a release of a blocked admission is skipped. *)

open Rr_ledger
module Net = Rr_wdm.Network
module Aux = Rr_wdm.Auxiliary
module Cache = Rr_wdm.Aux_cache
module Slp = Rr_wdm.Semilightpath
module Ws = Rr_util.Workspace
module Router = Robust_routing.Router
module Types = Robust_routing.Types
module P = Rr_serve.Protocol
module L = Rr_serve.Loadgen

(* ------------------------------------------------------------------ *)
(* Library replay                                                      *)

type library = {
  net : Net.t;
  cache : Cache.t;
  ws : Ws.t;
  live : (int, Types.solution) Hashtbl.t;
  mutable next_id : int;
}

let library net =
  { net; cache = Cache.create net; ws = Ws.create (); live = Hashtbl.create 256; next_id = 0 }

(* One admission; returns the id it was given and the solution. *)
let lib_admit m ~src ~dst =
  let id = m.next_id in
  m.next_id <- id + 1;
  let sol =
    Router.admit ~aux_cache:m.cache ~workspace:m.ws m.net Router.Cost_approx ~source:src
      ~target:dst
  in
  Option.iter (Hashtbl.replace m.live id) sol;
  (id, sol)

let lib_release m id =
  match Hashtbl.find_opt m.live id with
  | None -> false
  | Some sol ->
    Types.release m.net sol;
    Hashtbl.remove m.live id;
    true

(* The reply [Serve.Core] gives for an admission outcome, up to the
   blocking cause (which needs the daemon's counters). *)
let same_outcome net (id, sol) (resp : P.response) =
  match (sol, resp) with
  | Some s, P.Admitted { id = id'; cost } ->
    id = id' && Float.equal cost (Types.total_cost net s)
  | None, P.Blocked _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Recomposed pipeline with spans                                      *)

let names =
  [|
    "request"; "protocol.decode"; "core.admit"; "core.release"; "aux_cache.sync";
    "auxiliary.pair"; "auxiliary.induce"; "layered.refine"; "types.validate";
    "types.allocate"; "types.release"; "protocol.encode";
  |]

let s_request = 0
let s_decode = 1
let s_admit = 2
let s_release = 3
let s_sync = 4
let s_pair = 5
let s_induce = 6
let s_refine = 7
let s_validate = 8
let s_allocate = 9
let s_types_release = 10
let s_encode = 11

type counts = {
  mutable syncs : int;
  mutable touched : int;
  mutable full_rebuilds : int;
  mutable admits : int;
  mutable no_pair : int;
  mutable refines : int;
  mutable nonsimple : int;
}

type recomposed = {
  r : library;  (* network, cache, workspace, live table, ids *)
  spans : Span.t;
  framer : P.Framer.t;
  c : counts;
}

let recomposed net ~capacity =
  {
    r = library net;
    spans = Span.create ~capacity names;
    framer = P.Framer.create ();
    c = { syncs = 0; touched = 0; full_rebuilds = 0; admits = 0; no_pair = 0; refines = 0; nonsimple = 0 };
  }

(* Approx_cost.refine: the optimal semilightpath inside the induced link
   set, screened for physical-link simplicity. *)
let refine m ~src ~dst links =
  m.c.refines <- m.c.refines + 1;
  Ws.mark_reset m.r.ws (Net.n_links m.r.net);
  List.iter (Ws.mark m.r.ws) links;
  match
    Rr_wdm.Layered.optimal m.r.net ~link_enabled:(Ws.marked m.r.ws) ~workspace:m.r.ws
      ~source:src ~target:dst
  with
  | Some (p, _) when not (Slp.link_simple p) ->
    m.c.nonsimple <- m.c.nonsimple + 1;
    None
  | r -> r

let rec_admit m ~req ~src ~dst =
  let sp = m.spans and net = m.r.net and ws = m.r.ws in
  let layer i f =
    Span.enter sp i ~req;
    let v = f () in
    Span.leave sp;
    v
  in
  Span.enter sp s_admit ~req;
  let st = layer s_sync (fun () -> Cache.sync m.r.cache) in
  m.c.syncs <- m.c.syncs + 1;
  m.c.touched <- m.c.touched + st.Cache.touched;
  if st.Cache.full_rebuild then m.c.full_rebuilds <- m.c.full_rebuilds + 1;
  m.c.admits <- m.c.admits + 1;
  let outcome =
    let aux, pair =
      layer s_pair (fun () ->
          let aux, enabled = Cache.gprime_view m.r.cache ~source:src ~target:dst in
          (aux, Aux.disjoint_pair ~workspace:ws ~enabled aux))
    in
    match pair with
    | None ->
      m.c.no_pair <- m.c.no_pair + 1;
      Error "no_disjoint_pair"
    | Some ((p1, p2), _) -> (
      let l1, l2 = layer s_induce (fun () -> (Aux.links_of_path aux p1, Aux.links_of_path aux p2)) in
      let r1, r2 =
        layer s_refine (fun () ->
            let r1 = refine m ~src ~dst l1 in
            (r1, refine m ~src ~dst l2))
      in
      match (r1, r2) with
      | Some (s1, c1), Some (s2, c2) -> (
        (* Approx_cost serves the cheaper path as primary. *)
        let primary, backup = if c1 <= c2 then (s1, s2) else (s2, s1) in
        let sol = { Types.primary; backup = Some backup } in
        match layer s_validate (fun () -> Types.validate net { Types.src; dst } sol) with
        | Error _ -> Error "validator_reject"
        | Ok () ->
          layer s_allocate (fun () -> Types.allocate net sol);
          Ok sol)
      | _ -> Error "no_wavelength")
  in
  let id = m.r.next_id in
  m.r.next_id <- id + 1;
  let resp =
    match outcome with
    | Ok sol ->
      Hashtbl.replace m.r.live id sol;
      P.Admitted { id; cost = Types.total_cost net sol }
    | Error cause -> P.Blocked { cause }
  in
  Span.leave sp;
  (resp, Result.to_option outcome)

let rec_release m ~req id =
  let sp = m.spans in
  Span.enter sp s_release ~req;
  let resp =
    match Hashtbl.find_opt m.r.live id with
    | None -> P.Error { kind = P.Unknown_id; msg = Printf.sprintf "no connection %d" id }
    | Some sol ->
      Span.enter sp s_types_release ~req;
      Types.release m.r.net sol;
      Span.leave sp;
      Hashtbl.remove m.r.live id;
      P.Released { id }
  in
  Span.leave sp;
  resp

(* One request from wire bytes to wire bytes. *)
let rec_request m ~req frame =
  let sp = m.spans in
  Span.enter sp s_request ~req;
  Span.enter sp s_decode ~req;
  P.Framer.feed m.framer frame;
  let decoded =
    match P.Framer.next m.framer with
    | Some (Ok payload) -> P.decode_request payload
    | _ -> Error (P.Bad_frame, "incomplete frame")
  in
  Span.leave sp;
  let resp, sol =
    match decoded with
    | Ok (P.Admit { src; dst; _ }) -> rec_admit m ~req ~src ~dst
    | Ok (P.Release { id }) -> (rec_release m ~req id, None)
    | Ok _ | Error _ -> (P.Error { kind = P.Bad_request; msg = "unexpected request" }, None)
  in
  Span.enter sp s_encode ~req;
  let out = P.frame (P.encode_response resp) in
  Span.leave sp;
  Span.leave sp;
  (out, sol)

(* ------------------------------------------------------------------ *)
(* Replaying one script through all three                              *)

type replay = {
  ops : int;  (* operations replayed (skipped releases excluded) *)
  admits : int;
  lib_admit_ns : float array;
  lib_minor_words : float;
  lib_major : int;
  core_admit_ns : float array;
  core_release_ns : float array;
  rec_ : recomposed;
  bytes : int;  (* request + response frames *)
  mismatches : string list;
}

let time f =
  let t0 = Setup.now_ns () in
  let v = f () in
  (v, float_of_int (Setup.now_ns () - t0))

(* The requests of a script, as a client would send them: a release
   carries its admission's id, which is the admission's index. *)
let requests ops =
  Array.map
    (function
      | L.Op_admit { src; dst } -> P.Admit { src; dst; policy = None }
      | L.Op_release { admit } -> P.Release { id = admit })
    ops

(* The three replays take each operation in turn, so that heap state and
   cache warmth favour none of them.  The library goes first: its
   outcome decides whether a release is sent at all.  GC figures are
   taken around the library's calls only. *)
let replay net ops =
  let reqs = requests ops in
  let frames = Array.map (fun r -> P.frame (P.encode_request r)) reqs in
  let lib = library (Net.copy net) in
  let m = recomposed (Net.copy net) ~capacity:(Array.length ops * 12) in
  let core =
    Rr_serve.Core.create ~obs:(Rr_obs.Obs.create ~window_ns:1_000_000_000 ()) (Net.copy net)
  in
  let mismatches = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> mismatches := s :: !mismatches) fmt in
  let lib_times = ref [] and core_admit = ref [] and core_release = ref [] in
  let minor = ref 0.0 and major = ref 0 and n_sent = ref 0 and bytes = ref 0 in
  Array.iteri
    (fun i op ->
      let major0 = (Gc.quick_stat ()).Gc.major_collections in
      let minor0 = Gc.minor_words () in
      let sent, lib_sol =
        match op with
        | L.Op_admit { src; dst } ->
          let (_, sol), ns = time (fun () -> lib_admit lib ~src ~dst) in
          lib_times := ns :: !lib_times;
          (true, sol)
        | L.Op_release { admit } -> (lib_release lib admit, None)
      in
      minor := !minor +. (Gc.minor_words () -. minor0);
      major := !major + ((Gc.quick_stat ()).Gc.major_collections - major0);
      if sent then begin
        incr n_sent;
        let out, sol = rec_request m ~req:i frames.(i) in
        bytes := !bytes + String.length frames.(i) + String.length out;
        if sol <> lib_sol then fail "op %d: recomposed pipeline differs from Router.admit" i;
        let resp, ns = time (fun () -> Rr_serve.Core.handle core reqs.(i)) in
        (match op with
         | L.Op_admit _ -> core_admit := ns :: !core_admit
         | L.Op_release _ -> core_release := ns :: !core_release);
        if not (String.equal (P.frame (P.encode_response resp)) out) then
          fail "op %d: Core.handle reply differs from the recomposed pipeline" i
      end)
    ops;
  let arr l = Array.of_list (List.rev l) in
  {
    ops = !n_sent;
    admits = Setup.count_admits ops;
    lib_admit_ns = arr !lib_times;
    lib_minor_words = !minor;
    lib_major = !major;
    core_admit_ns = arr !core_admit;
    core_release_ns = arr !core_release;
    rec_ = m;
    bytes = !bytes;
    mismatches = List.rev !mismatches;
  }
