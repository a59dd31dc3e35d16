module Net = Rr_wdm.Network
module Router = Robust_routing.Router
module Types = Robust_routing.Types
module Book = Robust_routing.Connections
module Obs = Rr_obs.Obs

type t = {
  mutable book : unit Book.t;
      (* the live connections over the resident context: network, cache
         and workspace *)
  obs : Obs.t;
  default_policy : Router.policy;
  mutable next_id : int;
  mutable admitted_total : int;
  mutable blocked_total : int;
  mutable stopping : bool;
}

let create ?(policy = Router.Cost_approx) ?(obs = Obs.null) net =
  {
    book = Book.create (Router.context net);
    obs;
    default_policy = policy;
    next_id = 0;
    admitted_total = 0;
    blocked_total = 0;
    stopping = false;
  }

let ctx t = Book.ctx t.book
let network t = Router.network (ctx t)
let obs t = t.obs
let stopping t = t.stopping
let default_policy t = t.default_policy

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Failure-time re-routes use the default policy: snapshots do not carry a
   connection's own. *)
let add t ~id ~src ~dst sol =
  ignore
    (Book.add t.book ~id ~request:{ Types.src; dst } ~policy:t.default_policy ()
       (Book.Admitted sol))

let connections t =
  List.map (fun (c : unit Book.conn) -> (c.id, Book.solution c)) (Book.conns t.book)

(* ------------------------------------------------------------------ *)
(* Snapshot text: the Network_io state description plus one serve-level
   metadata comment, so a restored server resumes id assignment and its
   service counters exactly where the snapshot left them.               *)

let meta_prefix = "# rr-serve meta "

let snapshot t =
  let conns =
    List.map
      (fun (id, sol) -> (id, sol.Types.primary, sol.Types.backup))
      (connections t)
  in
  Rr_wdm.Network_io.print_snapshot (network t) ~conns
  ^ Printf.sprintf "%snext_id=%d admitted=%d blocked=%d\n" meta_prefix
      t.next_id t.admitted_total t.blocked_total

let parse_meta text =
  let from_line line =
    let rest =
      String.sub line (String.length meta_prefix)
        (String.length line - String.length meta_prefix)
    in
    let kv tok =
      match String.split_on_char '=' tok with
      | [ k; v ] -> (
        match int_of_string_opt v with Some i -> Some (k, i) | None -> None)
      | _ -> None
    in
    let fields =
      String.split_on_char ' ' rest
      |> List.filter (fun s -> not (String.equal s ""))
      |> List.filter_map kv
    in
    let get k = List.assoc_opt k fields in
    match (get "next_id", get "admitted", get "blocked") with
    | Some n, Some a, Some b -> Some (n, a, b)
    | _ -> None
  in
  List.fold_left
    (fun acc line ->
      match acc with
      | Some _ -> acc
      | None ->
        if String.starts_with ~prefix:meta_prefix line then from_line line
        else None)
    None
    (String.split_on_char '\n' text)

let load_snapshot t text =
  match Rr_wdm.Network_io.parse_snapshot text with
  | Error m -> Error m
  | Ok { Rr_wdm.Network_io.snap_net; snap_conns } ->
    t.book <- Book.create (Router.context snap_net);
    List.iter
      (fun (id, primary, backup) ->
        add t ~id
          ~src:(Rr_wdm.Semilightpath.source snap_net primary)
          ~dst:(Rr_wdm.Semilightpath.target snap_net primary)
          { Types.primary; backup })
      snap_conns;
    let max_id =
      List.fold_left (fun acc (id, _, _) -> max acc id) (-1) snap_conns
    in
    (match parse_meta text with
     | Some (next_id, admitted, blocked) ->
       t.next_id <- max next_id (max_id + 1);
       t.admitted_total <- admitted;
       t.blocked_total <- blocked
     | None ->
       t.next_id <- max_id + 1;
       t.admitted_total <- List.length snap_conns;
       t.blocked_total <- 0);
    Ok (List.length snap_conns)

let of_snapshot ?policy ?obs text =
  (* The throwaway 1-node network is replaced before the state escapes. *)
  let placeholder =
    Net.create ~n_nodes:2 ~n_wavelengths:1
      ~links:
        [ { Net.ls_src = 0; ls_dst = 1; ls_lambdas = [ 0 ]; ls_weight = (fun _ -> 1.0) } ]
      ~converters:(fun _ -> Rr_wdm.Conversion.Full 0.0)
  in
  let t = create ?policy ?obs placeholder in
  match load_snapshot t text with Ok _ -> Ok t | Error m -> Error m

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                     *)

let stats t =
  let net = network t in
  let failed = ref [] in
  for e = Net.n_links net - 1 downto 0 do
    if Net.is_failed net e then failed := e :: !failed
  done;
  {
    Protocol.st_nodes = Net.n_nodes net;
    st_links = Net.n_links net;
    st_wavelengths = Net.n_wavelengths net;
    st_connections = Book.length t.book;
    st_in_use = Net.total_in_use net;
    st_load = Net.network_load net;
    st_failed_links = !failed;
    st_admitted_total = t.admitted_total;
    st_blocked_total = t.blocked_total;
  }

(* Burst pre-validation (links sorted/deduplicated by the caller): the
   whole list must be in range and in the expected failure state before
   any link is touched. *)
let validate_burst t ~want_failed links =
  let net = network t in
  let err kind fmt =
    Printf.ksprintf
      (fun msg ->
        Obs.add t.obs "serve.errors" 1;
        Result.Error (Protocol.Error { kind; msg }))
      fmt
  in
  match links with
  | [] -> err Protocol.Bad_request "empty burst"
  | _ ->
    let rec check = function
      | [] -> Result.Ok ()
      | e :: rest ->
        if e < 0 || e >= Net.n_links net then
          err Protocol.Bad_state "link %d out of range" e
        else if (not want_failed) && Net.is_failed net e then
          err Protocol.Bad_state "link %d already failed" e
        else if want_failed && not (Net.is_failed net e) then
          err Protocol.Bad_state "link %d is not failed" e
        else check rest
    in
    check links

let handle t (req : Protocol.request) : Protocol.response =
  let net = network t in
  let err kind fmt =
    Printf.ksprintf
      (fun msg ->
        Obs.add t.obs "serve.errors" 1;
        Protocol.Error { kind; msg })
      fmt
  in
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Shutdown ->
    t.stopping <- true;
    Protocol.Bye
  | Protocol.Query -> Protocol.Stats (stats t)
  | Protocol.Admit { src; dst; policy } ->
    let n = Net.n_nodes net in
    if src < 0 || src >= n || dst < 0 || dst >= n then
      err Protocol.Bad_request "node out of range in %d -> %d (n = %d)" src dst n
    else if src = dst then err Protocol.Bad_request "source equals destination (%d)" src
    else begin
      let policy = Option.value policy ~default:t.default_policy in
      let rid = fresh_id t in
      match
        Router.admit_result ~obs:t.obs ~req:rid (ctx t) policy ~source:src
          ~target:dst
      with
      | Ok sol ->
        add t ~id:rid ~src ~dst sol;
        t.admitted_total <- t.admitted_total + 1;
        Protocol.Admitted { id = rid; cost = Types.total_cost net sol }
      | Error b ->
        t.blocked_total <- t.blocked_total + 1;
        Protocol.Blocked { cause = Types.blocked_name b }
    end
  | Protocol.Release { id } -> (
    match Book.find t.book id with
    | None -> err Protocol.Unknown_id "no connection %d" id
    | Some c ->
      Book.release t.book c;
      Protocol.Released { id })
  | Protocol.Fail_link { link } ->
    if link < 0 || link >= Net.n_links net then
      err Protocol.Bad_state "link %d out of range" link
    else if Net.is_failed net link then
      err Protocol.Bad_state "link %d already failed" link
    else begin
      Net.fail_link net link;
      Obs.event t.obs ~a:link "journal.link.fail";
      Protocol.Link_failed { link }
    end
  | Protocol.Repair_link { link } ->
    if link < 0 || link >= Net.n_links net then
      err Protocol.Bad_state "link %d out of range" link
    else if not (Net.is_failed net link) then
      err Protocol.Bad_state "link %d is not failed" link
    else begin
      Net.repair_link net link;
      Obs.event t.obs ~a:link "journal.link.repair";
      Protocol.Link_repaired { link }
    end
  | Protocol.Fail_burst { links } -> (
    (* All-or-nothing validation: a bad link rejects the whole burst with
       no state change, so the client never has to guess how much of a
       scenario was applied. *)
    let links = List.sort_uniq Int.compare links in
    match validate_burst t ~want_failed:false links with
    | Error resp -> resp
    | Ok () ->
      List.iter
        (fun link ->
          Net.fail_link net link;
          Obs.event t.obs ~a:link "journal.link.fail")
        links;
      let switched = ref 0 and rerouted = ref 0 and dropped = ref 0 in
      Book.fail ~obs:t.obs t.book ~links ~req:(fun () -> fresh_id t) ~on:(fun _ -> function
          | Book.Switched -> incr switched
          | Book.Rerouted -> incr rerouted
          | Book.Dropped | Book.Endpoint_down -> incr dropped);
      Protocol.Burst_failed
        { links; switched = !switched; rerouted = !rerouted; dropped = !dropped })
  | Protocol.Repair_burst { links } -> (
    let links = List.sort_uniq Int.compare links in
    match validate_burst t ~want_failed:true links with
    | Error resp -> resp
    | Ok () ->
      List.iter
        (fun link ->
          Net.repair_link net link;
          Obs.event t.obs ~a:link "journal.link.repair")
        links;
      Protocol.Burst_repaired { links })
  | Protocol.Snapshot -> (
    match snapshot t with
    | state -> Protocol.Snapshot_state { state }
    | exception Invalid_argument msg -> err Protocol.Bad_state "%s" msg)
  | Protocol.Restore { state } -> (
    match load_snapshot t state with
    | Ok connections -> Protocol.Restored { connections }
    | Error msg -> err Protocol.Bad_state "%s" msg)

(* ------------------------------------------------------------------ *)
(* Frame- and round-level entry points                                  *)

let handle_frame t payload =
  Obs.add t.obs "serve.requests" 1;
  match Protocol.decode_request payload with
  | Ok req -> Protocol.encode_response (handle t req)
  | Error (kind, msg) ->
    Obs.add t.obs "serve.errors" 1;
    Protocol.encode_response (Protocol.Error { kind; msg })

let handle_round t ~queue_capacity reqs =
  if queue_capacity < 1 then invalid_arg "Core.handle_round: queue_capacity < 1";
  let queued = ref 0 in
  let rejected = ref 0 in
  (* Admission-or-busy is decided for the whole round up front (the queue
     is bounded at enqueue time), then the accepted prefix is processed
     in FIFO order — responses line up with requests positionally. *)
  let marked =
    List.map
      (fun req ->
        if !queued >= queue_capacity then begin
          incr rejected;
          None
        end
        else begin
          incr queued;
          Some req
        end)
      reqs
  in
  Obs.gauge t.obs "queue.depth" (float_of_int !queued);
  if !rejected > 0 then Obs.add t.obs "queue.rejected" !rejected;
  List.map
    (fun slot ->
      match slot with
      | Some req ->
        Obs.add t.obs "serve.requests" 1;
        handle t req
      | None ->
        Obs.add t.obs "serve.errors" 1;
        Protocol.Error
          { kind = Protocol.Busy; msg = "admission queue full — retry" })
    marked
