module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Obs = Rr_obs.Obs

type outcome =
  | Switched of Slp.t * Partial_protect.protection
  | Rerouted of Slp.t * Partial_protect.protection
  | Dropped

let path_intact net p =
  List.for_all (fun e -> not (Net.is_failed net e)) (Slp.links p)

(* A fresh full backup for the promoted working path: cheapest
   semilightpath avoiding every link of the working path.  The layered
   search minimises over walks, so link-repeating candidates are screened
   out (see [Semilightpath.link_simple]). *)
let reprovision_backup ~workspace ~obs net primary =
  let primary_links = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace primary_links e ()) (Slp.links primary);
  let link_enabled e = not (Hashtbl.mem primary_links e) in
  match
    Rr_wdm.Layered.optimal ~workspace net ~link_enabled ~obs
      ~source:(Slp.source net primary) ~target:(Slp.target net primary)
  with
  | Some (b, _) when Slp.link_simple b ->
    Slp.allocate net b;
    Some b
  | Some _ | None -> None

let restore ?(obs = Obs.null) ?req ?(reprovision = false) ctx policy ~request
    ~primary ~protection =
  let net = Router.network ctx in
  Obs.add obs "restore.attempt" 1;
  let { Types.src; dst } = request in
  let switched working =
    let protection =
      if reprovision then begin
        match
          reprovision_backup ~workspace:(Router.workspace ctx) ~obs net working
        with
        | Some fresh ->
          Obs.add obs "restore.reprovision" 1;
          Obs.event obs ~a:src ~b:dst "journal.restore.reprovision";
          Partial_protect.Full fresh
        | None -> Partial_protect.Unprotected
      end
      else Partial_protect.Unprotected
    in
    Obs.add obs "restore.ok" 1;
    Obs.add obs "restore.switch" 1;
    Obs.event obs ~a:src ~b:dst "journal.restore.switch";
    Switched (working, protection)
  in
  let reroute () =
    match Router.admit_result ~obs ?req ctx policy ~source:src ~target:dst with
    | Ok fresh ->
      Obs.add obs "restore.ok" 1;
      Obs.add obs "restore.reroute" 1;
      Obs.event obs ~a:src ~b:dst "journal.restore.reroute";
      let protection =
        match fresh.Types.backup with
        | Some b -> Partial_protect.Full b
        | None -> Partial_protect.Unprotected
      in
      Rerouted (fresh.Types.primary, protection)
    | Error _ ->
      Obs.add obs "restore.dropped" 1;
      Obs.event obs ~a:src ~b:dst "journal.restore.drop";
      Dropped
  in
  match protection with
  | Partial_protect.Full b when path_intact net b ->
    (* Active restoration: instant switch to the reserved backup; the
       dead primary's resources are returned. *)
    Slp.release net primary;
    switched b
  | Partial_protect.Segments segs -> (
    match Partial_protect.restore_segments ~obs net ~primary ~segments:segs with
    | Some spliced -> switched spliced
    | None ->
      (* Failure pattern not coverable by one segment: give everything
         back and re-route from scratch on the residual network. *)
      Slp.release net primary;
      List.iter
        (fun s -> Slp.release net s.Partial_protect.seg_detour)
        segs;
      reroute ())
  | Partial_protect.Full b ->
    (* Backup also broken: give everything back and re-route. *)
    Slp.release net primary;
    Slp.release net b;
    reroute ()
  | Partial_protect.Unprotected ->
    Slp.release net primary;
    reroute ()
