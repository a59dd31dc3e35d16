module Bitset = Rr_util.Bitset
module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module Obs = Rr_obs.Obs
module Protect = Partial_protect
module Int_map = Map.Make (Int)

type 'a conn = {
  id : int;
  request : Types.request;
  policy : Router.policy;
  mutable working : Slp.t;
  mutable protection : Protect.protection;
  data : 'a;
}

let of_solution (sol : Types.solution) =
  match sol.backup with Some b -> Protect.Full b | None -> Protect.Unprotected

let solution c =
  let backup =
    match c.protection with
    | Protect.Full b -> Some b
    | Protect.Unprotected | Protect.Segments _ -> None
  in
  { Types.primary = c.working; backup }

type 'a t = { ctx : Router.ctx; mutable live : 'a conn Int_map.t }

let create ctx = { ctx; live = Int_map.empty }
let ctx t = t.ctx
let find t id = Int_map.find_opt id t.live
let conns t = List.map snd (Int_map.bindings t.live)
let length t = Int_map.cardinal t.live

type admission =
  | Admitted of Types.solution
  | Partial of Slp.t * Protect.protection
  | Routed of Types.solution

let add t ~id ~request ~policy data admission =
  let working, protection =
    match admission with
    | Admitted sol -> (sol.Types.primary, of_solution sol)
    | Partial (primary, protection) -> (primary, protection)
    | Routed sol ->
      Types.allocate (Router.network t.ctx) sol;
      (sol.Types.primary, of_solution sol)
  in
  let c = { id; request; policy; working; protection; data } in
  t.live <- Int_map.add id c t.live;
  c

let footprint c = c.working :: Protect.paths c.protection

let release t c =
  List.iter (Slp.release (Router.network t.ctx)) (footprint c);
  t.live <- Int_map.remove c.id t.live

let evict = release

let reinstate t c =
  List.iter (Slp.allocate (Router.network t.ctx)) (footprint c);
  t.live <- Int_map.add c.id c t.live

type outcome = Switched | Rerouted | Dropped | Endpoint_down

(* A fresh full backup for the promoted working path: cheapest
   semilightpath avoiding every link of the working path.  The layered
   search minimises over walks, so link-repeating candidates are screened
   out (see [Semilightpath.link_simple]). *)
let reprovision_backup ~obs ctx { Types.src; dst } working =
  let net = Router.network ctx in
  let working_links = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace working_links e ()) (Slp.links working);
  match
    Rr_wdm.Layered.optimal ~workspace:(Router.workspace ctx) net
      ~link_enabled:(fun e -> not (Hashtbl.mem working_links e))
      ~obs ~source:(Slp.source net working) ~target:(Slp.target net working)
  with
  | Some (b, _) when Slp.link_simple b ->
    Slp.allocate net b;
    Obs.add obs "restore.reprovision" 1;
    Obs.event obs ~a:src ~b:dst "journal.restore.reprovision";
    Protect.Full b
  | Some _ | None -> Protect.Unprotected

(* Restore one connection whose working path a failure hit; every
   wavelength of its working path and protection is still allocated. *)
let restore ~obs ~reprovision ~req t c =
  let ctx = t.ctx in
  let net = Router.network ctx in
  Obs.add obs "restore.attempt" 1;
  let { Types.src; dst } = c.request in
  let switched working =
    c.working <- working;
    c.protection <-
      (if reprovision then reprovision_backup ~obs ctx c.request working
       else Protect.Unprotected);
    Obs.add obs "restore.ok" 1;
    Obs.add obs "restore.switch" 1;
    Obs.event obs ~a:src ~b:dst "journal.restore.switch";
    Switched
  in
  (* Protection dead, uncovering or absent: give everything back and
     re-route from scratch on the residual network. *)
  let reroute () =
    List.iter (Slp.release net) (footprint c);
    match Router.admit_result ~obs ~req ctx c.policy ~source:src ~target:dst with
    | Ok fresh ->
      c.working <- fresh.Types.primary;
      c.protection <- of_solution fresh;
      Obs.add obs "restore.ok" 1;
      Obs.add obs "restore.reroute" 1;
      Obs.event obs ~a:src ~b:dst "journal.restore.reroute";
      Rerouted
    | Error _ ->
      t.live <- Int_map.remove c.id t.live;
      Obs.add obs "restore.dropped" 1;
      Obs.event obs ~a:src ~b:dst "journal.restore.drop";
      Dropped
  in
  match c.protection with
  | Protect.Full b when not (List.exists (Net.is_failed net) (Slp.links b)) ->
    (* Active restoration: instant switch to the reserved backup; the
       dead working path's resources are returned. *)
    Slp.release net c.working;
    switched b
  | Protect.Segments segments -> (
    match Protect.restore_segments ~obs net ~primary:c.working ~segments with
    | Some spliced -> switched spliced
    | None -> reroute ())
  | Protect.Full _ | Protect.Unprotected -> reroute ()

let fail ?(obs = Obs.null) ?(reprovision = false) ?(nodes = []) t ~links ~req
    ~on =
  let cut = Bitset.of_list (Net.n_links (Router.network t.ctx)) links in
  (* One pass in admission order: each re-route consumes residual
     wavelengths, and so does an endpoint drop's release, so the order is
     part of the decision sequence. *)
  List.iter
    (fun c ->
      let { Types.src; dst } = c.request in
      if List.exists (fun v -> Int.equal v src || Int.equal v dst) nodes then begin
        release t c;
        on c Endpoint_down
      end
      else if List.exists (Bitset.mem cut) (Slp.links c.working) then begin
        let req = req () in
        on c (restore ~obs ~reprovision ~req t c)
      end)
    (conns t)
