(* Shared backup protection (backup multiplexing) walk-through.

     dune exec examples/shared_protection_demo.exe

   Dedicated protection reserves full wavelengths for every backup path —
   half the network's capacity does nothing unless a fibre is cut.  Under
   the single-failure model, backups of connections with link-disjoint
   primaries can never fire together, so they may share wavelengths.  This
   demo admits connections on EON through the sharing manager, shows the
   capacity saved, then cuts a fibre and watches a backup activation seize
   its shared slots. *)

module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module RR = Robust_routing
module SP = Rr_sim.Shared_protection

let () =
  let rng = Rr_util.Rng.create 7 in
  let net =
    Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:6 Rr_topo.Reference.eon
  in
  let sp = SP.create net in
  (* Admit a batch of random protected connections through the sharing
     manager. *)
  let n = Net.n_nodes net in
  let admitted = ref [] in
  let attempts = 40 in
  let ctx = RR.Router.context net in
  for id = 1 to attempts do
    let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:n in
    match RR.Router.route ctx RR.Router.Cost_approx ~source:s ~target:d with
    | Ok { RR.Types.primary; backup = Some b } -> (
      match SP.admit sp ~conn:id ~primary ~backup_links:(Slp.links b) with
      | Some _ -> admitted := id :: !admitted
      | None -> ())
    | _ -> ()
  done;
  let n_adm = List.length !admitted in
  Printf.printf "admitted %d/%d protected connections\n" n_adm attempts;
  let dedicated_equiv =
    (* what dedicated protection would have reserved: Σ backup hops *)
    float_of_int (SP.backup_capacity sp) *. SP.sharing_ratio sp
  in
  Printf.printf "backup wavelengths reserved:  %d (shared)\n" (SP.backup_capacity sp);
  Printf.printf "dedicated would have needed:  %.0f\n" dedicated_equiv;
  Printf.printf "sharing ratio:                %.2f connections per slot\n"
    (SP.sharing_ratio sp);
  Printf.printf "network load now:             %.3f\n\n" (Net.network_load net);

  (* Cut a fibre on some connection's primary and activate its backup. *)
  match !admitted with
  | [] -> print_endline "nothing admitted — try another seed"
  | victim :: _ ->
    Printf.printf "cutting the first fibre of connection %d's primary...\n" victim;
    (match SP.activate_backup sp ~conn:victim with
     | None -> print_endline "no backup to activate"
     | Some (active, losers) ->
       Printf.printf "connection %d switched onto its backup (%d hops)\n" victim
         (Slp.length active);
       (match losers with
        | [] -> print_endline "no other connection was sharing those slots"
        | _ ->
          Printf.printf "connections now unprotected (their slots were seized): %s\n"
            (String.concat ", " (List.map string_of_int losers)));
       Printf.printf "protected connections remaining: %d/%d\n"
         (SP.protected_count sp) (SP.active_connections sp))
