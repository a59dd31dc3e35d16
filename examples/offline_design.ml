(* Offline network design walk-through: structural audit, static
   provisioning with local search, and conduit-aware (SRLG) routing.

     dune exec examples/offline_design.exe

   The dynamic algorithms of the paper answer "route this request now";
   this example shows the offline companion workflow an operator runs
   before the network goes live:

     1. audit the topology (can every pair be protected at all?);
     2. provision a known demand set, then improve it with local search;
     3. check which "edge-disjoint" pairs silently share a conduit, and
        re-route them SRLG-disjoint. *)

module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module RR = Robust_routing
module Table = Rr_util.Table

let () =
  let rng = Rr_util.Rng.create 11 in
  let topo = Rr_topo.Reference.nsfnet in

  (* 1. Structural audit. *)
  print_endline "== structural audit ==";
  let report = Rr_topo.Analysis.analyse topo in
  Format.printf "%a@.@." Rr_topo.Analysis.pp report;

  (* 2. Static provisioning of a demand set. *)
  print_endline "== static provisioning (12 demands, W=4) ==";
  let net = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:4 topo in
  let demands =
    List.init 12 (fun _ ->
        let s, d = Rr_sim.Workload.random_pair rng ~n_nodes:14 in
        { RR.Types.src = s; dst = d })
  in
  let seq = RR.Provisioning.sequential net demands in
  let ls = RR.Provisioning.local_search net demands in
  let t =
    Table.create ~title:"sequential vs local search"
      ~header:[ "method"; "served"; "total cost"; "final load"; "steps" ]
  in
  List.iter
    (fun (name, plan) ->
      Table.add_row t
        [
          name;
          Printf.sprintf "%d/12" plan.RR.Provisioning.served;
          Printf.sprintf "%.0f" plan.RR.Provisioning.total_cost;
          Printf.sprintf "%.3f" plan.RR.Provisioning.network_load;
          string_of_int plan.RR.Provisioning.iterations;
        ])
    [ ("sequential", seq); ("local search", ls) ];
  Table.print t;

  (* 3. Conduit awareness: synthetic trenches over the fibre plant. *)
  print_endline "== conduit (SRLG) exposure ==";
  let net2 = Rr_topo.Fitout.fit_out ~rng ~n_wavelengths:4 topo in
  let groups = RR.Srlg.conduits_of_topology ~rng net2 ~conduits:8 in
  let ctx = RR.Router.context net2 in
  let exposed = ref 0 and checked = ref 0 and fixed = ref 0 in
  for s = 0 to 13 do
    for d = 0 to 13 do
      if s <> d then begin
        match RR.Router.route ctx RR.Router.Cost_approx ~source:s ~target:d with
        | Error _ -> ()
        | Ok sol ->
          incr checked;
          let p = Slp.links sol.RR.Types.primary in
          let b = Slp.links (Option.get sol.RR.Types.backup) in
          if RR.Srlg.share_risk groups p b then begin
            incr exposed;
            if RR.Srlg.route net2 groups ~source:s ~target:d <> None then incr fixed
          end
      end
    done
  done;
  Printf.printf
    "pairs with an edge-disjoint route:            %d\n\
     ...whose primary+backup share a conduit:      %d\n\
     ...for which an SRLG-disjoint pair exists:    %d\n"
    !checked !exposed !fixed;
  if !exposed > 0 then
    Printf.printf
      "=> %.0f%% of nominally protected pairs were one backhoe away from an\n\
      \   outage; SRLG-aware routing repairs %.0f%% of them.\n"
      (100.0 *. float_of_int !exposed /. float_of_int !checked)
      (100.0 *. float_of_int !fixed /. float_of_int (max 1 !exposed))
