(* Quickstart: build a small WDM network by hand, ask for a robust route,
   inspect the solution.

     dune exec examples/quickstart.exe

   The network is the running example of the paper's Figure 1: four nodes,
   five directed links, two wavelengths, full wavelength conversion at a
   cost of 0.5 per real conversion. *)

module Net = Rr_wdm.Network
module Slp = Rr_wdm.Semilightpath
module RR = Robust_routing

let () =
  (* 1. Describe the physical plant: per-link wavelength sets and
        per-wavelength traversal weights. *)
  let link ?(lambdas = [ 0; 1 ]) u v =
    { Net.ls_src = u; ls_dst = v; ls_lambdas = lambdas; ls_weight = (fun _ -> 1.0) }
  in
  let net =
    Net.create ~n_nodes:4 ~n_wavelengths:2
      ~links:
        [
          link 0 1;                     (* e0 *)
          link 1 3;                     (* e1 *)
          link 0 2 ~lambdas:[ 0 ];      (* e2: only λ0 is installed *)
          link 2 3 ~lambdas:[ 1 ];      (* e3: only λ1 *)
          link 1 2;                     (* e4 *)
        ]
      ~converters:(fun _ -> Rr_wdm.Conversion.Full 0.5)
  in
  Format.printf "Network:@.%a@.@." Net.pp net;

  (* 2. Ask for a robust route: two edge-disjoint semilightpaths 0 -> 3,
        minimising total cost (the paper's Section 3.3 algorithm). *)
  let ctx = RR.Router.context net in
  match RR.Router.route ctx RR.Router.Cost_approx ~source:0 ~target:3 with
  | Error b ->
    Printf.printf "No robust route exists (%s).\n" (RR.Types.blocked_name b)
  | Ok sol ->
    Format.printf "Robust route found:@.%a@.@." (RR.Types.pp net) sol;

    (* 3. The solution carries explicit wavelength assignments and the
          conversion-switch settings for intermediate nodes. *)
    let describe name p =
      Printf.printf "%s wavelength plan:\n" name;
      List.iter
        (fun h ->
          Printf.printf "  link %d (%d -> %d) on λ%d\n" h.Slp.edge
            (Net.link_src net h.Slp.edge)
            (Net.link_dst net h.Slp.edge)
            h.Slp.lambda)
        p.Slp.hops;
      match Slp.conversions net p with
      | [] -> print_endline "  (no wavelength conversions needed)"
      | cs ->
        List.iter
          (fun (v, a, b) ->
            Printf.printf "  converter at node %d switches λ%d -> λ%d\n" v a b)
          cs
    in
    describe "Primary" sol.RR.Types.primary;
    Option.iter (describe "Backup") sol.RR.Types.backup;

    (* 4. Reserve the wavelengths; the backup is held ready so a primary
          link failure is survived by an instant switch-over. *)
    RR.Types.allocate net sol;
    Printf.printf "\nAfter allocation the network load is %.2f\n"
      (Net.network_load net);

    (* 5. Simulate a failure on the primary's first link: the backup is
          intact, so the connection survives. *)
    (match sol.RR.Types.primary.Slp.hops with
     | { Slp.edge; _ } :: _ ->
       Net.fail_link net edge;
       let backup_ok =
         match sol.RR.Types.backup with
         | Some b -> List.for_all (fun e -> not (Net.is_failed net e)) (Slp.links b)
         | None -> false
       in
       Printf.printf "Link %d failed; backup intact: %b\n" edge backup_ok
     | [] -> ())
