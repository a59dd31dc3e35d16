(* Survivability audit of a topology.

     dune exec examples/survivability_audit.exe [-- nsfnet|eon|ring|grid]

   For every ordered node pair, check whether the network can serve a
   protected connection at all (two edge-disjoint semilightpaths), and if
   so what protection costs relative to an unprotected optimal
   semilightpath.  Operators use exactly this kind of audit to find the
   pairs a single fibre cut would strand. *)

module Net = Rr_wdm.Network
module RR = Robust_routing
module Table = Rr_util.Table

let pick_topology () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "nsfnet" in
  match name with
  | "nsfnet" -> Rr_topo.Reference.nsfnet
  | "eon" -> Rr_topo.Reference.eon
  | "ring" -> Rr_topo.Reference.ring 8
  | "grid" -> Rr_topo.Reference.grid 3 4
  | other ->
    Printf.eprintf "unknown topology %s (nsfnet|eon|ring|grid)\n" other;
    exit 1

let () =
  let topo = pick_topology () in
  let net =
    Rr_topo.Fitout.fit_out ~rng:(Rr_util.Rng.create 1) ~n_wavelengths:4 topo
  in
  let n = Net.n_nodes net in
  Printf.printf "Auditing %s: %d nodes, %d directed links\n\n"
    topo.Rr_topo.Fitout.t_name n (Net.n_links net);
  (* Structural verdict first: bridges doom edge-protection, articulation
     points doom node-protection, before any wavelength question. *)
  let report = Rr_topo.Analysis.analyse topo in
  Format.printf "%a@.@." Rr_topo.Analysis.pp report;
  let protectable = ref 0 in
  let unprotectable = ref [] in
  let overheads = ref [] in
  let ctx = RR.Router.context net in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d then begin
        match RR.Router.route ctx RR.Router.Cost_approx ~source:s ~target:d with
        | Ok sol ->
          incr protectable;
          (match RR.Baselines.unprotected net ~source:s ~target:d with
           | Some single ->
             let c1 = RR.Types.total_cost net single in
             let c2 = RR.Types.total_cost net sol in
             if c1 > 0.0 then overheads := (c2 /. c1) :: !overheads
           | None -> ())
        | Error _ -> unprotectable := (s, d) :: !unprotectable
      end
    done
  done;
  let pairs = n * (n - 1) in
  Printf.printf "protected service available: %d / %d ordered pairs (%.1f%%)\n"
    !protectable pairs
    (100.0 *. float_of_int !protectable /. float_of_int pairs);
  (match !unprotectable with
   | [] -> print_endline "no stranded pairs — the topology is 2-edge-connected"
   | l ->
     Printf.printf "stranded pairs (single cut can disconnect): %d\n" (List.length l);
     List.iteri
       (fun i (s, d) -> if i < 10 then Printf.printf "  %d -> %d\n" s d)
       (List.rev l));
  (match !overheads with
   | [] -> ()
   | os ->
     let st = Rr_util.Stats.summarize os in
     let t =
       Table.create ~title:"protection overhead (protected pair cost / single path cost)"
         ~header:[ "mean"; "p50"; "p90"; "max" ]
     in
     Table.add_row t
       [
         Printf.sprintf "%.2fx" st.mean;
         Printf.sprintf "%.2fx" st.p50;
         Printf.sprintf "%.2fx" st.p90;
         Printf.sprintf "%.2fx" st.max;
       ];
     Table.print t)
