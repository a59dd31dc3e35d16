module Net = Rr_wdm.Network
module Rng = Rr_util.Rng
module Workspace = Rr_util.Workspace
module Cache = Rr_wdm.Aux_cache
module Fitout = Rr_topo.Fitout

type mode = Fresh_workspaces | Shared_workspace | Shared_with_layered

let range1 c _ = Rr_wdm.Conversion.Range (1, c)

(* Integer link weights and free conversion: equal-cost paths abound, so
   the kernel's tie-breaking is on the record. *)
let reweigh snap (topo : Fitout.topology) =
  { topo with t_links = List.map (fun (u, v, w) -> (u, v, snap w)) topo.t_links }

let preload rng net share =
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rng.uniform rng < share then Net.allocate net e l)
      (Net.available net e)
  done

let saturate net e = Rr_util.Bitset.iter (Net.allocate net e) (Net.available net e)

let fail_incident net v =
  let g = Net.graph net in
  Array.iter (Net.fail_link net) (Rr_graph.Digraph.out_edges g v);
  Array.iter (Net.fail_link net) (Rr_graph.Digraph.in_edges g v)

(* Fail all but the first out-link of [v]: a first path may leave [v], a
   second edge-disjoint one cannot. *)
let single_exit net v =
  Array.iteri
    (fun i e -> if i > 0 then Net.fail_link net e)
    (Rr_graph.Digraph.out_edges (Net.graph net) v)

let random_requests rng n k =
  List.init k (fun _ ->
      let s = Rng.int rng n in
      let t = (s + 1 + Rng.int rng (n - 1)) mod n in
      (s, t))

(* One residual state: a name, the network, and its requests. *)
let scenarios n =
  let topo = Rr_topo.Random_topo.degree_bounded ~rng:(Rng.create (7 * n)) ~n ~degree:3 in
  let fit ?(topo = topo) ?(conv = 0.5) seed =
    Fitout.fit_out ~rng:(Rng.create seed) ~n_wavelengths:32 ~converter:(range1 conv) topo
  in
  let light =
    let net = fit (n + 1) in
    let rng = Rng.create (n + 2) in
    preload rng net 0.2;
    ("light", net, random_requests rng n 30)
  in
  let loaded =
    let net = fit (n + 3) in
    let rng = Rng.create (n + 4) in
    preload rng net 0.6;
    for e = 0 to Net.n_links net - 1 do
      let u = Rng.uniform rng in
      if u < 0.05 then Net.fail_link net e else if u < 0.1 then saturate net e
    done;
    ("loaded", net, random_requests rng n 30)
  in
  let cut =
    let net = fit (n + 5) in
    let rng = Rng.create (n + 6) in
    preload rng net 0.3;
    (* An isolated region: the centre and its neighbours lose every link. *)
    let centre = n / 2 in
    let g = Net.graph net in
    let region =
      centre
      :: Array.to_list
           (Array.map (Rr_graph.Digraph.dst g) (Rr_graph.Digraph.out_edges g centre))
    in
    List.iter (fail_incident net) region;
    let lone = (centre + (n / 4)) mod n in
    single_exit net lone;
    let outside = List.find (fun v -> not (List.mem v region) && v <> lone) (List.init n Fun.id) in
    let pinned =
      [ (outside, centre); (centre, outside); (lone, outside); (outside, lone) ]
    in
    ("cut", net, pinned @ random_requests rng n 26)
  in
  (* Base weights in [1, 2) mapped onto {1, 2, 3}, or all set to 1. *)
  let tied name snap seed =
    let net = fit ~topo:(reweigh snap topo) ~conv:0.0 seed in
    let rng = Rng.create (seed + 1) in
    preload rng net 0.3;
    for e = 0 to Net.n_links net - 1 do
      if Rng.uniform rng < 0.03 then Net.fail_link net e
    done;
    (name, net, random_requests rng n 30)
  in
  [
    light;
    loaded;
    cut;
    tied "ties" (fun w -> float_of_int (1 + (int_of_float (w *. 3.0) mod 3))) (n + 7);
    tied "unit" (fun _ -> 1.0) (n + 9);
  ]

let arcs p = String.concat "," (List.map string_of_int p)

let render mode =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    "# Disjoint pairs over Aux_cache.gprime_view (W=32, range-1).\n\
     # <n> <state> <source> <target> (none | <p1 arcs> <p2 arcs> <cost bits>)\n\
     # Regenerate: dune exec tools/gen_pair_golden/gen_pair_golden.exe\n";
  let shared = Workspace.create () in
  List.iter
    (fun n ->
      List.iter
        (fun (name, net, requests) ->
          let cache = Cache.create net in
          List.iter
            (fun (source, target) ->
              let workspace =
                match mode with
                | Fresh_workspaces -> None
                | Shared_workspace -> Some shared
                | Shared_with_layered ->
                  ignore
                    (Rr_wdm.Layered.optimal ~workspace:shared net ~source ~target
                      : (Rr_wdm.Semilightpath.t * float) option);
                  Some shared
              in
              ignore (Cache.sync cache : Cache.sync_stats);
              let aux, enabled = Cache.gprime_view cache ~source ~target in
              let result =
                match Rr_wdm.Auxiliary.disjoint_pair ?workspace ~enabled aux with
                | None -> "none"
                | Some ((p1, p2), cost) ->
                  Printf.sprintf "%s %s %016Lx" (arcs p1) (arcs p2)
                    (Int64.bits_of_float cost)
              in
              Printf.bprintf buf "%d %s %d %d %s\n" n name source target result)
            requests)
        (scenarios n))
    [ 30; 100; 400 ];
  Buffer.contents buf
