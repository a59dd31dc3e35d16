module Net = Rr_wdm.Network
module Conv = Rr_wdm.Conversion
module Layered = Rr_wdm.Layered
module Rng = Rr_util.Rng
module Workspace = Rr_util.Workspace
module Obs = Rr_obs.Obs
module Fitout = Rr_topo.Fitout

type mode = Fresh_workspaces | Shared_with_suurballe

let n = 24

(* A random conversion table: each pair allowed with probability one
   half, at one of four costs (zero among them, so ties occur). *)
let table rng w =
  Conv.Table
    (Array.init w (fun p ->
         Array.init w (fun q ->
             if p = q then Some 0.0
             else if Rng.bool rng then Some (float_of_int (Rng.int rng 4) *. 0.25)
             else None)))

type kind = string * (Rng.t -> int -> int -> Conv.spec)

(* The converter kinds, by name: each maps W and a node to its spec. *)
let kinds : kind list =
  let c = 0.3 in
  let mixed rng w v =
    match v mod 4 with
    | 0 -> Conv.No_conversion
    | 1 -> Conv.Full c
    | 2 -> Conv.Range (1, c)
    | _ -> table rng w
  in
  [
    ("none", fun _ _ _ -> Conv.No_conversion);
    ("full", fun _ _ _ -> Conv.Full c);
    ("full0", fun _ _ _ -> Conv.Full 0.0);
    ("range1", fun _ _ _ -> Conv.Range (1, c));
    ("rangeW", fun _ w _ -> Conv.Range (w - 1, c));
    ("table", fun rng w _ -> table rng w);
    ("mixed", mixed);
  ]

let preload rng net share =
  for e = 0 to Net.n_links net - 1 do
    Rr_util.Bitset.iter
      (fun l -> if Rng.uniform rng < share then Net.allocate net e l)
      (Net.available net e)
  done

(* One residual state: the network, a link filter and the requests. *)
let scenario w (name, kind) seed =
  let rng = Rng.create seed in
  let topo = Rr_topo.Random_topo.degree_bounded ~rng ~n ~degree:3 in
  let ties = String.equal name "full0" in
  let topo =
    if ties then
      {
        topo with
        Fitout.t_links =
          List.map
            (fun (u, v, x) -> (u, v, float_of_int (1 + (int_of_float (x *. 3.0) mod 3))))
            topo.Fitout.t_links;
      }
    else topo
  in
  let conv_rng = Rng.split rng in
  let net =
    Fitout.fit_out ~rng ~n_wavelengths:w
      ~lambda_density:(if w > 1 then 0.8 else 1.0)
      ~weight_jitter:(if ties then 0.0 else 0.2)
      ~converter:(kind conv_rng w) topo
  in
  preload rng net 0.35;
  for e = 0 to Net.n_links net - 1 do
    if Rng.uniform rng < 0.05 then Net.fail_link net e
  done;
  let enabled = Array.init (Net.n_links net) (fun _ -> Rng.uniform rng < 0.8) in
  let requests =
    List.init 6 (fun _ ->
        let s = Rng.int rng n in
        (s, (s + 1 + Rng.int rng (n - 1)) mod n))
  in
  (net, enabled, requests)

let hops (p : Rr_wdm.Semilightpath.t) =
  String.concat ","
    (List.map
       (fun (h : Rr_wdm.Semilightpath.hop) -> Printf.sprintf "%d@%d" h.edge h.lambda)
       p.hops)

let render mode =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf
    "# Layered.optimal / optimal_bounded over random residual states (n=24).\n\
     # <W> <converter> <source> <target> <query> (none | <edge@lambda hops> \
     <cost bits>) <heap.pop> <heap.insert>\n\
     # Regenerate: dune exec tools/gen_pair_golden/gen_pair_golden.exe\n";
  let obs = Obs.create () in
  let counter name = Rr_obs.Metrics.counter (Obs.metrics obs) name in
  let shared = Workspace.create () in
  List.iteri
    (fun wi w ->
      List.iteri
        (fun ki kind ->
          let net, enabled, requests = scenario w kind ((100 * wi) + ki + 1) in
          let link_enabled = Array.get enabled in
          List.iteri
            (fun ri (source, target) ->
              let filtered = ri land 1 = 1 in
              let queries =
                [
                  ("opt", fun workspace -> Layered.optimal ?workspace ~obs net ~source ~target);
                  ( "opt/f",
                    fun workspace ->
                      Layered.optimal ~link_enabled ?workspace ~obs net ~source ~target );
                ]
                @ List.map
                    (fun k ->
                      ( Printf.sprintf "b%d%s" k (if filtered then "/f" else ""),
                        fun workspace ->
                          if filtered then
                            Layered.optimal_bounded ~link_enabled ?workspace ~obs net
                              ~max_conversions:k ~source ~target
                          else
                            Layered.optimal_bounded ?workspace ~obs net
                              ~max_conversions:k ~source ~target ))
                    [ 0; 1; 2 ]
              in
              List.iter
                (fun (query, run) ->
                  let workspace =
                    match mode with
                    | Fresh_workspaces -> None
                    | Shared_with_suurballe ->
                      let aux = Rr_wdm.Auxiliary.gprime net ~source ~target in
                      ignore
                        (Rr_wdm.Auxiliary.disjoint_pair ~workspace:shared aux
                          : ((int list * int list) * float) option);
                      Some shared
                  in
                  let pops = counter "heap.pop" and inserts = counter "heap.insert" in
                  let result =
                    match run workspace with
                    | None -> "none"
                    | Some (p, cost) ->
                      Printf.sprintf "%s %016Lx" (hops p) (Int64.bits_of_float cost)
                  in
                  Printf.bprintf buf "%d %s %d %d %s %s %d %d\n" w (fst kind) source
                    target query result
                    (counter "heap.pop" - pops)
                    (counter "heap.insert" - inserts))
                queries)
            requests)
        kinds)
    [ 1; 4; 16; 63 ];
  Buffer.contents buf
