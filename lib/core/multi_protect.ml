module Aux = Rr_wdm.Auxiliary
module Digraph = Rr_graph.Digraph

let max_protection net ~source ~target =
  let aux = Aux.gprime net ~source ~target in
  Rr_graph.Flow.disjoint_paths_count aux.Aux.graph ~source:aux.Aux.source
    ~target:aux.Aux.sink

let route net ~k ~source ~target =
  if k < 1 then invalid_arg "Multi_protect.route: k must be >= 1";
  let aux = Aux.gprime net ~source ~target in
  let g = aux.Aux.graph in
  match
    Rr_graph.Flow.min_cost_flow g
      ~weight:(fun a -> aux.Aux.weight.(a))
      ~capacity:(fun _ -> 1)
      ~source:aux.Aux.source ~target:aux.Aux.sink ~amount:k
  with
  | None -> None
  | Some (flow, _) ->
    (* Decompose the k-unit flow into k arc-disjoint s'-t'' walks: a greedy
       walk over flow-carrying arcs can only get stuck at t''. *)
    let adj = Array.make (Digraph.n_nodes g) [] in
    for a = Digraph.n_edges g - 1 downto 0 do
      if flow.(a) > 0 then adj.(Digraph.src g a) <- a :: adj.(Digraph.src g a)
    done;
    let extract () =
      let rec walk u acc =
        if u = aux.Aux.sink then List.rev acc
        else
          match adj.(u) with
          | [] -> invalid_arg "Multi_protect: flow decomposition stuck"
          | a :: rest ->
            adj.(u) <- rest;
            walk (Digraph.dst g a) (a :: acc)
      in
      walk aux.Aux.source []
    in
    let rec collect i acc =
      if i = 0 then List.rev acc
      else begin
        let aux_path = extract () in
        let links = Aux.links_of_path aux aux_path in
        match Approx_cost.refine net ~source ~target links with
        | Some (slp, c) -> collect (i - 1) ((slp, c) :: acc)
        | None -> raise Exit
      end
    in
    (try
       let paths = collect k [] in
       let sorted = List.sort (fun (_, a) (_, b) -> Float.compare a b) paths in
       Some (List.map fst sorted)
     with Exit -> None)
