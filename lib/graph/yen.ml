let k_shortest ?enabled g ~weight ~source ~target ~k =
  if k <= 0 then []
  else begin
    let enabled0 = match enabled with None -> fun _ -> true | Some f -> f in
    let weights = Array.init (Digraph.n_edges g) weight in
    match Dijkstra.shortest_path ~enabled:enabled0 g ~weight:weights ~source ~target with
    | None -> []
    | Some (p0, c0) ->
      let accepted = ref [ (p0, c0) ] in
      let n_accepted = ref 1 in
      (* Candidate pool keyed by cost; paths deduplicated by edge list. *)
      let pool = Rr_util.Pairing_heap.create () in
      let seen = Hashtbl.create 64 in
      Hashtbl.replace seen p0 ();
      let add_candidate p c =
        if not (Hashtbl.mem seen p) then begin
          Hashtbl.replace seen p ();
          ignore (Rr_util.Pairing_heap.insert pool c p)
        end
      in
      let continue = ref true in
      while !continue && !n_accepted < k do
        let prev_path, _ = List.hd !accepted in
        (* Spur from each node of the previously accepted path. *)
        let prev_nodes = Path.nodes g ~source prev_path in
        let prev_edges = Array.of_list prev_path in
        let n_spur = Array.length prev_edges in
        for i = 0 to n_spur - 1 do
          let spur_node = List.nth prev_nodes i in
          let root = Array.to_list (Array.sub prev_edges 0 i) in
          let root_cost = Path.cost ~weight root in
          (* Edges blocked: any accepted path sharing the root must not
             reuse its next edge; root nodes (except spur) are removed. *)
          let blocked_edges = Hashtbl.create 16 in
          List.iter
            (fun (p, _) ->
              let pa = Array.of_list p in
              if Array.length pa > i then begin
                let same_root = ref true in
                for j = 0 to i - 1 do
                  if pa.(j) <> prev_edges.(j) then same_root := false
                done;
                if !same_root then Hashtbl.replace blocked_edges pa.(i) ()
              end)
            !accepted;
          let root_nodes = Hashtbl.create 16 in
          List.iteri
            (fun j v -> if j < i then Hashtbl.replace root_nodes v ())
            prev_nodes;
          let enabled e =
            enabled0 e
            && (not (Hashtbl.mem blocked_edges e))
            && (not (Hashtbl.mem root_nodes (Digraph.src g e)))
            && not (Hashtbl.mem root_nodes (Digraph.dst g e))
          in
          match Dijkstra.shortest_path ~enabled g ~weight:weights ~source:spur_node ~target with
          | None -> ()
          | Some (spur, spur_cost) ->
            add_candidate (root @ spur) (root_cost +. spur_cost)
        done;
        match Rr_util.Pairing_heap.pop_min pool with
        | None -> continue := false
        | Some (c, p) ->
          accepted := (p, c) :: !accepted;
          incr n_accepted
      done;
      List.rev !accepted
  end
