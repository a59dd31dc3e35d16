module Bitset = Rr_util.Bitset
module Digraph = Rr_graph.Digraph
module Obs = Rr_obs.Obs

type sync_stats = {
  touched : int;
  recomputed_arcs : int;
  full_rebuild : bool;
}

type t = {
  net : Network.t;
  aux_graph : Digraph.t;   (* superset of any residual G', 2m+2 nodes *)
  kind : Auxiliary.arc_kind array;
  a_in : int array;        (* per arc: governing in-side physical link *)
  a_out : int array;       (* per arc: governing out-side physical link *)
  active : bool array;     (* residual inclusion (+ request taps) per arc *)
  w_prime : float array;   (* G'  weights *)
  w_rc : float array;      (* G_rc weights (conversion entries = G') *)
  w_gc : float array;      (* G_c  weights (conversion entries = 0)   *)
  mutable gc_base : float;
  (* per-link arc ids and incidence *)
  trav_arc : int array;
  src_tap : int array;
  snk_tap : int array;
  conv_of : int array array;  (* conversion arcs with link e as in or out *)
  (* residual fingerprints *)
  link_ok : bool array;
  seen_used : Bitset.t array;
  seen_failed : bool array;
  (* dedup stamp for conversion-arc recomputation within one sync *)
  arc_epoch : int array;
  mutable epoch : int;
  (* request overlay *)
  mutable cur_source : int;
  mutable cur_target : int;
  pass : bool array;       (* per-link theta filter, scratch for gc/grc *)
  mutable stats : sync_stats;
}

let network t = t.net

let last_stats t = t.stats

(* Mean conversion cost over residual wavelength pairs, identical bit for
   bit to {!Auxiliary.mean_conversion}, which adds [Conversion.cost] over
   the dense [avail_in x avail_out] loop: a cost [c] per allowed pair and
   [0.0] per identity pair.  The sum never holds [-0.0] (it starts at
   [+0.0], and [+0.0 +. -0.0 = +0.0]), so the identity additions change no
   bits and only the allowed non-identity costs, in loop order, matter.

   The two sets are read in place as word slices ([a] from [oa], [b] from
   [ob], {!Network.words_per_link} words each): the links' availability
   words during a sync, so no set is built per conversion arc.

   - [Range (r, c)]: every allowed non-identity pair costs the same [c],
     so the sum is [c] added [k_c] times from [0.0]; [k_c] and the identity
     count are word-parallel shifted-intersection counts.
   - [Full c]: the closed form, on the same counts.
   - [Table]: per available in-wavelength, its precomputed successors in
     ascending order — the contributing subsequence of the dense loop. *)
let mem words off l = words.(off + Bitset.word_of l) land Bitset.bit_of l <> 0

let range_mean ~n ~w a oa b ob r c =
  let r = min r (w - 1) in
  let k_c = ref 0 in
  for d = 1 to r do
    k_c :=
      !k_c
      + Bitset.count_inter_shifted_words a oa b ob ~n d
      + Bitset.count_inter_shifted_words a oa b ob ~n (-d)
  done;
  let k = Bitset.count_inter_shifted_words a oa b ob ~n 0 + !k_c in
  if k = 0 then None
  else begin
    let sum = ref 0.0 in
    for _ = 1 to !k_c do
      sum := !sum +. c
    done;
    Some (!sum /. float_of_int k)
  end

let table_mean net v ~w a oa b ob =
  let k = ref 0 and sum = ref 0.0 in
  for la = 0 to w - 1 do
    if mem a oa la then begin
      let qs, cs = Network.conv_successors net v la in
      for i = 0 to Array.length qs - 1 do
        if mem b ob qs.(i) then begin
          incr k;
          sum := !sum +. cs.(i)
        end
      done;
      if mem b ob la then incr k
    end
  done;
  if !k = 0 then None else Some (!sum /. float_of_int !k)

let mean_words net v a oa b ob =
  let n = Network.words_per_link net and w = Network.n_wavelengths net in
  match Network.converter net v with
  | Conversion.No_conversion ->
    if Bitset.count_inter_shifted_words a oa b ob ~n 0 = 0 then None else Some 0.0
  | Conversion.Full c ->
    let ka = Bitset.cardinal_words a oa ~n and kb = Bitset.cardinal_words b ob ~n in
    if ka = 0 || kb = 0 then None
    else begin
      let common = Bitset.count_inter_shifted_words a oa b ob ~n 0 in
      let k = float_of_int (ka * kb) in
      Some (c *. (k -. float_of_int common) /. k)
    end
  | Conversion.Range (r, c) -> range_mean ~n ~w a oa b ob r c
  | Conversion.Table _ -> table_mean net v ~w a oa b ob

let mean_conversion net v avail_in avail_out =
  let words s = Array.init (Network.words_per_link net) (Bitset.word s) in
  mean_words net v (words avail_in) 0 (words avail_out) 0

let gc_weight t e =
  let net = t.net in
  let n_e = float_of_int (Bitset.cardinal (Network.lambdas net e)) in
  let u_e = float_of_int (Bitset.cardinal (Network.used net e)) in
  (t.gc_base ** ((u_e +. 1.0) /. n_e)) -. (t.gc_base ** (u_e /. n_e))

(* Recompute one conversion arc (weight + activity) against the current
   residual state; deduplicated per sync by the epoch stamp. *)
let recompute_conv t recomputed a =
  if t.arc_epoch.(a) <> t.epoch then begin
    t.arc_epoch.(a) <- t.epoch;
    incr recomputed;
    let e_in = t.a_in.(a) and e_out = t.a_out.(a) in
    if t.link_ok.(e_in) && t.link_ok.(e_out) then begin
      let v = match t.kind.(a) with Auxiliary.Convert v -> v | _ -> assert false in
      let words = Network.avail_words t.net and n = Network.words_per_link t.net in
      match mean_words t.net v words (e_in * n) words (e_out * n) with
      | Some w ->
        t.w_prime.(a) <- w;
        t.w_rc.(a) <- w;
        t.active.(a) <- true
      | None -> t.active.(a) <- false
    end
    else t.active.(a) <- false
  end

(* Phase 1 of a recompute: inclusion flag, traversal weights under all
   three graphs, and tap activity for the current request overlay.  Must
   run for every changed link BEFORE any conversion arc is recomputed —
   a conversion arc reads the [link_ok] of BOTH its endpoints, and the
   epoch stamp deduplicates its recomputation, so evaluating it against a
   stale neighbour flag would stick until that link next changes. *)
let refresh_link t recomputed e =
  let net = t.net in
  let ok = Network.has_available net e in
  t.link_ok.(e) <- ok;
  let ta = t.trav_arc.(e) in
  t.active.(ta) <- ok;
  if ok then begin
    incr recomputed;
    let avail = Network.available net e in
    let k = Bitset.cardinal avail in
    let sum = Network.weight_sum net e avail in
    t.w_prime.(ta) <- sum /. float_of_int k;
    t.w_rc.(ta) <- sum /. float_of_int (Bitset.cardinal (Network.lambdas net e));
    t.w_gc.(ta) <- gc_weight t e
  end;
  t.active.(t.src_tap.(e)) <- ok && Network.link_src net e = t.cur_source;
  t.active.(t.snk_tap.(e)) <- ok && Network.link_dst net e = t.cur_target

(* Phase 2: the conversion arcs incident to a changed link. *)
let refresh_conv_of t recomputed e =
  Array.iter (fun a -> recompute_conv t recomputed a) t.conv_of.(e)

let create net =
  let g = Network.graph net in
  let n = Network.n_nodes net in
  let m = Network.n_links net in
  let out_node e = 2 * e in
  let in_node e = (2 * e) + 1 in
  let s' = 2 * m in
  let t'' = (2 * m) + 1 in
  let b = Digraph.builder ((2 * m) + 2) in
  let kinds = ref [] and ins = ref [] and outs = ref [] in
  let add u v k e_in e_out =
    let id = Digraph.add_edge b u v in
    kinds := k :: !kinds;
    ins := e_in :: !ins;
    outs := e_out :: !outs;
    id
  in
  let trav_arc = Array.make m (-1) in
  let src_tap = Array.make m (-1) in
  let snk_tap = Array.make m (-1) in
  let conv_lists = Array.make m [] in
  let nw = Network.words_per_link net in
  let lambda_words =
    Array.init (m * nw) (fun i -> Bitset.word (Network.lambdas net (i / nw)) (i mod nw))
  in
  (* Same group order as the fresh constructors (see Auxiliary.build). *)
  for e = 0 to m - 1 do
    trav_arc.(e) <- add (out_node e) (in_node e) (Auxiliary.Traverse e) e e
  done;
  for v = 0 to n - 1 do
    let in_e = Digraph.in_edges g v and out_e = Digraph.out_edges g v in
    Array.iter
      (fun e ->
        Array.iter
          (fun e' ->
            if e <> e' then
              (* Structural feasibility over the full wavelength sets: a
                 superset of feasibility under any residual state (removing
                 wavelengths can only remove allowed pairs). *)
              match mean_words net v lambda_words (e * nw) lambda_words (e' * nw) with
              | Some _ ->
                let a = add (in_node e) (out_node e') (Auxiliary.Convert v) e e' in
                conv_lists.(e) <- a :: conv_lists.(e);
                conv_lists.(e') <- a :: conv_lists.(e')
              | None -> ())
          out_e)
      in_e
  done;
  for e = 0 to m - 1 do
    src_tap.(e) <- add s' (out_node e) (Auxiliary.Source_tap e) e e
  done;
  for e = 0 to m - 1 do
    snk_tap.(e) <- add (in_node e) t'' (Auxiliary.Sink_tap e) e e
  done;
  let graph = Digraph.freeze b in
  let n_arcs = Digraph.n_edges graph in
  let t =
    {
      net;
      aux_graph = graph;
      kind = Array.of_list (List.rev !kinds);
      a_in = Array.of_list (List.rev !ins);
      a_out = Array.of_list (List.rev !outs);
      active = Array.make n_arcs false;
      w_prime = Array.make n_arcs 0.0;
      w_rc = Array.make n_arcs 0.0;
      w_gc = Array.make n_arcs 0.0;
      gc_base = 16.0;
      trav_arc;
      src_tap;
      snk_tap;
      conv_of = Array.map (fun l -> Array.of_list (List.rev l)) conv_lists;
      link_ok = Array.make m false;
      seen_used = Array.init m (fun e -> Network.used net e);
      seen_failed = Array.init m (fun e -> Network.is_failed net e);
      (* -1 so the initial full computation below is not deduplicated away *)
      arc_epoch = Array.make n_arcs (-1);
      epoch = 0;
      cur_source = -1;
      cur_target = -1;
      pass = Array.make m false;
      stats = { touched = 0; recomputed_arcs = 0; full_rebuild = false };
    }
  in
  let recomputed = ref 0 in
  for e = 0 to m - 1 do
    refresh_link t recomputed e
  done;
  for e = 0 to m - 1 do
    refresh_conv_of t recomputed e
  done;
  t

let sync ?(obs = Obs.null) t =
  let t0 = Obs.start obs in
  let m = Network.n_links t.net in
  t.epoch <- t.epoch + 1;
  let touched = ref [] and n_touched = ref 0 in
  for e = m - 1 downto 0 do
    let u = Network.used t.net e in
    let f = Network.is_failed t.net e in
    let seen = t.seen_used.(e) in
    (* Store only what moved: an unchanged slot costs no write barrier. *)
    let moved = u != seen in
    if moved then t.seen_used.(e) <- u;
    let flipped = f <> t.seen_failed.(e) in
    if flipped then t.seen_failed.(e) <- f;
    if flipped || (moved && not (Bitset.equal u seen)) then begin
      touched := e :: !touched;
      incr n_touched
    end
  done;
  let recomputed = ref 0 in
  let full = 2 * !n_touched > m in
  if full then begin
    for e = 0 to m - 1 do
      refresh_link t recomputed e
    done;
    for e = 0 to m - 1 do
      refresh_conv_of t recomputed e
    done
  end
  else begin
    List.iter (fun e -> refresh_link t recomputed e) !touched;
    List.iter (fun e -> refresh_conv_of t recomputed e) !touched
  end;
  t.stats <-
    { touched = !n_touched; recomputed_arcs = !recomputed; full_rebuild = full };
  if Obs.enabled obs then begin
    Obs.add obs (if full then "aux.cache.rebuild" else "aux.cache.hit") 1;
    if full then Obs.event obs ~a:!n_touched "journal.aux.rebuild";
    if !n_touched > 0 then Obs.add obs "aux.cache.links_touched" !n_touched
  end;
  Obs.stop obs "stage.aux_delta" t0;
  t.stats

(* Swap the request overlay: tap activity tracks (source, target) and the
   current per-link inclusion flags. *)
let set_request t ~source ~target =
  let net = t.net in
  let n = Network.n_nodes net in
  if source = target then invalid_arg "Auxiliary: source = target";
  if source < 0 || source >= n || target < 0 || target >= n then
    invalid_arg "Auxiliary: node out of range";
  let g = Network.graph net in
  if t.cur_source >= 0 then
    Array.iter
      (fun e -> t.active.(t.src_tap.(e)) <- false)
      (Digraph.out_edges g t.cur_source);
  if t.cur_target >= 0 then
    Array.iter
      (fun e -> t.active.(t.snk_tap.(e)) <- false)
      (Digraph.in_edges g t.cur_target);
  t.cur_source <- source;
  t.cur_target <- target;
  Array.iter
    (fun e -> t.active.(t.src_tap.(e)) <- t.link_ok.(e))
    (Digraph.out_edges g source);
  Array.iter
    (fun e -> t.active.(t.snk_tap.(e)) <- t.link_ok.(e))
    (Digraph.in_edges g target)

let aux_of t weight =
  {
    Auxiliary.graph = t.aux_graph;
    weight;
    kind = t.kind;
    source = 2 * Network.n_links t.net;
    sink = (2 * Network.n_links t.net) + 1;
    out_node = (fun e -> 2 * e);
    in_node = (fun e -> (2 * e) + 1);
  }

let gprime_view t ~source ~target =
  set_request t ~source ~target;
  let active = t.active in
  (aux_of t t.w_prime, fun a -> active.(a))

let theta_pass t theta =
  let net = t.net in
  for e = 0 to Network.n_links net - 1 do
    t.pass.(e) <- t.link_ok.(e) && Network.link_load net e < theta
  done

let gc_view t ~theta ?(base = 16.0) ~source ~target () =
  if base <= 1.0 then invalid_arg "Auxiliary.gc: base must exceed 1";
  if not (Float.equal base t.gc_base) then begin
    t.gc_base <- base;
    for e = 0 to Network.n_links t.net - 1 do
      if t.link_ok.(e) then t.w_gc.(t.trav_arc.(e)) <- gc_weight t e
    done
  end;
  set_request t ~source ~target;
  theta_pass t theta;
  let active = t.active and pass = t.pass in
  let a_in = t.a_in and a_out = t.a_out in
  (aux_of t t.w_gc, fun a -> active.(a) && pass.(a_in.(a)) && pass.(a_out.(a)))

let grc_view t ~theta ~source ~target =
  set_request t ~source ~target;
  theta_pass t theta;
  let active = t.active and pass = t.pass in
  let a_in = t.a_in and a_out = t.a_out in
  (aux_of t t.w_rc, fun a -> active.(a) && pass.(a_in.(a)) && pass.(a_out.(a)))

let conv_arcs_incident t links =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Array.iter (fun a -> Hashtbl.replace seen a ()) t.conv_of.(e))
    links;
  Hashtbl.length seen
