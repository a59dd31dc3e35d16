(* Unit and property tests for Rr_util. *)

module Rng = Rr_util.Rng
module Ws = Rr_util.Workspace
module Pheap = Rr_util.Pairing_heap
module Bitset = Rr_util.Bitset
module Uf = Rr_util.Union_find
module Stats = Rr_util.Stats

let check = Alcotest.check
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)

let test_rng_determinism () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  checkb "streams differ" true (!same < 4)

let test_rng_int_range () =
  let t = Rng.create 99 in
  for _ = 1 to 10_000 do
    let x = Rng.int t 17 in
    checkb "in range" true (x >= 0 && x < 17)
  done

let test_rng_int_covers () =
  let t = Rng.create 5 in
  let seen = Array.make 10 false in
  for _ = 1 to 2000 do
    seen.(Rng.int t 10) <- true
  done;
  checkb "all values hit" true (Array.for_all Fun.id seen)

let test_rng_uniform_range () =
  let t = Rng.create 4 in
  for _ = 1 to 10_000 do
    let u = Rng.uniform t in
    checkb "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_rng_uniform_mean () =
  let t = Rng.create 8 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform t
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_rng_exponential_mean () =
  let t = Rng.create 21 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential t 2.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "mean near 1/rate" true (Float.abs (mean -. 0.5) < 0.02)

let test_rng_poisson_mean () =
  let t = Rng.create 33 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.poisson t 3.5
  done;
  let mean = float_of_int !sum /. float_of_int n in
  checkb "poisson mean" true (Float.abs (mean -. 3.5) < 0.1)

let test_rng_shuffle_permutation () =
  let t = Rng.create 6 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check Alcotest.(array int) "is permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let t = Rng.create 77 in
  for _ = 1 to 100 do
    let s = Rng.sample_without_replacement t 5 12 in
    check Alcotest.int "size" 5 (List.length s);
    check Alcotest.int "distinct" 5 (List.length (List.sort_uniq compare s));
    List.iter (fun x -> checkb "in range" true (x >= 0 && x < 12)) s
  done

let test_rng_split_independent () =
  let t = Rng.create 42 in
  let s = Rng.split t in
  checkb "split stream differs" true (Rng.bits64 s <> Rng.bits64 t)

(* ------------------------------------------------------------------ *)
(* Workspace heap                                                       *)

(* Relax a batch of states from a fresh search. *)
let heap_of prios =
  let ws = Ws.create () in
  Ws.reset ws (max 1 (List.length prios));
  List.iteri (fun i p -> ignore (Ws.relax ws i p (-1) : bool)) prios;
  ws

(* Pop every queued state as (state, distance). *)
let drain ws =
  let rec go acc =
    if Ws.heap_size ws = 0 then List.rev acc
    else
      let k = Ws.pop_min ws in
      go ((k, Ws.dist ws k) :: acc)
  in
  go []

let test_heap_basic () =
  let ws = Ws.create ~capacity:10 () in
  Ws.reset ws 10;
  checkb "empty" true (Ws.heap_size ws = 0);
  List.iter (fun (k, p) -> checkb "inserted" true (Ws.relax ws k p (-1))) [ (3, 5.0); (7, 1.0); (1, 3.0) ];
  check Alcotest.int "size" 3 (Ws.heap_size ws);
  check Alcotest.(list (pair int (float 0.0))) "pops ascending" [ (7, 1.0); (1, 3.0); (3, 5.0) ] (drain ws);
  checkb "popped states stay set" true (Ws.dist ws 7 = 1.0 && not (Ws.queued ws 7))

let test_heap_decrease () =
  let ws = heap_of [ 10.0; 20.0 ] in
  checkb "decrease accepted" true (Ws.relax ws 1 5.0 (-1));
  check Alcotest.(list (pair int (float 0.0))) "decreased wins" [ (1, 5.0); (0, 10.0) ] (drain ws)

let test_heap_rejects_increase () =
  let ws = heap_of [ 1.0 ] in
  checkb "increase rejected" false (Ws.relax ws 0 2.0 (-1));
  check Alcotest.(list (pair int (float 0.0))) "priority kept" [ (0, 1.0) ] (drain ws)

let test_heap_rejects_duplicate () =
  let ws = heap_of [ 1.0 ] in
  checkb "equal priority rejected" false (Ws.relax ws 0 1.0 (-1));
  check Alcotest.int "queued once" 1 (Ws.heap_size ws);
  check Alcotest.int "popped" 0 (Ws.pop_min ws);
  Alcotest.check_raises "pop past the end" (Invalid_argument "Workspace.pop_min: empty heap")
    (fun () -> ignore (Ws.pop_min ws : int))

let test_heap_insert_or_decrease () =
  let ws = heap_of [ 5.0 ] in
  checkb "decrease" true (Ws.relax ws 0 3.0 (-1));
  checkb "no-op" false (Ws.relax ws 0 9.0 (-1));
  check Alcotest.(list (pair int (float 0.0))) "kept min" [ (0, 3.0) ] (drain ws);
  checkb "popped state re-queued on improvement" true (Ws.relax ws 0 2.0 (-1));
  check Alcotest.(list (pair int (float 0.0))) "popped again" [ (0, 2.0) ] (drain ws)

let test_heap_clear () =
  let ws = heap_of [ 1.0; 2.0 ] in
  Ws.reset ws 4;
  checkb "cleared" true (Ws.heap_size ws = 0 && not (Ws.queued ws 0));
  ignore (Ws.relax ws 0 3.0 (-1) : bool);
  check Alcotest.(list (pair int (float 0.0))) "reusable" [ (0, 3.0) ] (drain ws)

(* The swap-based binary heap the workspace's hole-moving sifts must
   reproduce, comparison for comparison. *)
module Swap_heap = struct
  type t = { keys : int array; prio : float array; pos : int array; mutable size : int }

  let create n = { keys = Array.make n 0; prio = Array.make n 0.0; pos = Array.make n (-1); size = 0 }

  let swap h i j =
    let ki = h.keys.(i) and kj = h.keys.(j) and pi = h.prio.(i) in
    h.keys.(i) <- kj;
    h.keys.(j) <- ki;
    h.prio.(i) <- h.prio.(j);
    h.prio.(j) <- pi;
    h.pos.(kj) <- i;
    h.pos.(ki) <- j

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if h.prio.(i) < h.prio.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let s = if l < h.size && h.prio.(l) < h.prio.(i) then l else i in
    let s = if r < h.size && h.prio.(r) < h.prio.(s) then r else s in
    if s <> i then begin
      swap h i s;
      sift_down h s
    end

  (* Insert, or lower a queued key's priority. *)
  let push h k p =
    if h.pos.(k) < 0 then begin
      h.keys.(h.size) <- k;
      h.pos.(k) <- h.size;
      h.size <- h.size + 1
    end;
    h.prio.(h.pos.(k)) <- p;
    sift_up h h.pos.(k)

  let pop h =
    let k = h.keys.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.keys.(0) <- h.keys.(h.size);
      h.prio.(0) <- h.prio.(h.size);
      h.pos.(h.keys.(0)) <- 0;
      sift_down h 0
    end;
    h.pos.(k) <- -1;
    k

  (* Whether another queued key shares the minimum priority. *)
  let min_tied h =
    let rec go i = i < h.size && (Float.equal h.prio.(i) h.prio.(0) || go (i + 1)) in
    go 1

  let clear h =
    for i = 0 to h.size - 1 do
      h.pos.(h.keys.(i)) <- -1
    done;
    h.size <- 0
end

(* Priorities from three values force ties at every level of the heap:
   only an identical layout pops the same state among equals. *)
let test_heap_matches_swap_reference () =
  let rng = Rng.create 11 in
  let cap = 24 in
  let ws = Ws.create () and reference = Swap_heap.create cap in
  Ws.reset ws cap;
  let best = Array.make cap infinity in
  let pops = ref 0 and ties = ref 0 in
  for step = 1 to 3000 do
    let k = Rng.int rng cap in
    match Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let p = float_of_int (Rng.int rng 3) -. float_of_int (step / 500) in
      let improves = p < best.(k) in
      checkb "relax reports an improvement" improves (Ws.relax ws k p (-1));
      if improves then begin
        best.(k) <- p;
        Swap_heap.push reference k p
      end
    | 4 when step mod 7 = 0 ->
      Ws.reset ws cap;
      Swap_heap.clear reference;
      Array.fill best 0 cap infinity
    | _ ->
      if reference.Swap_heap.size = 0 then checkb "both empty" true (Ws.heap_size ws = 0)
      else begin
        if Swap_heap.min_tied reference then incr ties;
        incr pops;
        check Alcotest.int "same state" (Swap_heap.pop reference) (Ws.pop_min ws);
        check Alcotest.int "same size" reference.Swap_heap.size (Ws.heap_size ws)
      end
  done;
  checkb "pops exercised" true (!pops > 500);
  checkb "ties exercised" true (!ties > 100)

let prop_heap_sorts =
  QCheck.Test.make ~name:"indexed heap pops in sorted order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (float_range 0.0 100.0))
    (fun prios -> List.map snd (drain (heap_of prios)) = List.sort compare prios)

let prop_heap_decrease_key =
  QCheck.Test.make ~name:"decrease-key preserves heap order" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 40) (float_range 1.0 100.0)) int)
    (fun (prios, pick) ->
      let n = List.length prios in
      let ws = heap_of prios in
      let k = abs pick mod n in
      let old = List.nth prios k in
      ignore (Ws.relax ws k (old /. 2.0) (-1) : bool);
      let expected =
        List.mapi (fun i p -> if i = k then p /. 2.0 else p) prios
        |> List.sort compare
      in
      List.map snd (drain ws) = expected)

(* ------------------------------------------------------------------ *)
(* Pairing_heap                                                         *)

let test_pheap_basic () =
  let h = Pheap.create () in
  ignore (Pheap.insert h 3.0 "c");
  ignore (Pheap.insert h 1.0 "a");
  ignore (Pheap.insert h 2.0 "b");
  check Alcotest.(option (pair (float 0.0) string)) "min" (Some (1.0, "a")) (Pheap.pop_min h);
  check Alcotest.(option (pair (float 0.0) string)) "next" (Some (2.0, "b")) (Pheap.pop_min h);
  check Alcotest.(option (pair (float 0.0) string)) "last" (Some (3.0, "c")) (Pheap.pop_min h)

let test_pheap_decrease () =
  let h = Pheap.create () in
  ignore (Pheap.insert h 1.0 "a");
  let hb = Pheap.insert h 10.0 "b" in
  ignore (Pheap.insert h 5.0 "c");
  Pheap.decrease h hb 0.5;
  check Alcotest.(option (pair (float 0.0) string)) "decreased first" (Some (0.5, "b"))
    (Pheap.pop_min h)

let prop_pheap_sorts =
  QCheck.Test.make ~name:"pairing heap pops in sorted order" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (float_range 0.0 100.0))
    (fun prios ->
      let h = Pheap.create () in
      List.iter (fun p -> ignore (Pheap.insert h p p)) prios;
      let rec drain acc =
        match Pheap.pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

let prop_pheap_decrease_random =
  QCheck.Test.make ~name:"pairing heap random decrease-key" ~count:200
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create seed in
      let h = Pheap.create () in
      let n = 30 in
      let handles = Array.init n (fun i -> Pheap.insert h (Rng.float rng 100.0) i) in
      (* randomly decrease half the keys *)
      for _ = 1 to n / 2 do
        let k = Rng.int rng n in
        let cur = Pheap.priority handles.(k) in
        Pheap.decrease h handles.(k) (cur /. 2.0)
      done;
      let expected =
        Array.to_list (Array.map Pheap.priority handles) |> List.sort compare
      in
      let rec drain acc =
        match Pheap.pop_min h with
        | None -> List.rev acc
        | Some (p, _) -> drain (p :: acc)
      in
      drain [] = expected)

(* ------------------------------------------------------------------ *)
(* Bitset                                                               *)

let test_bitset_basic () =
  let s = Bitset.of_list 10 [ 1; 3; 7 ] in
  checkb "mem 3" true (Bitset.mem s 3);
  checkb "not mem 2" false (Bitset.mem s 2);
  check Alcotest.int "cardinal" 3 (Bitset.cardinal s);
  check Alcotest.(list int) "to_list" [ 1; 3; 7 ] (Bitset.to_list s)

let test_bitset_wide () =
  (* Crosses the 62-bit word boundary. *)
  let s = Bitset.of_list 200 [ 0; 61; 62; 63; 124; 199 ] in
  check Alcotest.(list int) "elements" [ 0; 61; 62; 63; 124; 199 ] (Bitset.to_list s);
  check Alcotest.int "cardinal" 6 (Bitset.cardinal s);
  let s2 = Bitset.remove s 62 in
  checkb "removed" false (Bitset.mem s2 62);
  checkb "original intact" true (Bitset.mem s 62)

let test_bitset_full () =
  let s = Bitset.full 70 in
  check Alcotest.int "cardinal" 70 (Bitset.cardinal s);
  checkb "mem last" true (Bitset.mem s 69)

let test_bitset_ops () =
  let a = Bitset.of_list 8 [ 0; 1; 2 ] in
  let b = Bitset.of_list 8 [ 2; 3 ] in
  check Alcotest.(list int) "union" [ 0; 1; 2; 3 ] (Bitset.to_list (Bitset.union a b));
  check Alcotest.(list int) "inter" [ 2 ] (Bitset.to_list (Bitset.inter a b));
  check Alcotest.(list int) "diff" [ 0; 1 ] (Bitset.to_list (Bitset.diff a b));
  checkb "subset" true (Bitset.subset (Bitset.of_list 8 [ 2 ]) b);
  checkb "not subset" false (Bitset.subset a b)

let test_bitset_out_of_range () =
  let s = Bitset.create 5 in
  Alcotest.check_raises "mem out of range" (Invalid_argument "Bitset: element out of range")
    (fun () -> ignore (Bitset.mem s 5))

let prop_bitset_model =
  (* Bitset behaves like a sorted-unique int list. *)
  QCheck.Test.make ~name:"bitset matches list-set model" ~count:300
    QCheck.(pair (list (int_bound 99)) (list (int_bound 99)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 100 xs and b = Bitset.of_list 100 ys in
      let xs' = List.sort_uniq compare xs and ys' = List.sort_uniq compare ys in
      Bitset.to_list (Bitset.union a b) = List.sort_uniq compare (xs' @ ys')
      && Bitset.to_list (Bitset.inter a b) = List.filter (fun x -> List.mem x ys') xs'
      && Bitset.to_list (Bitset.diff a b)
         = List.filter (fun x -> not (List.mem x ys')) xs'
      && Bitset.cardinal a = List.length xs')

(* Widths at and around the 62-bit word boundary, and a three-word one. *)
let boundary_widths = [ 0; 1; 61; 62; 63; 124; 200 ]

(* A random subset of [0, width) at a random density (sometimes full). *)
let random_subset rng width =
  let density = if Rng.int rng 5 = 0 then 1.0 else Rng.uniform rng in
  Bitset.of_list width (List.filter (fun _ -> Rng.uniform rng < density) (List.init width Fun.id))

let prop_bitset_cardinal =
  QCheck.Test.make ~name:"cardinal = fold count at word boundaries" ~count:300
    QCheck.(pair (oneofl boundary_widths) small_int)
    (fun (width, seed) ->
      let s = random_subset (Rng.create seed) width in
      Bitset.cardinal s = Bitset.fold (fun _ n -> n + 1) s 0)

let prop_bitset_count_inter_shifted =
  QCheck.Test.make ~name:"count_inter_shifted = fold count" ~count:300
    QCheck.(pair (oneofl boundary_widths) small_int)
    (fun (width, seed) ->
      let rng = Rng.create seed in
      let a = random_subset rng width and b = random_subset rng width in
      let d = Rng.int rng ((2 * width) + 5) - (width + 2) in
      let model =
        Bitset.fold
          (fun i n -> if i + d >= 0 && i + d < width && Bitset.mem b (i + d) then n + 1 else n)
          a 0
      in
      Bitset.count_inter_shifted a b d = model)

(* ------------------------------------------------------------------ *)
(* Union_find                                                           *)

let test_uf_basic () =
  let uf = Uf.create 5 in
  check Alcotest.int "initial classes" 5 (Uf.count uf);
  checkb "union new" true (Uf.union uf 0 1);
  checkb "union again" false (Uf.union uf 1 0);
  checkb "same" true (Uf.same uf 0 1);
  checkb "not same" false (Uf.same uf 0 2);
  ignore (Uf.union uf 2 3);
  ignore (Uf.union uf 1 2);
  check Alcotest.int "classes" 2 (Uf.count uf);
  checkb "transitive" true (Uf.same uf 0 3)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)

let test_stats_summary () =
  let s = Stats.summarize [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check Alcotest.(float 1e-9) "mean" 3.0 s.mean;
  check Alcotest.(float 1e-9) "min" 1.0 s.min;
  check Alcotest.(float 1e-9) "max" 5.0 s.max;
  check Alcotest.(float 1e-9) "p50" 3.0 s.p50;
  check Alcotest.(float 1e-6) "stddev" (sqrt 2.5) s.stddev

let test_stats_percentile_interp () =
  check Alcotest.(float 1e-9) "p25 of [0;10]" 2.5 (Stats.percentile 0.25 [ 0.0; 10.0 ]);
  check Alcotest.(float 1e-9) "p0" 0.0 (Stats.percentile 0.0 [ 0.0; 10.0 ]);
  check Alcotest.(float 1e-9) "p100" 10.0 (Stats.percentile 1.0 [ 0.0; 10.0 ])

let test_stats_histogram () =
  let h = Stats.histogram ~bins:2 [ 0.0; 0.1; 0.9; 1.0 ] in
  check Alcotest.int "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  check Alcotest.int "low bin" 2 c0;
  check Alcotest.int "high bin" 2 c1

let test_stats_wins_needed () =
  List.iter
    (fun (n, k) ->
      check Alcotest.(option int) (Printf.sprintf "n = %d" n) k (Stats.wins_needed n))
    [ (0, None); (5, None); (6, Some 6); (7, Some 7); (10, Some 9); (20, Some 15);
      (201, Some 115) ]

(* Reference: row n of Pascal's triangle, its upper tails summed naively. *)
let prop_wins_needed =
  QCheck.Test.make ~name:"wins_needed = naive binomial tail" ~count:200
    QCheck.(int_range 0 400)
    (fun n ->
      let row = Array.make (n + 1) 0.0 in
      row.(0) <- 1.0;
      for i = 1 to n do
        for j = i downto 1 do row.(j) <- row.(j) +. row.(j - 1) done
      done;
      let tail k = ldexp (Array.fold_left ( +. ) 0.0 (Array.sub row k (n + 1 - k))) (-n) in
      let rec first k = if k > n then None else if tail k <= 0.025 then Some k else first (k + 1) in
      Stats.wins_needed n = first 0)

let test_stats_empty_raises () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty") (fun () ->
      ignore (Stats.mean []))

(* ------------------------------------------------------------------ *)
(* Table                                                                *)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Rr_util.Table.create ~title:"demo" ~header:[ "a"; "bb" ] in
  Rr_util.Table.add_row t [ "1"; "2" ];
  let s = Rr_util.Table.render t in
  checkb "title present" true (contains_substring s "demo");
  checkb "header present" true (contains_substring s "bb");
  checkb "row present" true (contains_substring s "| 1");
  check Alcotest.string "float cell" "2.5000" (Rr_util.Table.cell_f 2.5);
  check Alcotest.string "int-ish cell" "3" (Rr_util.Table.cell_f 3.0);
  check Alcotest.string "pct cell" "12.00%" (Rr_util.Table.cell_pct 0.12)

let test_table_mismatch () =
  let t = Rr_util.Table.create ~title:"x" ~header:[ "a"; "b" ] in
  Alcotest.check_raises "column mismatch"
    (Invalid_argument "Table.add_row: column count mismatch") (fun () ->
      Rr_util.Table.add_row t [ "only one" ])

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int covers" `Quick test_rng_int_covers;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "poisson mean" `Quick test_rng_poisson_mean;
        Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "sample w/o replacement" `Quick test_rng_sample_without_replacement;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "basic" `Quick test_heap_basic;
        Alcotest.test_case "decrease" `Quick test_heap_decrease;
        Alcotest.test_case "rejects increase" `Quick test_heap_rejects_increase;
        Alcotest.test_case "rejects duplicate" `Quick test_heap_rejects_duplicate;
        Alcotest.test_case "insert_or_decrease" `Quick test_heap_insert_or_decrease;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        Alcotest.test_case "pop_min agrees with swap-based reference" `Quick
          test_heap_matches_swap_reference;
        qtest prop_heap_sorts;
        qtest prop_heap_decrease_key;
      ] );
    ( "util.pairing_heap",
      [
        Alcotest.test_case "basic" `Quick test_pheap_basic;
        Alcotest.test_case "decrease" `Quick test_pheap_decrease;
        qtest prop_pheap_sorts;
        qtest prop_pheap_decrease_random;
      ] );
    ( "util.bitset",
      [
        Alcotest.test_case "basic" `Quick test_bitset_basic;
        Alcotest.test_case "wide" `Quick test_bitset_wide;
        Alcotest.test_case "full" `Quick test_bitset_full;
        Alcotest.test_case "ops" `Quick test_bitset_ops;
        Alcotest.test_case "out of range" `Quick test_bitset_out_of_range;
        qtest prop_bitset_model;
        qtest prop_bitset_cardinal;
        qtest prop_bitset_count_inter_shifted;
      ] );
    ("util.union_find", [ Alcotest.test_case "basic" `Quick test_uf_basic ]);
    ( "util.stats",
      [
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "percentile interpolation" `Quick test_stats_percentile_interp;
        Alcotest.test_case "histogram" `Quick test_stats_histogram;
        Alcotest.test_case "sign-test wins needed" `Quick test_stats_wins_needed;
        qtest prop_wins_needed;
        Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "mismatch" `Quick test_table_mismatch;
      ] );
  ]
