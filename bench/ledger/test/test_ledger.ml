(* Unit tests of the ledger's pure parts: the percentile chooser, the
   open-loop generator's accounting, span self time and the compare rule. *)

open Rr_ledger

let float_eq = Alcotest.float 1e-9

(* ------------------------------------------------------------------ *)
(* Percentile chooser                                                   *)

let test_chooser () =
  let choose ?at_most n = Stats.choose ?at_most n in
  let q = Alcotest.(option (float 0.0)) in
  Alcotest.check q "1000 samples carry a p99" (Some 0.99) (choose ~at_most:0.99 1000);
  Alcotest.check q "999 samples do not" (Some 0.95) (choose ~at_most:0.99 999);
  Alcotest.check q "10 000 samples carry a p99.9" (Some 0.999) (choose 10_000);
  Alcotest.check q "9 999 samples stop at p99" (Some 0.99) (choose 9_999);
  Alcotest.check q "200 samples carry a p95" (Some 0.95) (choose ~at_most:0.99 200);
  Alcotest.check q "100 samples carry a p90" (Some 0.9) (choose 100);
  Alcotest.check q "20 samples carry only the median" (Some 0.5) (choose 20);
  Alcotest.check q "19 samples carry nothing" None (choose 19);
  Alcotest.(check int) "p99 of 1000 leaves exactly 10 beyond" 10 (Stats.beyond 1000 0.99);
  Alcotest.(check int) "median of 20 leaves 10 beyond" 10 (Stats.beyond 20 0.5)

let test_quantiles () =
  let s = Stats.sorted (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.check float_eq "nearest-rank p99 of 1..100" 99.0 (Stats.quantile s 0.99);
  Alcotest.check float_eq "nearest-rank p50 of 1..100" 50.0 (Stats.quantile s 0.5);
  Alcotest.check float_eq "q = 1 is the maximum" 100.0 (Stats.quantile s 1.0);
  (* Reference values from Python's statistics.quantiles(data, n=4). *)
  let check name data (a, b, c) =
    let q1, m, q3 = Stats.quartiles data in
    Alcotest.check float_eq (name ^ " q1") a q1;
    Alcotest.check float_eq (name ^ " median") b m;
    Alcotest.check float_eq (name ^ " q3") c q3
  in
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "odd" [| 3.0; 1.0; 2.0 |] (1.0, 2.0, 3.0);
  check "two values" [| 5.0; 7.0 |] (4.5, 6.0, 7.5);
  check "one value" [| 4.0 |] (4.0, 4.0, 4.0);
  Alcotest.check float_eq "even median" 5.5 (Stats.median (Array.init 10 (fun i -> float_of_int (i + 1))));
  (* A slow spell covering one block of five does not move the median. *)
  let lat = Array.init 100 (fun i -> if i >= 20 && i < 40 then 150.0 else 100.0) in
  let p50 lo hi = Stats.quantile (Stats.sorted (Array.sub lat lo (hi - lo))) 0.5 in
  Alcotest.check float_eq "block median ignores one slow block" 100.0
    (Stats.block_median ~blocks:5 100 p50);
  Alcotest.check float_eq "blocks partition the range" 20.0
    (Stats.block_median ~blocks:5 100 (fun lo hi -> float_of_int (hi - lo)));
  Alcotest.check float_eq "fewer samples than blocks" 1.0
    (Stats.block_median ~blocks:5 3 (fun lo hi -> float_of_int (hi - lo)))

(* ------------------------------------------------------------------ *)
(* Open-loop accounting                                                 *)

(* A FIFO server on a virtual clock: fixed service time, and one stall
   before it serves request [stall_at]. *)
let fake_server ~service_ns ~stall_at ~stall_ns =
  let clock = ref 0 and free_at = ref 0 in
  let done_at = Queue.create () in
  let send i =
    let start = max !clock !free_at + if i = stall_at then stall_ns else 0 in
    free_at := start + service_ns;
    Queue.push !free_at done_at;
    true
  in
  let recv ~deadline =
    match Queue.peek_opt done_at with
    | Some t when t <= deadline ->
      clock := max !clock t;
      let k = ref 0 in
      while (not (Queue.is_empty done_at)) && Queue.peek done_at <= !clock do
        ignore (Queue.pop done_at : int);
        incr k
      done;
      !k
    | _ ->
      clock := max !clock deadline;
      0
  in
  { Openloop.now = (fun () -> !clock); send; recv }

let p99 a = Stats.quantile (Stats.sorted a) 0.99

let test_open_loop_stall () =
  let n = 1000 and ms = 1_000_000 in
  let due = Array.init n (fun i -> i * ms) in
  let run window =
    let tr = fake_server ~service_ns:(ms / 10) ~stall_at:500 ~stall_ns:(50 * ms) in
    let r = Openloop.run tr ~due ~window ~depends:(fun _ -> -1) in
    let from_due = Array.init n (fun i -> float_of_int (r.Openloop.reply_ns.(i) - due.(i))) in
    let from_send =
      Array.init n (fun i -> float_of_int (r.Openloop.reply_ns.(i) - r.Openloop.sent_ns.(i)))
    in
    (p99 from_due, p99 from_send)
  in
  let due_p99, send_p99 = run 64 in
  Alcotest.(check bool)
    (Printf.sprintf "open loop: a 50 ms stall reaches p99 from the due time (%.1f ms)" (due_p99 /. 1e6))
    true (due_p99 >= 40.0 *. 1e6);
  Alcotest.(check bool) "open loop: requests leave on schedule" true (send_p99 >= 40.0 *. 1e6);
  let due_p99, send_p99 = run 1 in
  Alcotest.(check bool) "one in flight: the stall still shows from the due time" true
    (due_p99 >= 40.0 *. 1e6);
  Alcotest.(check bool)
    (Printf.sprintf "one in flight: timing from the send hides it (%.2f ms)" (send_p99 /. 1e6))
    true (send_p99 < 1.0 *. 1e6)

let test_open_loop_depends () =
  (* Operation 1 depends on 0, due before 0 answers: it waits, and the
     generator waits with it, so operation 2 goes out after 1. *)
  let ms = 1_000_000 in
  let tr = fake_server ~service_ns:(5 * ms) ~stall_at:(-1) ~stall_ns:0 in
  let r =
    Openloop.run tr ~due:[| 0; ms; 2 * ms |] ~window:8
      ~depends:(fun i -> if i = 1 then 0 else -1)
  in
  let s = r.Openloop.sent_ns in
  Alcotest.(check bool) "dependant sent after its reply" true (s.(1) >= r.Openloop.reply_ns.(0));
  Alcotest.(check bool) "script order kept" true (s.(2) >= s.(1));
  (* In rounds: the third operation waits for both replies of the first
     round, although the window has room after the first reply. *)
  let tr = fake_server ~service_ns:ms ~stall_at:(-1) ~stall_ns:0 in
  let r = Openloop.run ~burst:true tr ~due:(Array.make 3 0) ~window:2 ~depends:(fun _ -> -1) in
  Alcotest.(check int) "round 1 leaves together" 0 r.Openloop.sent_ns.(1);
  Alcotest.(check int) "round 2 waits for the whole of round 1" r.Openloop.reply_ns.(1)
    r.Openloop.sent_ns.(2)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)

let test_self_time () =
  let sp = Span.create ~capacity:8 [| "root"; "a"; "b"; "leaf" |] in
  Span.enter_at sp 0 ~req:7 ~ns:0;
  Span.enter_at sp 1 ~req:7 ~ns:10;
  Span.enter_at sp 3 ~req:7 ~ns:15;
  Span.leave_at sp ~ns:25;
  Span.leave_at sp ~ns:40;
  Span.enter_at sp 2 ~req:7 ~ns:50;
  Span.leave_at sp ~ns:90;
  Span.leave_at sp ~ns:100;
  Alcotest.(check (array int)) "self = span minus children" [| 30; 20; 10; 40 |] (Span.self_ns sp);
  Alcotest.(check (array int)) "parents" [| -1; 0; 1; 0 |] (Array.init 4 (Span.parent sp));
  Alcotest.(check (array (float 0.0))) "durations by name" [| 40.0 |] (Span.durations sp 2);
  let json = Span.chrome_json sp in
  Alcotest.(check bool) "trace_event JSON" true
    (String.starts_with ~prefix:"{\"traceEvents\":[{\"name\":\"root\",\"ph\":\"X\"" json)

let test_span_capacity () =
  let sp = Span.create ~capacity:1 [| "x" |] in
  Span.enter_at sp 0 ~req:0 ~ns:0;
  Span.enter_at sp 0 ~req:0 ~ns:1;
  Span.leave_at sp ~ns:2;
  Span.leave_at sp ~ns:3;
  Alcotest.(check int) "kept" 1 (Span.length sp);
  Alcotest.(check int) "dropped" 1 (Span.dropped sp);
  Alcotest.(check int) "outer span closed at the right time" 3 (Span.duration_ns sp 0)

(* ------------------------------------------------------------------ *)
(* Compare rule                                                         *)

let verdict = Alcotest.testable (fun f v -> Format.pp_print_string f (Verdict.name v)) ( = )
let base = [| 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. |]
let scale k = Array.map (fun x -> x *. k) base

let test_compare () =
  let judge ?(better = Verdict.Lower) ?(bound = 0.1) b n = Verdict.judge ~better ~bound ~base:b ~next:n in
  Alcotest.check verdict "5% slower is within a 10% bound" Verdict.Within (judge base (scale 1.05));
  Alcotest.check verdict "20% slower is worse" Verdict.Worse (judge base (scale 1.2));
  Alcotest.check verdict "20% faster in every pair is a gain" Verdict.Gain (judge base (scale 0.8));
  let mixed = scale 0.8 in
  mixed.(0) <- 120.0;
  mixed.(1) <- 120.0;
  Alcotest.check verdict "8 wins in 10 is no gain" Verdict.Within (judge base mixed);
  Alcotest.check verdict "higher-better: 20% fewer is worse" Verdict.Worse
    (judge ~better:Verdict.Higher base (scale 0.8));
  Alcotest.check verdict "higher-better: 20% more is a gain" Verdict.Gain
    (judge ~better:Verdict.Higher base (scale 1.2));
  let noisy = [| 50.; 150.; 80.; 120.; 100.; 60.; 140.; 90.; 110.; 100. |] in
  Alcotest.check verdict "base spread over the bound is unresolved" Verdict.Unresolved
    (judge noisy (Array.map (fun x -> x *. 1.5) noisy));
  Alcotest.check verdict "unless every new run beats every base run" Verdict.Gain
    (judge noisy (Array.make 10 10.0));
  Alcotest.check verdict "exact: identical" Verdict.Within
    (judge ~better:Verdict.Exact [| 0.25; 0.25 |] [| 0.25; 0.25; 0.25 |]);
  Alcotest.check verdict "exact: one run differs" Verdict.Mismatch
    (judge ~better:Verdict.Exact [| 0.25; 0.25 |] [| 0.25; 0.26 |]);
  Alcotest.check verdict "zero: all zero" Verdict.Within (judge ~better:Verdict.Zero [| 0.0 |] [| 0.0 |]);
  Alcotest.check verdict "zero: a failure" Verdict.Mismatch
    (judge ~better:Verdict.Zero [| 0.0 |] [| 0.001 |]);
  Alcotest.check float_eq "spread of the base vector" 0.02 (Verdict.spread base)

let () =
  Alcotest.run "ledger"
    [
      ( "stats",
        [ Alcotest.test_case "percentile chooser" `Quick test_chooser;
          Alcotest.test_case "quantiles" `Quick test_quantiles ] );
      ( "openloop",
        [ Alcotest.test_case "stall timed from the due time" `Quick test_open_loop_stall;
          Alcotest.test_case "dependencies keep script order" `Quick test_open_loop_depends ] );
      ( "span",
        [ Alcotest.test_case "self time of nested spans" `Quick test_self_time;
          Alcotest.test_case "capacity" `Quick test_span_capacity ] );
      ("compare", [ Alcotest.test_case "rule on fixed vectors" `Quick test_compare ]);
    ]
