(* End-to-end tests for tools/rr_lint.  Fixture modules are copied into
   a scratch tree at the paths where each rule applies (R1/R2 need the
   determinism scope, R5 a hot-kernel path), compiled with
   [ocamlc -bin-annot] so genuine .cmt files exist, and the linter
   binary is driven as a subprocess: diagnostics, baseline suppression
   and the 0/1/2 exit-code contract are asserted exactly. *)

let exe = Filename.concat ".." (Filename.concat "tools" "rr_lint/main.exe")
let scratch = "lint_scratch"
let scratch_clean = "lint_scratch_clean"
let scratch_ipc = "lint_scratch_ipc"
let scratch_book = "lint_scratch_book"

(* The scratch layout: fixture source -> path inside [scratch].  The R2
   fixture lands on lib/graph/suurballe.ml — re-introducing the PR 4
   hash-order adjacency bug — and the R5 fixture on the Dijkstra kernel
   path. *)
let staged_fixtures =
  [
    ("lint_fixtures/fixture_r1.ml", "lib/core/fixture_r1.ml");
    ("lint_fixtures/fixture_r2_suurballe.ml", "lib/graph/suurballe.ml");
    ("lint_fixtures/fixture_r3.ml", "lib/wdm/fixture_r3.ml");
    ("lint_fixtures/fixture_r4.ml", "lib/core/fixture_r4.ml");
    ("lint_fixtures/fixture_r5.ml", "lib/graph/dijkstra.ml");
  ]

(* The interprocedural tree (R6/R7/R8 + call-graph edge cases) is staged
   separately so the exact-output tests above keep their file counts. *)
let ipc_fixtures =
  [
    ("lint_fixtures/fixture_r6_ws.ml", "lib/core/ws_ranges.ml");
    ("lint_fixtures/fixture_r7_slot.ml", "lib/core/slot_leak.ml");
    ("lint_fixtures/fixture_r8_noalloc.ml", "lib/core/hotpath.ml");
    ("lint_fixtures/fixture_cg.ml", "lib/core/cg_cases.ml");
  ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let stage root fixtures =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)));
  List.iter
    (fun (src, dst) ->
      let dst_abs = Filename.concat root dst in
      mkdir_p (Filename.dirname dst_abs);
      write_file dst_abs (read_file src);
      let cmd =
        Printf.sprintf "cd %s && ocamlc -bin-annot -w -a -c %s"
          (Filename.quote root) (Filename.quote dst)
      in
      if Sys.command cmd <> 0 then
        failwith (Printf.sprintf "fixture %s does not compile" src))
    fixtures

(* Both trees are built once; every test reuses them. *)
let staged =
  lazy
    (stage scratch staged_fixtures;
     write_file
       (Filename.concat scratch "probes.manifest")
       "kernel.dijkstra\n";
     stage scratch_clean
       [ ("lint_fixtures/fixture_clean.ml", "lib/core/fixture_clean.ml") ];
     stage scratch_ipc ipc_fixtures;
     stage scratch_book
       (List.map
          (fun dst -> ("lint_fixtures/fixture_r9_book.ml", dst))
          [ "lib/sim/simulator.ml"; "lib/serve/core.ml"; "lib/core/connections.ml" ]))

let run_lint args =
  Lazy.force staged;
  let out = "rr_lint_test_out.txt" in
  let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" exe args out) in
  let lines =
    String.split_on_char '\n' (read_file out)
    |> List.filter (fun l -> l <> "")
  in
  (code, lines)

let check_run name args ~code ~lines =
  let c, ls = run_lint args in
  Alcotest.(check (list string)) (name ^ ": output") lines ls;
  Alcotest.(check int) (name ^ ": exit code") code c

(* ------------------------------------------------------------------ *)
(* Expected diagnostics, as captured from the fixtures.                 *)

let r1_lines =
  [
    "lib/core/fixture_r1.ml:4:37 [R1] polymorphic = on int * int; use a \
     monomorphic equality (Int.equal, String.equal, a pattern match, ...)";
    "lib/core/fixture_r1.ml:5:36 [R1] polymorphic compare on int list; use a \
     monomorphic compare (Int.compare, Float.compare, ...)";
    "lib/core/fixture_r1.ml:6:32 [R1] polymorphic Hashtbl.hash on int * int; \
     hash an explicit immediate key";
    "lib/core/fixture_r1.ml:7:23 [R1] List.mem uses polymorphic equality; use \
     explicit int-keyed membership (Bitset, an int-keyed Hashtbl, or \
     List.exists with a monomorphic equality)";
  ]

let r4_grammar_line =
  "lib/core/fixture_r4.ml:9:34 [R4] probe name \"BadName\" violates the \
   obs.mli naming grammar (lowercase dot-separated segments, 2-4 deep)"

let r4_unregistered_line =
  "lib/core/fixture_r4.ml:10:35 [R4] probe name \"fixture.not_registered\" is \
   not registered in the probe manifest; regenerate it with --emit-manifest"

(* Journal event names (Obs.event call sites) go through the same R4
   grammar and manifest checks as probe names. *)
let r4_event_grammar_line =
  "lib/core/fixture_r4.ml:12:35 [R4] probe name \"Bad.Event\" violates the \
   obs.mli naming grammar (lowercase dot-separated segments, 2-4 deep)"

let r4_event_unregistered_line =
  "lib/core/fixture_r4.ml:13:39 [R4] probe name \"journal.fixture.boom\" is \
   not registered in the probe manifest; regenerate it with --emit-manifest"

let r5_lines =
  [
    "lib/graph/dijkstra.ml:7:7 [R5] float = in a hot kernel; compare against \
     a sentinel with (* lint: float-eq *) justification or restructure";
    "lib/graph/dijkstra.ml:8:18 [R5] failwith in a hot kernel; return an \
     option/result or declare Failure in the .mli doc";
    "lib/graph/dijkstra.ml:9:18 [R5] raise Exit in a hot kernel; the \
     exception is neither local nor declared in the .mli doc";
  ]

let r2_lines =
  [
    "lib/graph/suurballe.ml:7:2 [R2] Hashtbl.iter iterates in unspecified \
     hash order; build from a sorted key list, or justify an \
     order-insensitive use with (* lint: ordered *)";
    "lib/graph/suurballe.ml:10:20 [R2] Hashtbl.fold iterates in unspecified \
     hash order; build from a sorted key list, or justify an \
     order-insensitive use with (* lint: ordered *)";
  ]

let r3_line =
  "lib/wdm/fixture_r3.ml:11:2 [R3] ?obs is in scope but not forwarded to \
   callee (which accepts ?obs); pass ?obs or justify with (* lint: \
   no-thread *)"

(* R6 diagnostics share one long message shape; build them. *)
let r6_line file line col name thead =
  Printf.sprintf
    "%s:%d:%d [R6] module-level mutable '%s' (%s) accessed in worker-domain \
     scope; mediate with Atomic or a pool slot, or justify with (* lint: \
     domain-safe <reason> *)"
    file line col name thead

let ws = "lib/core/ws_ranges.ml"
let cg = "lib/core/cg_cases.ml"

let r6_ws_lines =
  [
    r6_line ws 19 11 "Ws_ranges.ws_lo" "array";
    r6_line ws 20 10 "Ws_ranges.ws_hi" "array";
    r6_line ws 21 4 "Ws_ranges.ws_lo" "array";
    r6_line ws 27 11 "Ws_ranges.ws_lo" "array";
    r6_line ws 27 35 "Ws_ranges.ws_hi" "array";
    r6_line ws 30 4 "Ws_ranges.ws_hi" "array";
    r6_line ws 31 4 "Ws_ranges.ws_lo" "array";
  ]

(* Findings flow through the functor instance (Make.bump via Inst), the
   mutually recursive group (cg_tick two hops from the closure) and the
   partial application (add_at via add_two); the justified [seeds] read
   and the first-class-module unpack produce nothing. *)
let r6_cg_lines =
  [
    r6_line cg 19 16 "Cg_cases.counters" "array";
    r6_line cg 19 36 "Cg_cases.counters" "array";
    r6_line cg 29 17 "Cg_cases.counters" "array";
    r6_line cg 29 33 "Cg_cases.counters" "array";
    r6_line cg 32 17 "Cg_cases.counters" "array";
    r6_line cg 32 33 "Cg_cases.counters" "array";
  ]

let r6_slot_line =
  r6_line "lib/core/slot_leak.ml" 32 6 "Slot_leak.captured" "Stdlib.ref"

let r7_lines =
  [
    "lib/core/slot_leak.ml:32:6 [R7] pool-slot value stored into \
     module-level 'Slot_leak.captured' escapes its worker; slot state must \
     stay domain-local (use Parallel.set_state)";
    "lib/core/slot_leak.ml:33:6 [R7] pool-slot value returned from the \
     worker closure escapes its domain; copy the payload out instead of the \
     slot state";
  ]

let r8_lines =
  [
    "lib/core/hotpath.ml:15:44 [R8] allocation (Some construction) in (* \
     lint: no-alloc *) Hotpath.lookup_opt";
    "lib/core/hotpath.ml:17:16 [R8] allocation (tuple construction) in \
     Hotpath.pair_of, reachable from (* lint: no-alloc *) Hotpath.sum_pair";
    "lib/core/hotpath.ml:27:18 [R8] allocation (call to allocating \
     Array.copy) in (* lint: no-alloc *) Hotpath.snapshot";
  ]

(* The same calls flagged in both connection owners, nowhere in the book. *)
let r9_lines =
  List.concat_map
    (fun file ->
      List.map
        (fun (line, col, callee) ->
          Printf.sprintf
            "%s:%d:%d [R9] %s outside the connection book; record, release, \
             evict or restore the connection through \
             Robust_routing.Connections"
            file line col callee)
        [
          (17, 22, "Semilightpath.release");
          (18, 20, "Types.allocate");
          (19, 20, "Types.release");
          (20, 25, "Semilightpath.allocate");
        ])
    [ "lib/serve/core.ml"; "lib/sim/simulator.ml" ]

let summary ~files ~typed ~untyped ~total ~baselined ~fresh =
  Printf.sprintf
    "rr_lint: %d file(s) (%d typed, %d untyped), %d finding(s): %d baselined, \
     %d new"
    files typed untyped total baselined fresh

(* ------------------------------------------------------------------ *)
(* Cases                                                                *)

let test_typed_exact () =
  check_run "typed"
    (Printf.sprintf "--root %s lib" scratch)
    ~code:1
    ~lines:
      (r1_lines
      @ [ r4_grammar_line; r4_event_grammar_line ]
      @ r5_lines @ r2_lines
      @ [ r3_line; summary ~files:5 ~typed:5 ~untyped:0 ~total:12 ~baselined:0 ~fresh:12 ])

let test_manifest_registration () =
  check_run "manifest"
    (Printf.sprintf "--root %s --manifest %s/probes.manifest lib" scratch scratch)
    ~code:1
    ~lines:
      (r1_lines
      @ [ r4_grammar_line; r4_unregistered_line; r4_event_grammar_line;
          r4_event_unregistered_line ]
      @ r5_lines @ r2_lines
      @ [ r3_line; summary ~files:5 ~typed:5 ~untyped:0 ~total:14 ~baselined:0 ~fresh:14 ])

(* The acceptance check: putting the PR 4 Hashtbl.iter adjacency pattern
   back into suurballe.ml is flagged by R2 even with every other rule
   disabled. *)
let test_r2_catches_suurballe_bug () =
  check_run "r2-only"
    (Printf.sprintf "--root %s --rules R2 lib" scratch)
    ~code:1
    ~lines:
      (r2_lines
      @ [ summary ~files:5 ~typed:5 ~untyped:0 ~total:2 ~baselined:0 ~fresh:2 ])

let test_baseline_suppression () =
  let baseline = Filename.concat scratch "lint.baseline" in
  check_run "baseline-update"
    (Printf.sprintf "--root %s --manifest %s/probes.manifest --baseline %s --update-baseline lib"
       scratch scratch baseline)
    ~code:0
    ~lines:[ Printf.sprintf "rr_lint: baseline %s updated with 14 finding(s)" baseline ];
  let text = read_file baseline in
  Alcotest.(check bool) "baseline has a comment header" true (text.[0] = '#');
  check_run "baseline-suppresses"
    (Printf.sprintf "--root %s --manifest %s/probes.manifest --baseline %s lib"
       scratch scratch baseline)
    ~code:0
    ~lines:[ summary ~files:5 ~typed:5 ~untyped:0 ~total:14 ~baselined:14 ~fresh:0 ]

let test_clean_tree_exit_zero () =
  check_run "clean"
    (Printf.sprintf "--root %s lib" scratch_clean)
    ~code:0
    ~lines:[ summary ~files:1 ~typed:1 ~untyped:0 ~total:0 ~baselined:0 ~fresh:0 ]

(* The ppxlib fallback sees no types: the syntactic subset of R1 plus
   R2/R4/R5 still fire, the typed-only findings (poly = / compare, R3)
   drop out. *)
let test_untyped_fallback () =
  check_run "untyped"
    (Printf.sprintf "--root %s --untyped --manifest %s/probes.manifest lib" scratch scratch)
    ~code:1
    ~lines:
      [
        "lib/core/fixture_r1.ml:6:32 [R1] polymorphic Hashtbl.hash; hash an \
         explicit immediate key";
        "lib/core/fixture_r1.ml:7:23 [R1] List.mem uses polymorphic \
         equality; use explicit int-keyed membership (Bitset, an int-keyed \
         Hashtbl, or List.exists with a monomorphic equality)";
        r4_grammar_line;
        r4_unregistered_line;
        r4_event_grammar_line;
        r4_event_unregistered_line;
        "lib/graph/dijkstra.ml:7:5 [R5] float = in a hot kernel; compare \
         against a sentinel with (* lint: float-eq *) justification or \
         restructure";
        List.nth r5_lines 1;
        List.nth r5_lines 2;
        List.nth r2_lines 0;
        List.nth r2_lines 1;
        summary ~files:5 ~typed:0 ~untyped:5 ~total:11 ~baselined:0 ~fresh:11;
      ]

(* ------------------------------------------------------------------ *)
(* Interprocedural rules (R6/R7/R8)                                     *)

let ipc_summary = summary ~files:4 ~typed:4 ~untyped:0

let test_ipc_exact () =
  check_run "ipc"
    (Printf.sprintf "--root %s lib" scratch_ipc)
    ~code:1
    ~lines:
      (r6_cg_lines @ r8_lines
      @ [ r6_slot_line ]
      @ r7_lines @ r6_ws_lines
      @ [ ipc_summary ~total:19 ~baselined:0 ~fresh:19 ])

(* The acceptance check for R6: stripping the Atomics off the
   work-stealing ranges is flagged at every touch, through the call
   graph, with every other rule disabled. *)
let test_r6_catches_ws_bug () =
  check_run "r6-only"
    (Printf.sprintf "--root %s --only R6 lib" scratch_ipc)
    ~code:1
    ~lines:
      (r6_cg_lines
      @ [ r6_slot_line ]
      @ r6_ws_lines
      @ [ ipc_summary ~total:14 ~baselined:0 ~fresh:14 ])

(* The acceptance check for R7: a pool-slot shard leaked to a
   module-level ref and returned from the mapped function. *)
let test_r7_catches_slot_leak () =
  check_run "r7-only"
    (Printf.sprintf "--root %s --only R7 lib" scratch_ipc)
    ~code:1
    ~lines:(r7_lines @ [ ipc_summary ~total:2 ~baselined:0 ~fresh:2 ])

let test_r8_no_alloc () =
  check_run "r8-only"
    (Printf.sprintf "--root %s --only R8 lib" scratch_ipc)
    ~code:1
    ~lines:(r8_lines @ [ ipc_summary ~total:3 ~baselined:0 ~fresh:3 ])

(* R9: the owners of live connections touch no wavelength themselves;
   the book may. *)
let test_r9_one_book () =
  check_run "r9"
    (Printf.sprintf "--root %s lib" scratch_book)
    ~code:1
    ~lines:
      (r9_lines
      @ [ summary ~files:3 ~typed:3 ~untyped:0 ~total:8 ~baselined:0 ~fresh:8 ])

let test_json_report () =
  check_run "json"
    (Printf.sprintf "--root %s --only R7 --json lib" scratch_ipc)
    ~code:1
    ~lines:
      [
        "{";
        "  \"findings\": [";
        "    {\"file\": \"lib/core/slot_leak.ml\", \"line\": 32, \"col\": 6, \
         \"rule\": \"R7\", \"message\": \"pool-slot value stored into \
         module-level 'Slot_leak.captured' escapes its worker; slot state \
         must stay domain-local (use Parallel.set_state)\"},";
        "    {\"file\": \"lib/core/slot_leak.ml\", \"line\": 33, \"col\": 6, \
         \"rule\": \"R7\", \"message\": \"pool-slot value returned from the \
         worker closure escapes its domain; copy the payload out instead of \
         the slot state\"}";
        "  ],";
        "  \"files\": 4,";
        "  \"typed\": 4,";
        "  \"untyped\": 0,";
        "  \"total\": 2,";
        "  \"baselined\": 0,";
        "  \"new\": 2,";
        "  \"stale_baseline\": 0";
        "}";
      ]

(* --emit-rules must match the checked-in registry byte for byte; CI
   diffs the two, so a rule change without a registry update fails. *)
let test_rules_registry_current () =
  let code, lines = run_lint "--emit-rules" in
  Alcotest.(check int) "emit-rules exit code" 0 code;
  let registry =
    String.split_on_char '\n'
      (read_file (Filename.concat ".." "tools/rr_lint/rules.registry"))
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string)) "registry is current" registry lines

let test_misuse_exits_two () =
  List.iter
    (fun (name, args) ->
      let code, _ = run_lint args in
      Alcotest.(check int) name 2 code)
    [
      ("unknown flag", "--bogus lib");
      ("missing dir", Printf.sprintf "--root %s nosuchdir" scratch);
      ("unknown rule", Printf.sprintf "--root %s --rules R10 lib" scratch);
      ("unknown only rule", Printf.sprintf "--root %s --only R10 lib" scratch);
      ("no dirs", Printf.sprintf "--root %s" scratch);
      ("missing baseline", Printf.sprintf "--root %s --baseline nosuch.baseline lib" scratch);
    ]

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "typed diagnostics are exact" `Quick test_typed_exact;
        Alcotest.test_case "manifest registration is enforced" `Quick
          test_manifest_registration;
        Alcotest.test_case "R2 catches the Suurballe hash-order bug" `Quick
          test_r2_catches_suurballe_bug;
        Alcotest.test_case "baseline suppresses known findings" `Quick
          test_baseline_suppression;
        Alcotest.test_case "clean tree exits 0" `Quick test_clean_tree_exit_zero;
        Alcotest.test_case "untyped fallback" `Quick test_untyped_fallback;
        Alcotest.test_case "interprocedural diagnostics are exact" `Quick
          test_ipc_exact;
        Alcotest.test_case "R6 catches the stripped-Atomic ranges" `Quick
          test_r6_catches_ws_bug;
        Alcotest.test_case "R7 catches the slot leak" `Quick
          test_r7_catches_slot_leak;
        Alcotest.test_case "R9 keeps resources in the book" `Quick
          test_r9_one_book;
        Alcotest.test_case "R8 catches hot-path allocations" `Quick
          test_r8_no_alloc;
        Alcotest.test_case "--json report is exact" `Quick test_json_report;
        Alcotest.test_case "rules registry is current" `Quick
          test_rules_registry_current;
        Alcotest.test_case "misuse exits 2" `Quick test_misuse_exits_two;
      ] );
  ]
