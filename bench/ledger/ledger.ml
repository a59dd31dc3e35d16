(* rr-ledger: end-to-end and per-layer benchmark of the routing system.

     ledger.exe --seed N --json OUT [--trace 1] [--seconds S]
         every workload, each in a fresh re-exec'd process
     ledger.exe --workload W --seed N --seconds S --trace 0|1 [--json OUT]
         one workload in this process; the last stdout line is the
         result as JSON (correct, attempted, failed, metrics)
     ledger.exe --smoke [--benchmark BENCHMARK.json]
         every workload untraced and traced at 1/50 size, checked
         against the metric list of BENCHMARK.json
     ledger.exe compare BASE.json... -- NEW.json...
         median and quartiles of each side per workload and metric

   Exit status: 0 when every check passed, 1 when a check failed or a
   compared metric got worse, 2 on bad usage. *)

open Rr_ledger
module J = Rr_serve.Json

let usage =
  "usage: ledger.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json OUT]\n\
  \       ledger.exe --smoke [--benchmark FILE]\n\
  \       ledger.exe compare BASE.json... -- NEW.json...\n\
   workloads: "
  ^ String.concat ", " (List.map fst Workloads.all)

let die_usage fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "ledger: %s\n%s\n" m usage;
      exit 2)
    fmt

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_json path =
  match J.of_string (read_file path) with
  | Ok v -> v
  | Error m -> failwith (Printf.sprintf "%s: %s" path m)
  | exception Sys_error m -> failwith m

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                        *)

(* serve-steady's client and daemon hand every request round back and
   forth.  On two processors the cost of each hand-off depends on where
   the scheduler placed them (the phase-2 rate moved by 17% between runs
   of one seed); on one processor it does not (7%).  The run re-executes
   itself under taskset once, and runs unpinned when that is not
   possible. *)
let pin_env = "LEDGER_PINNED_CPU"

let pin_to_one_processor () =
  match (Sys.getenv_opt pin_env, Setup.last_allowed_cpu ()) with
  | None, Some cpu -> (
    let cpu = string_of_int cpu in
    Unix.putenv pin_env cpu;
    flush_all ();
    try Unix.execvp "taskset" (Array.append [| "taskset"; "-c"; cpu |] Sys.argv)
    with Unix.Unix_error _ -> ())
  | _ -> ()

let run_one ~workload ~(p : Workloads.params) ~json =
  let f =
    match List.assoc_opt workload Workloads.all with
    | Some f -> f
    | None -> die_usage "unknown workload %S" workload
  in
  if String.equal workload "serve-steady" then pin_to_one_processor ();
  mkdir_p Workloads.out_dir;
  let r = Report.create ~workload ~seed:p.seed ~seconds:p.seconds ~trace:p.trace in
  Pace.bracket ();
  (try f p r
   with e -> Report.problem r "%s raised %s" workload (Printexc.to_string e));
  Printf.printf "%s (seed %d, %g s%s%s)\n" workload p.seed p.seconds
    (if p.trace then ", traced" else "")
    (match Sys.getenv_opt pin_env with Some c -> ", on processor " ^ c | None -> "");
  Report.print r;
  Option.iter (fun path -> write_file path (J.to_string (Report.to_json r))) json;
  print_endline (Report.result_line r);
  exit (if Report.correct r then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Every workload, each in a fresh process                              *)

let member k v = match J.member k v with Some x -> x | None -> J.Null

let spawn_workload ~(p : Workloads.params) ~seconds workload =
  let tmp =
    Filename.concat Workloads.out_dir
      (Printf.sprintf "%s-%d-%s.json" workload p.seed (if p.trace then "trace" else "e2e"))
  in
  (try Sys.remove tmp with Sys_error _ -> ());
  let args =
    [|
      Sys.executable_name; "--workload"; workload; "--seed"; string_of_int p.seed;
      "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if p.trace then "1" else "0");
      "--json"; tmp;
    |]
  in
  flush stdout;
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  let result = if Sys.file_exists tmp then Some (read_json tmp) else None in
  (status = Unix.WEXITED 0, result)

let run_all ~(p : Workloads.params) ~json =
  mkdir_p Workloads.out_dir;
  let results =
    List.map (fun (w, _) -> (w, spawn_workload ~p ~seconds:p.seconds w)) Workloads.all
  in
  let ok = List.for_all (fun (_, (ok, _)) -> ok) results in
  Option.iter
    (fun path ->
      write_file path
        (J.to_string
           (J.Obj
              [
                ("seed", J.Int p.seed);
                ("seconds", J.Float p.seconds);
                ("trace", J.Bool p.trace);
                ("workloads", J.List (List.filter_map (fun (_, (_, r)) -> r) results));
              ])))
    json;
  List.iter
    (fun (w, (ok, _)) -> if not ok then Printf.printf "ledger: %s FAILED\n" w)
    results;
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Smoke: all workloads, untraced and traced, at 1/50 size              *)

let smoke_seconds = 0.3

let check_benchmark_file path =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let b = read_json path in
  let entries key =
    match member key b with
    | J.List l ->
      List.map
        (fun e ->
          let str k = Option.value (Option.bind (J.member k e) J.to_str) ~default:"" in
          (str "name", str "unit", str "better", Option.bind (J.member "bound" e) J.to_float))
        l
    | _ ->
      fail "%s: no %s list" path key;
      []
  in
  let check key ~layer =
    let listed = entries key in
    List.iter
      (fun (name, unit, better, bound) ->
        match Spec.find name with
        | None -> fail "%s: %s %s is not a ledger metric" path key name
        | Some m ->
          let is_layer = match m.Spec.kind with Spec.Layer _ -> true | Spec.End_to_end -> false in
          if is_layer <> layer || not m.Spec.listed then
            fail "%s: %s is not a %s metric of the ledger" path name key;
          if not (String.equal unit m.Spec.unit) then
            fail "%s: %s has unit %S, the ledger reports %S" path name unit m.Spec.unit;
          if not (String.equal better (Spec.better_name m.Spec.better)) then
            fail "%s: %s is %S-better, the ledger says %S" path name better
              (Spec.better_name m.Spec.better);
          (match bound with
           | Some x when (not layer) && not (Float.equal x m.Spec.bound) ->
             fail "%s: %s bound %g, the ledger uses %g" path name x m.Spec.bound
           | _ -> ()))
      listed;
    List.iter
      (fun m ->
        let is_layer = match m.Spec.kind with Spec.Layer _ -> true | Spec.End_to_end -> false in
        if m.Spec.listed && is_layer = layer
           && not (List.exists (fun (n, _, _, _) -> String.equal n m.Spec.name) listed)
        then fail "%s: %s lacks the ledger metric %s" path key m.Spec.name)
      Spec.all;
    List.map (fun (n, u, _, _) -> (n, u)) listed
  in
  let e2e = check "end_to_end" ~layer:false in
  let layers = check "per_layer" ~layer:true in
  (e2e, layers, List.rev !problems)

let smoke ~(p : Workloads.params) ~benchmark =
  let t0 = Setup.now_ns () in
  let e2e, layers, problems = check_benchmark_file benchmark in
  let problems = ref problems in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  mkdir_p Workloads.out_dir;
  List.iter
    (fun trace ->
      List.iter
        (fun (w, _) ->
          let p = { p with Workloads.trace } in
          let ok, result = spawn_workload ~p ~seconds:smoke_seconds w in
          let tag = if trace then w ^ " (traced)" else w in
          if not ok then fail "%s: run failed" tag;
          match result with
          | None -> fail "%s: no result" tag
          | Some r ->
            let metrics = member "metrics" r in
            List.iter
              (fun (name, unit) ->
                match J.member name metrics with
                | None -> fail "%s: metric %s missing" tag name
                | Some m ->
                  if Option.bind (J.member "unit" m) J.to_str <> Some unit then
                    fail "%s: metric %s lacks its unit %s" tag name unit)
              (if trace then layers else e2e);
            if J.member "correct" r <> Some (J.Bool true) then fail "%s: a check failed" tag;
            (match Option.bind (J.member "failed_ratio" metrics) (J.member "value") with
             | Some v when Option.value (J.to_float v) ~default:1.0 > 0.0 ->
               fail "%s: failed_ratio > 0" tag
             | _ -> ()))
        Workloads.all)
    [ false; true ];
  Printf.printf "smoke: %d workloads x {untraced, traced} in %.1f s\n"
    (List.length Workloads.all) (Setup.seconds_since t0);
  match List.rev !problems with
  | [] ->
    print_endline "smoke: ok";
    exit 0
  | ps ->
    List.iter (fun s -> Printf.printf "smoke: FAILED: %s\n" s) ps;
    exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                              *)

(* (workload, metric) -> values in file order; run failures by workload. *)
let load_side paths =
  let table = Hashtbl.create 64 and broken = ref [] in
  let add_result r =
    let w = Option.value (Option.bind (J.member "workload" r) J.to_str) ~default:"?" in
    if J.member "correct" r <> Some (J.Bool true) then broken := w :: !broken;
    match member "metrics" r with
    | J.Obj fields ->
      List.iter
        (fun (name, m) ->
          match Option.bind (J.member "value" m) J.to_float with
          | Some v ->
            let key = (w, name) in
            Hashtbl.replace table key (v :: Option.value (Hashtbl.find_opt table key) ~default:[])
          | None -> ())
        fields
    | _ -> ()
  in
  List.iter
    (fun path ->
      let v = read_json path in
      match member "workloads" v with J.List rs -> List.iter add_result rs | _ -> add_result v)
    paths;
  (table, !broken)

let compare_cmd base_paths new_paths =
  let base, base_broken = load_side base_paths and next, next_broken = load_side new_paths in
  let values t k = Array.of_list (List.rev (Option.value (Hashtbl.find_opt t k) ~default:[])) in
  let keys =
    List.sort_uniq compare
      (Hashtbl.fold (fun k _ acc -> k :: acc) base []
      @ Hashtbl.fold (fun k _ acc -> k :: acc) next [])
  in
  let bad = ref (base_broken <> [] || next_broken <> []) in
  List.iter (fun w -> Printf.printf "base run of %s failed its checks\n" w) base_broken;
  List.iter (fun w -> Printf.printf "new run of %s failed its checks\n" w) next_broken;
  Printf.printf "%-14s %-30s %-6s %32s %32s  %s\n" "workload" "metric" "unit"
    "base median [q1, q3]" "new median [q1, q3]" "verdict";
  List.iter
    (fun ((w, name) as k) ->
      match Spec.find name with
      | None -> ()
      | Some m ->
        let b = values base k and n = values next k in
        let side a =
          if Array.length a = 0 then "-"
          else begin
            let q1, med, q3 = Stats.quartiles a in
            Printf.sprintf "%.5g [%.5g, %.5g]" med q1 q3
          end
        in
        let v =
          match m.Spec.kind with
          | Spec.End_to_end -> Verdict.judge ~better:m.Spec.better ~bound:m.Spec.bound ~base:b ~next:n
          | Spec.Layer _ -> Verdict.Within
        in
        if v = Verdict.Worse || v = Verdict.Mismatch then bad := true;
        let verdict =
          match m.Spec.kind with Spec.Layer _ -> "(layer)" | Spec.End_to_end -> Verdict.name v
        in
        Printf.printf "%-14s %-30s %-6s %32s %32s  %s\n" w name m.Spec.unit (side b) (side n)
          verdict)
    keys;
  exit (if !bad then 1 else 0)

(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  match argv with
  | _ :: "compare" :: rest -> (
    let rec split acc = function
      | "--" :: tl -> Some (List.rev acc, tl)
      | x :: tl -> split (x :: acc) tl
      | [] -> None
    in
    match split [] rest with
    | Some ((_ :: _ as b), (_ :: _ as n)) -> (
      try compare_cmd b n with Failure m -> die_usage "%s" m)
    | _ -> die_usage "compare needs BASE.json... -- NEW.json...")
  | _ ->
    let workload = ref None and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
    let json = ref None and smoke_mode = ref false in
    let benchmark = ref "BENCHMARK.json" in
    let specs =
      [
        ("--workload", Arg.String (fun s -> workload := Some s), "W run one workload here");
        ("--seed", Arg.Set_int seed, "N traffic seed (default 1)");
        ("--seconds", Arg.Set_float seconds, "S measuring time per workload (default 15)");
        ("--trace", Arg.Set_int trace, "0|1 traced run: per-layer metrics");
        ("--json", Arg.String (fun s -> json := Some s), "OUT write the result as JSON");
        ("--smoke", Arg.Set smoke_mode, " every workload at 1/50 size, checked");
        ("--benchmark", Arg.Set_string benchmark, "FILE metric list for --smoke");
      ]
    in
    (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) ""
     with Arg.Bad m | Arg.Help m ->
       die_usage "%s" (List.hd (String.split_on_char '\n' m)));
    if !trace <> 0 && !trace <> 1 then die_usage "--trace takes 0 or 1";
    if not (!seconds > 0.0) then die_usage "--seconds must be positive";
    let p =
      { Workloads.seed = !seed; seconds = !seconds; trace = !trace = 1 }
    in
    if !smoke_mode then smoke ~p ~benchmark:!benchmark
    else
      match !workload with
      | Some w -> run_one ~workload:w ~p ~json:!json
      | None -> run_all ~p ~json:!json
