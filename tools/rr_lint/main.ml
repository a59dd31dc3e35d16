(* rr_lint: project-specific static analysis over the typed ASTs.
   See lib/lint and the "Static analysis" section of the README.

   Flags are parsed by hand so that every misuse exits with code 2 and a
   single usage line, matching the `rr check` / bench CLI contract. *)

let usage () =
  prerr_endline
    "usage: rr_lint [--root DIR] [--baseline FILE] [--manifest FILE]\n\
    \               [--rules R1,R2,...] [--only RULE] [--json] [--untyped]\n\
    \               [--emit-manifest] [--emit-rules] [--update-baseline]\n\
    \               [--verbose] DIR...\n\
     rules: R1 poly-compare  R2 hashtbl-order  R3 optional-threading\n\
    \       R4 probe-names   R5 hot-path-purity R6 worker-mutable-state\n\
    \       R7 slot-escape   R8 no-alloc-paths  R9 one-connection-book\n\
    \       (list: --emit-rules)"

let die msg =
  Printf.eprintf "rr_lint: %s\n" msg;
  usage ();
  exit 2

let () =
  let cfg = ref Rr_lint.Driver.default in
  let dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--root" :: v :: rest ->
      cfg := { !cfg with Rr_lint.Driver.root = v };
      parse rest
    | "--baseline" :: v :: rest ->
      cfg := { !cfg with Rr_lint.Driver.baseline = Some v };
      parse rest
    | "--manifest" :: v :: rest ->
      cfg := { !cfg with Rr_lint.Driver.manifest_path = Some v };
      parse rest
    | "--rules" :: v :: rest ->
      let rules =
        List.map
          (fun r ->
            match Rr_lint.Finding.rule_of_string (String.trim r) with
            | Some rule -> rule
            | None -> die (Printf.sprintf "unknown rule %S" r))
          (String.split_on_char ',' v)
      in
      if rules = [] then die "--rules expects at least one rule";
      cfg := { !cfg with Rr_lint.Driver.rules = rules };
      parse rest
    | "--only" :: v :: rest ->
      (* Single-rule runs for triage: `--only R6`.  Equivalent to
         --rules R6, kept separate so it cannot be combined by accident
         with a list that silently re-enables other rules. *)
      (match Rr_lint.Finding.rule_of_string (String.trim v) with
       | Some rule -> cfg := { !cfg with Rr_lint.Driver.rules = [ rule ] }
       | None -> die (Printf.sprintf "unknown rule %S" v));
      parse rest
    | "--json" :: rest ->
      cfg := { !cfg with Rr_lint.Driver.json = true };
      parse rest
    | "--untyped" :: rest ->
      cfg := { !cfg with Rr_lint.Driver.force_untyped = true };
      parse rest
    | "--emit-manifest" :: rest ->
      cfg := { !cfg with Rr_lint.Driver.emit_manifest = true };
      parse rest
    | "--emit-rules" :: rest ->
      cfg := { !cfg with Rr_lint.Driver.emit_rules = true };
      parse rest
    | "--update-baseline" :: rest ->
      cfg := { !cfg with Rr_lint.Driver.update_baseline = true };
      parse rest
    | "--verbose" :: rest ->
      cfg := { !cfg with Rr_lint.Driver.verbose = true };
      parse rest
    | ("--root" | "--baseline" | "--manifest" | "--rules" | "--only") :: [] ->
      die "flag expects a value"
    | flag :: _ when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      die (Printf.sprintf "unknown flag %S" flag)
    | dir :: rest ->
      dirs := dir :: !dirs;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !dirs = [] && not !cfg.Rr_lint.Driver.emit_rules then
    die "no directories to lint";
  let code =
    Rr_lint.Driver.run { !cfg with Rr_lint.Driver.dirs = List.rev !dirs }
  in
  exit code
