open Typedtree

(* ------------------------------------------------------------------ *)
(* Type inspection                                                      *)

let rec head ty =
  match Types.get_desc ty with Tpoly (t, _) -> head t | d -> d

(* Run-time-immediate builtins; a [compare] instantiated at one of these
   cannot observe representation differences.  Abbreviations to [int]
   cannot be expanded without a full typing environment, so an aliased
   immediate is (conservatively) reported and belongs in the baseline. *)
let immediate ty =
  match head ty with
  | Types.Tconstr (p, _, _) ->
    List.mem (Path.name p) [ "int"; "bool"; "char"; "unit" ]
  | _ -> false

let is_tyvar ty =
  match head ty with Types.Tvar _ | Types.Tunivar _ -> true | _ -> false

let is_float ty =
  match head ty with
  | Types.Tconstr (p, _, _) -> Path.name p = "float"
  | _ -> false

let is_arrow ty = match head ty with Types.Tarrow _ -> true | _ -> false

let first_arg ty =
  match head ty with Types.Tarrow (_, a, _, _) -> Some a | _ -> None

let rec accepts_optional ty l =
  match head ty with
  | Types.Tarrow (Asttypes.Optional l', _, _, _) when String.equal l' l -> true
  | Types.Tarrow (_, _, rest, _) -> accepts_optional rest l
  | _ -> false

let pp_type ty = Format.asprintf "%a" Printtyp.type_expr ty

(* Resolved-path names: [Path.name] renders [Stdlib.List.mem] for the
   stdlib and [Obs.stop] through a [module Obs = Rr_obs.Obs] alias. *)
let path_suffix name suffix =
  let nl = String.length name and sl = String.length suffix in
  nl >= sl
  && String.sub name (nl - sl) sl = suffix
  && (nl = sl || name.[nl - sl - 1] = '.')

(* Every variable bound by a pattern, across pattern categories. *)
let rec pat_vars : type k. k general_pattern -> Ident.t list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, _) -> [ id ]
  | Tpat_alias (q, id, _) -> id :: pat_vars q
  | Tpat_tuple ps -> List.concat_map pat_vars ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_vars ps
  | Tpat_variant (_, Some q, _) -> pat_vars q
  | Tpat_record (fields, _) -> List.concat_map (fun (_, _, q) -> pat_vars q) fields
  | Tpat_array ps -> List.concat_map pat_vars ps
  | Tpat_lazy q -> pat_vars q
  | Tpat_or (a, b, _) -> pat_vars a @ pat_vars b
  | Tpat_value v -> pat_vars (v :> value general_pattern)
  | _ -> []

(* [let x = e] is [Tpat_var]; a constrained [let x : t = e] typechecks as
   [Tpat_alias] of the constraint pattern. *)
let binding_ident (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | _ -> None

(* The parameter spine of a binding: the chain of single-parameter
   [Texp_function] nodes that *are* the function, as opposed to closures
   its body allocates.  Physical identity is the membership test. *)
let compute_spine e =
  let rec go (e : expression) acc =
    match e.exp_desc with
    | Texp_function { cases; _ } -> (
      let acc = e :: acc in
      match cases with [ { c_rhs; _ } ] -> go c_rhs acc | _ -> acc)
    | _ -> acc
  in
  go e []

(* Calls whose whole subtree is an error path: allocation there is
   exempt from R8 (raising already abandons the hot path). *)
let error_call_names =
  [ "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.failwith"
  ; "Stdlib.invalid_arg" ]

(* Mutating operations: [target := v], [arr.(i) <- v], … — the first
   positional argument is the mutated structure, the last is the stored
   value.  Matched as suffixes of the fully-qualified callee path. *)
let mutator_suffixes =
  [ ":="; "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit"
  ; "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Bytes.set"
  ; "Bytes.unsafe_set"; "Queue.push"; "Queue.add"; "Stack.push"
  ; "Buffer.add_string"; "Buffer.add_char" ]

(* ------------------------------------------------------------------ *)
(* Scan                                                                 *)

let scan ~source_info ~manifest ~rules ~file cmt =
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
    let findings = ref [] in
    let probes = ref [] in
    let local_exns : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let opt_stack = ref [] in
    let determinism = Scope.determinism file in
    let hot = Scope.hot_kernel file in
    let book_only = Scope.book_only file in
    let emit rule (loc : Location.t) fmt =
      Printf.ksprintf
        (fun msg ->
          if List.mem rule rules then
            findings :=
              Finding.v ~file ~line:loc.loc_start.pos_lnum
                ~col:(loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
                rule msg
              :: !findings)
        fmt
    in
    let justified (loc : Location.t) tag =
      Source_info.justified source_info ~file ~line:loc.loc_start.pos_lnum ~tag
    in
    let mli_declares name = Source_info.mli_declares source_info ~ml_file:file name in
    (* ---------------- interprocedural summary state ---------------- *)
    let module_name =
      String.capitalize_ascii
        (Filename.remove_extension (Filename.basename file))
    in
    let module_stack = ref [ module_name ] in
    let aliases : (string, string) Hashtbl.t = Hashtbl.create 8 in
    let top_idents : (Ident.t * string) list ref = ref [] in
    let fns : Callgraph.fn list ref = ref [] in
    let roots : string list ref = ref [] in
    let current_fn : Callgraph.fn option ref = ref None in
    let spine : expression list ref = ref [] in
    let expr_depth = ref 0 in
    let error_depth = ref 0 in
    let local_funs : (Ident.t * expression) list ref = ref [] in
    let tainted : Ident.t list ref = ref [] in
    let wvisiting : Ident.t list ref = ref [] in
    let is_tainted_id id = List.exists (Ident.same id) !tainted in
    let expand_alias full =
      match String.index_opt full '.' with
      | None -> full
      | Some i -> (
        match Hashtbl.find_opt aliases (String.sub full 0 i) with
        | Some repl -> repl ^ String.sub full i (String.length full - i)
        | None -> full)
    in
    (* [Some (candidate, extern?)] for references the graph cares about:
       module-qualified paths, and bare idents bound at the top level of
       this module (qualified with the module's own name). *)
    let project_candidate (p : Path.t) =
      match p with
      | Path.Pident id -> (
        match List.find_opt (fun (i, _) -> Ident.same i id) !top_idents with
        | Some (_, key) -> Some (key, false)
        | None -> None)
      | _ ->
        let full = expand_alias (Path.name p) in
        let extern =
          match String.index_opt full '.' with
          | None -> true
          | Some i ->
            List.mem
              (Callgraph.demangle (String.sub full 0 i))
              Scope.extern_modules
        in
        Some (Callgraph.normalize full, extern)
    in
    let is_module_level (p : Path.t) =
      match p with
      | Path.Pident id -> List.exists (fun (i, _) -> Ident.same i id) !top_idents
      | Path.Pdot _ -> true
      | _ -> false
    in
    let display_of_path p =
      match project_candidate p with
      | Some (cand, _) -> cand
      | None -> Callgraph.normalize (expand_alias (Path.name p))
    in
    let r6_message display thead =
      Printf.sprintf
        "module-level mutable '%s' (%s) accessed in worker-domain scope; \
         mediate with Atomic or a pool slot, or justify with (* lint: \
         domain-safe <reason> *)"
        display thead
    in
    let type_head_name ty =
      match head ty with
      | Types.Tconstr (tp, _, _) -> Some (Path.name tp)
      | _ -> None
    in
    (* A touch of module-level mutable state: [Some message] unless the
       value is local, its type is sanctioned, or the site carries a
       [domain-safe] justification. *)
    let r6_touch (e : expression) p =
      if not (is_module_level p) then None
      else
        match type_head_name e.exp_type with
        | None -> None
        | Some tname ->
          let tnorm = Callgraph.normalize tname in
          let mem l = List.mem tnorm l || List.mem tname l in
          if mem Scope.sanctioned_type_heads then None
          else if not (mem Scope.mutable_type_heads) then None
          else if justified e.exp_loc "domain-safe" then None
          else Some (r6_message (display_of_path p) tnorm)
    in
    let r6_touch_setfield (e : expression) (r : expression) lbl_name =
      match r.exp_desc with
      | Texp_ident (p, _, _) when is_module_level p ->
        let sanctioned =
          match type_head_name r.exp_type with
          | Some tname ->
            List.mem (Callgraph.normalize tname) Scope.sanctioned_type_heads
            || List.mem tname Scope.sanctioned_type_heads
          | None -> false
        in
        if sanctioned || justified e.exp_loc "domain-safe" then None
        else
          Some (r6_message (display_of_path p ^ "." ^ lbl_name) "mutable field")
      | _ -> None
    in
    let record_r6 (loc : Location.t) = function
      | None -> ()
      | Some msg -> (
        match !current_fn with
        | None -> ()
        | Some fn ->
          fn.fn_r6 <-
            {
              Callgraph.r6_line = loc.loc_start.pos_lnum;
              r6_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
              r6_message = msg;
            }
            :: fn.fn_r6)
    in
    let record_alloc_site (loc : Location.t) what =
      match !current_fn with
      | None -> ()
      | Some fn ->
        if !error_depth = 0 then
          fn.fn_allocs <-
            {
              Callgraph.al_line = loc.loc_start.pos_lnum;
              al_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
              al_what = what;
            }
            :: fn.fn_allocs
    in
    (* Edges, extern-allocation sites, and mutable-global facts for the
       enclosing top-level binding. *)
    let record_ident (e : expression) p =
      (match !current_fn with
       | None -> ()
       | Some fn -> (
         match project_candidate p with
         | Some (cand, false) ->
           if not (List.mem cand fn.fn_edges) then
             fn.fn_edges <- cand :: fn.fn_edges
         | Some (_, true) ->
           let full = expand_alias (Path.name p) in
           if List.exists (path_suffix full) Scope.allocating_externs then
             record_alloc_site e.exp_loc
               ("call to allocating " ^ Callgraph.normalize full)
         | None -> ()));
      record_r6 e.exp_loc (r6_touch e p)
    in
    (* ---------------- worker-scope walk (R6 immediate + R7) --------- *)
    let taint_case first c =
      if first then
        List.iter (fun id -> tainted := id :: !tainted) (pat_vars c.c_lhs)
    in
    let rec wwalk ~tail ~ret (e : expression) =
      (* R7 — a tainted value in tail position of the mapped function is
         the slot state leaving its worker. *)
      (match e.exp_desc with
       | Texp_let _ | Texp_sequence _ | Texp_ifthenelse _ | Texp_match _
       | Texp_try _ | Texp_function _ -> ()
       | _ ->
         if tail && ret && tainted_expr e then
           emit Finding.R7 e.exp_loc
             "pool-slot value returned from the worker closure escapes its \
              domain; copy the payload out instead of the slot state");
      match e.exp_desc with
      | Texp_let (_, vbs, body) ->
        List.iter (fun vb -> wwalk ~tail:false ~ret vb.vb_expr) vbs;
        List.iter
          (fun vb ->
            if tainted_expr vb.vb_expr then
              List.iter
                (fun id -> tainted := id :: !tainted)
                (pat_vars vb.vb_pat))
          vbs;
        wwalk ~tail ~ret body
      | Texp_sequence (a, b) ->
        wwalk ~tail:false ~ret a;
        wwalk ~tail ~ret b
      | Texp_ifthenelse (c, a, b) ->
        wwalk ~tail:false ~ret c;
        wwalk ~tail ~ret a;
        Option.iter (wwalk ~tail ~ret) b
      | Texp_match (s, cases, _) ->
        wwalk ~tail:false ~ret s;
        let t = tainted_expr s in
        List.iter
          (fun c ->
            if t then
              List.iter (fun id -> tainted := id :: !tainted) (pat_vars c.c_lhs);
            Option.iter (wwalk ~tail:false ~ret:false) c.c_guard;
            wwalk ~tail ~ret c.c_rhs)
          cases
      | Texp_try (b, cases) ->
        wwalk ~tail:false ~ret b;
        List.iter (fun c -> wwalk ~tail ~ret c.c_rhs) cases
      | Texp_function _ ->
        if tail && ret then check_closure_capture e;
        wchildren e
      | Texp_ident (p, _, _) -> worker_ident e p
      | Texp_apply (f, args) -> worker_apply e f args
      | Texp_setfield (r, _, ld, v) ->
        (match r6_touch_setfield e r ld.Types.lbl_name with
         | Some msg -> emit Finding.R6 e.exp_loc "%s" msg
         | None -> ());
        (match r.exp_desc with
         | Texp_ident (p, _, _) when is_module_level p && tainted_expr v ->
           emit Finding.R7 e.exp_loc
             "pool-slot value stored into module-level '%s' escapes its \
              worker; slot state must stay domain-local (use \
              Parallel.set_state)"
             (display_of_path p)
         | _ -> ());
        wwalk ~tail:false ~ret:false r;
        wwalk ~tail:false ~ret:false v
      | _ -> wchildren e
    and wchildren (e : expression) =
      let shim =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ c -> wwalk ~tail:false ~ret:false c);
        }
      in
      Tast_iterator.default_iterator.expr shim e
    and tainted_expr (e : expression) =
      match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> is_tainted_id id
      | Texp_field (b, _, _) -> tainted_expr b
      | Texp_apply (f, _) -> (
        match f.exp_desc with
        | Texp_ident (p, _, _) -> (
          match project_candidate p with
          | Some (cand, _) -> List.mem cand Scope.slot_get_functions
          | None -> false)
        | _ -> false)
      | Texp_tuple es -> List.exists tainted_expr es
      | Texp_construct (_, _, es) -> List.exists tainted_expr es
      | Texp_record { fields; extended_expression; _ } ->
        Array.exists
          (fun (_, def) ->
            match def with
            | Overridden (_, e) -> tainted_expr e
            | Kept _ -> false)
          fields
        || (match extended_expression with
            | Some e -> tainted_expr e
            | None -> false)
      | Texp_let (_, _, b) -> tainted_expr b
      | Texp_sequence (_, b) -> tainted_expr b
      | Texp_ifthenelse (_, a, Some b) -> tainted_expr a || tainted_expr b
      | Texp_ifthenelse (_, a, None) -> tainted_expr a
      | Texp_match (_, cases, _) ->
        List.exists (fun c -> tainted_expr c.c_rhs) cases
      | _ -> false
    and worker_ident (e : expression) p =
      (match project_candidate p with
       | Some (cand, false) -> roots := cand :: !roots
       | _ -> ());
      (match r6_touch e p with
       | Some msg -> emit Finding.R6 e.exp_loc "%s" msg
       | None -> ());
      match p with
      | Path.Pident id
        when not (List.exists (fun (i, _) -> Ident.same i id) !top_idents) -> (
        match List.find_opt (fun (i, _) -> Ident.same i id) !local_funs with
        | Some (_, body) when not (List.exists (Ident.same id) !wvisiting) ->
          (* A local function referenced from worker scope runs on the
             worker: inline its body into the walk. *)
          wvisiting := id :: !wvisiting;
          wwalk ~tail:false ~ret:false body;
          wvisiting := List.tl !wvisiting
        | _ -> ())
      | _ -> ()
    and worker_apply (e : expression) (f : expression) args =
      (match f.exp_desc with
       | Texp_ident (p, _, _) ->
         let full = expand_alias (Path.name p) in
         if List.exists (path_suffix full) mutator_suffixes then begin
           let positional =
             List.filter_map
               (fun (l, a) ->
                 match (l, a) with
                 | Asttypes.Nolabel, Some (a : expression) -> Some a
                 | _ -> None)
               args
           in
           match positional with
           | target :: (_ :: _ as rest) -> (
             let value = List.nth rest (List.length rest - 1) in
             match target.exp_desc with
             | Texp_ident (tp, _, _)
               when is_module_level tp && tainted_expr value ->
               emit Finding.R7 e.exp_loc
                 "pool-slot value stored into module-level '%s' escapes its \
                  worker; slot state must stay domain-local (use \
                  Parallel.set_state)"
                 (display_of_path tp)
             | _ -> ())
           | _ -> ()
         end
       | _ -> ());
      wwalk ~tail:false ~ret:false f;
      List.iter
        (fun (_, a) -> Option.iter (wwalk ~tail:false ~ret:false) a)
        args
    and check_closure_capture (e : expression) =
      let found = ref None in
      let shim =
        {
          Tast_iterator.default_iterator with
          expr =
            (fun it (c : expression) ->
              (match c.exp_desc with
               | Texp_ident (Path.Pident id, _, _)
                 when is_tainted_id id && Option.is_none !found ->
                 found := Some (c.exp_loc, Ident.name id)
               | _ -> ());
              Tast_iterator.default_iterator.expr it c);
        }
      in
      shim.expr shim e;
      match !found with
      | Some (loc, name) ->
        emit Finding.R7 loc
          "pool-slot value '%s' captured by a closure returned from the \
           worker escapes its domain; copy the payload out instead"
          name
      | None -> ()
    in
    (* Entry: peel exactly the parameters the pool applies ([~f] gets
       (state, item); everything else one argument) so a closure built
       *past* the spine is a returned value, not a parameter. *)
    let walk_worker ~taint_param ~ret_sink ~peel (a : expression) =
      let rec go k first (e : expression) =
        if k = 0 then wwalk ~tail:true ~ret:ret_sink e
        else
          match e.exp_desc with
          | Texp_function { cases; _ } ->
            List.iter
              (fun c ->
                if taint_param then taint_case first c;
                Option.iter (wwalk ~tail:false ~ret:false) c.c_guard;
                go (k - 1) false c.c_rhs)
              cases
          | _ ->
            (* Not syntactically a closure (an ident, a partial
               application): its references are still worker roots. *)
            wwalk ~tail:false ~ret:false e
      in
      go peel true a
    in
    let record_apply (_e : expression) (f : expression) args =
      match f.exp_desc with
      | Texp_ident (p, _, _) -> (
        match project_candidate p with
        | None -> ()
        | Some (cand, _) ->
          if List.mem cand Scope.pool_map_functions then
            List.iter
              (fun (lbl, arg) ->
                match (lbl, arg) with
                | Asttypes.Labelled "worker", Some (a : expression) ->
                  walk_worker ~taint_param:false ~ret_sink:false ~peel:1 a
                | Asttypes.Labelled "f", Some a ->
                  walk_worker ~taint_param:true ~ret_sink:true ~peel:2 a
                | _ -> ())
              args
          else if
            List.mem cand Scope.pool_run_functions
            || List.mem cand Scope.pool_spawn_functions
          then begin
            let positional =
              List.filter_map
                (fun (l, a) ->
                  match (l, a) with
                  | Asttypes.Nolabel, Some (a : expression) -> Some a
                  | _ -> None)
                args
            in
            match List.rev positional with
            | a :: _ ->
              walk_worker ~taint_param:false
                ~ret_sink:(List.mem cand Scope.pool_run_functions)
                ~peel:1 a
            | [] -> ()
          end)
      | _ -> ()
    in
    (* ---------------- the intraprocedural rules --------------------- *)
    (* R1 — polymorphic structural comparison on boxed values: iteration
       or representation details leak into routing decisions. *)
    let check_poly_compare loc what ty =
      match first_arg ty with
      | None -> ()
      | Some a ->
        if not (immediate a || is_tyvar a) then
          if is_float a && hot && (what = "=" || what = "<>") then
            () (* reported once, by R5, as a float-equality finding *)
          else
            emit Finding.R1 loc
              "polymorphic %s on %s; use a monomorphic %s" what (pp_type a)
              (if what = "compare" then "compare (Int.compare, Float.compare, ...)"
               else "equality (Int.equal, String.equal, a pattern match, ...)")
    in
    let check_ident (e : expression) p =
      let name = Path.name p in
      (if determinism then
         match name with
         | "Stdlib.compare" -> check_poly_compare e.exp_loc "compare" e.exp_type
         | "Stdlib.=" -> check_poly_compare e.exp_loc "=" e.exp_type
         | "Stdlib.<>" -> check_poly_compare e.exp_loc "<>" e.exp_type
         | "Stdlib.Hashtbl.hash" -> (
           match first_arg e.exp_type with
           | Some a when not (immediate a || is_tyvar a) ->
             emit Finding.R1 e.exp_loc
               "polymorphic Hashtbl.hash on %s; hash an explicit immediate key"
               (pp_type a)
           | _ -> ())
         | "Stdlib.List.mem" ->
           (* Banned outright: it compares with polymorphic equality and
              scans linearly, both hazards on a decision path. *)
           emit Finding.R1 e.exp_loc
             "List.mem uses polymorphic equality; use explicit int-keyed \
              membership (Bitset, an int-keyed Hashtbl, or List.exists with \
              a monomorphic equality)"
         | "Stdlib.Hashtbl.iter" | "Stdlib.Hashtbl.fold" ->
           if not (justified e.exp_loc "ordered") then
             emit Finding.R2 e.exp_loc
               "%s iterates in unspecified hash order; build from a sorted \
                key list, or justify an order-insensitive use with (* lint: \
                ordered *)"
               (Filename.extension name |> fun s ->
                "Hashtbl" ^ s)
         | _ -> ());
      if hot then
        match name with
        | "Stdlib.failwith" ->
          if not (mli_declares "Failure") then
            emit Finding.R5 e.exp_loc
              "failwith in a hot kernel; return an option/result or declare \
               Failure in the .mli doc"
        | "Stdlib.invalid_arg" ->
          if not (mli_declares "Invalid_argument") then
            emit Finding.R5 e.exp_loc
              "invalid_arg in a hot kernel without Invalid_argument declared \
               in the .mli doc"
        | "Stdlib.=" | "Stdlib.<>" -> (
          match first_arg e.exp_type with
          | Some a when is_float a ->
            if not (justified e.exp_loc "float-eq") then
              emit Finding.R5 e.exp_loc
                "float %s in a hot kernel; compare against a sentinel with \
                 (* lint: float-eq *) justification or restructure"
                (if name = "Stdlib.=" then "=" else "<>")
          | _ -> ())
        | _ -> ()
    in
    (* R9 — a connection's wavelengths are the book's alone: its owners
       never allocate or release a path themselves.  The path is resolved
       (module aliases expanded), so [Slp.release] is caught. *)
    let check_book (e : expression) p =
      if book_only then
        let callee = display_of_path p in
        if List.mem callee Scope.connection_resource_functions then
          emit Finding.R9 e.exp_loc
            "%s outside the connection book; record, release, evict or \
             restore the connection through Robust_routing.Connections"
            callee
    in
    let callee_name (f : expression) =
      match f.exp_desc with
      | Texp_ident (p, _, _) -> Path.name p
      | _ -> "<function>"
    in
    let rec probe_literals (e : expression) =
      match e.exp_desc with
      | Texp_constant (Asttypes.Const_string (s, _, _)) -> [ s ]
      | Texp_ifthenelse (_, a, Some b) -> probe_literals a @ probe_literals b
      | Texp_ifthenelse (_, a, None) -> probe_literals a
      | Texp_sequence (_, b) -> probe_literals b
      | Texp_match (_, cases, _) ->
        List.concat_map (fun c -> probe_literals c.c_rhs) cases
      | _ -> []
    in
    let check_apply (e : expression) (f : expression) args =
      (* R3 — a function that accepts a threaded optional must pass it on
         to every callee that accepts the same optional.  A dropped
         optional shows up as a compiler-inserted ghost [None]; a partial
         application that still expects it is left alone. *)
      List.iter
        (fun l ->
          if accepts_optional f.exp_type l then begin
            let supplied =
              List.exists
                (fun (lbl, arg) ->
                  lbl = Asttypes.Optional l
                  &&
                  match arg with
                  | Some (a : expression) -> not a.exp_loc.Location.loc_ghost
                  | None -> false)
                args
            in
            let still_pending = accepts_optional e.exp_type l in
            if (not supplied) && (not still_pending)
               && not (justified e.exp_loc "no-thread")
            then
              emit Finding.R3 e.exp_loc
                "?%s is in scope but not forwarded to %s (which accepts ?%s); \
                 pass ?%s or justify with (* lint: no-thread *)"
                l (callee_name f) l l
          end)
        (List.sort_uniq String.compare !opt_stack);
      (* R4 — probe-name literals. *)
      (match f.exp_desc with
       | Texp_ident (p, _, _)
         when List.exists (path_suffix (Path.name p)) Scope.probe_functions -> (
         let positional =
           List.filter_map
             (fun (lbl, arg) ->
               match (lbl, arg) with
               | Asttypes.Nolabel, Some a -> Some a
               | _ -> None)
             args
         in
         match positional with
         | _ :: name_arg :: _ -> (
           match probe_literals name_arg with
           | [] ->
             emit Finding.R4 name_arg.exp_loc
               "probe name passed to %s is not a static string literal"
               (Path.name p)
           | lits ->
             List.iter
               (fun lit ->
                 probes := lit :: !probes;
                 if not (Probes.grammar_ok lit) then
                   emit Finding.R4 name_arg.exp_loc
                     "probe name %S violates the obs.mli naming grammar \
                      (lowercase dot-separated segments, 2-4 deep)"
                     lit
                 else
                   match manifest with
                   | Some m when not (Probes.registered m lit) ->
                     emit Finding.R4 name_arg.exp_loc
                       "probe name %S is not registered in the probe \
                        manifest; regenerate it with --emit-manifest"
                       lit
                   | _ -> ())
               lits)
         | _ -> ())
       | _ -> ());
      (* R5 — raising a non-local, undeclared exception in a hot kernel. *)
      if hot then
        match callee_name f with
        | "Stdlib.raise" | "Stdlib.raise_notrace" -> (
          match
            List.filter_map
              (fun (lbl, arg) ->
                match (lbl, arg) with
                | Asttypes.Nolabel, Some a -> Some a
                | _ -> None)
              args
          with
          | { exp_desc = Texp_construct (_, cstr, _); _ } :: _ ->
            let exn = cstr.Types.cstr_name in
            if
              not (Hashtbl.mem local_exns exn)
              && not (mli_declares exn)
            then
              emit Finding.R5 e.exp_loc
                "raise %s in a hot kernel; the exception is neither local \
                 nor declared in the .mli doc"
                exn
          | _ -> () (* re-raise of a caught exception value *))
        | _ -> ()
    in
    (* ---------------- the traversal --------------------------------- *)
    let default = Tast_iterator.default_iterator in
    let record_alloc (e : expression) =
      if Option.is_some !current_fn then
        let what =
          match e.exp_desc with
          | Texp_function _ when not (List.memq e !spine) -> Some "closure"
          | Texp_tuple _ -> Some "tuple construction"
          | Texp_construct (_, cstr, _ :: _) ->
            Some (cstr.Types.cstr_name ^ " construction")
          | Texp_record _ -> Some "record construction"
          | Texp_variant (_, Some _) -> Some "polymorphic variant construction"
          | Texp_array (_ :: _) -> Some "array literal"
          | Texp_lazy _ -> Some "lazy thunk"
          | Texp_pack _ -> Some "first-class module"
          | Texp_apply _ when is_arrow e.exp_type -> Some "partial application"
          | _ -> None
        in
        match what with
        | Some w -> record_alloc_site e.exp_loc w
        | None -> ()
    in
    let expr it (e : expression) =
      (match e.exp_desc with
       | Texp_ident (p, _, _) ->
         check_ident e p;
         check_book e p;
         record_ident e p
       | Texp_apply (f, args) ->
         check_apply e f args;
         record_apply e f args
       | Texp_letexception (ext, _) ->
         Hashtbl.replace local_exns (Ident.name ext.ext_id) ()
       | Texp_setfield (r, _, ld, _) ->
         record_r6 e.exp_loc (r6_touch_setfield e r ld.Types.lbl_name)
       | Texp_let (_, vbs, _) ->
         List.iter
           (fun vb ->
             match (binding_ident vb.vb_pat, vb.vb_expr.exp_desc) with
             | Some id, Texp_function _ ->
               local_funs := (id, vb.vb_expr) :: !local_funs
             | _ -> ())
           vbs
       | _ -> ());
      record_alloc e;
      match e.exp_desc with
      | Texp_function { arg_label = Asttypes.Optional l; _ }
        when List.mem l Scope.optional_labels ->
        opt_stack := l :: !opt_stack;
        default.expr it e;
        opt_stack := List.tl !opt_stack
      | Texp_apply (f, _) when List.mem (callee_name f) error_call_names ->
        incr error_depth;
        default.expr it e;
        decr error_depth
      | Texp_assert _ ->
        incr error_depth;
        default.expr it e;
        decr error_depth
      | _ -> default.expr it e
    in
    let rec alias_target (me : module_expr) =
      match me.mod_desc with
      | Tmod_ident (p, _) -> Some p
      | Tmod_constraint (m, _, _, _) -> alias_target m
      | _ -> None
    in
    let module_binding it mb =
      let name =
        match mb.mb_name.Location.txt with Some n -> Some n | None -> None
      in
      (match (name, alias_target mb.mb_expr) with
       | Some n, Some p ->
         (* [module N = Long.Path] — expand [N.x] references through it. *)
         let target =
           match List.rev (String.split_on_char '.' (Path.name p)) with
           | last :: _ -> Callgraph.demangle last
           | [] -> n
         in
         Hashtbl.replace aliases n target
       | _ -> ());
      match name with
      | Some n when !expr_depth = 0 ->
        module_stack := n :: !module_stack;
        default.module_binding it mb;
        module_stack := List.tl !module_stack
      | _ -> default.module_binding it mb
    in
    let structure_item (it : Tast_iterator.iterator) si =
      (match si.str_desc with
       | Tstr_exception te ->
         Hashtbl.replace local_exns (Ident.name te.tyexn_constructor.ext_id) ()
       | _ -> ());
      match si.str_desc with
      | Tstr_value (_, vbs) when !expr_depth = 0 ->
        (* Register every bound name first so [let rec … and …] chains
           resolve sibling references as project edges. *)
        let bound =
          List.map
            (fun vb ->
              match binding_ident vb.vb_pat with
              | Some id ->
                let key =
                  (match !module_stack with m :: _ -> m | [] -> module_name)
                  ^ "." ^ Ident.name id
                in
                let loc = vb.vb_loc in
                let fn =
                  Callgraph.mk_fn ~key ~file ~line:loc.Location.loc_start.pos_lnum
                    ~col:
                      (loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
                in
                if
                  Source_info.justified source_info ~file
                    ~line:loc.loc_start.pos_lnum ~tag:"no-alloc"
                then fn.Callgraph.fn_no_alloc <- true;
                if compute_spine vb.vb_expr <> [] then
                  fn.Callgraph.fn_is_fun <- true;
                top_idents := (id, key) :: !top_idents;
                fns := fn :: !fns;
                (vb, Some fn)
              | None -> (vb, None))
            vbs
        in
        List.iter
          (fun (vb, fn) ->
            current_fn := fn;
            spine := compute_spine vb.vb_expr;
            incr expr_depth;
            it.expr it vb.vb_expr;
            decr expr_depth;
            spine := [];
            current_fn := None)
          bound
      | _ -> default.structure_item it si
    in
    let it = { default with expr; structure_item; module_binding } in
    it.structure it str;
    let summary =
      {
        Callgraph.fs_file = file;
        fs_fns = List.rev !fns;
        fs_roots = List.sort_uniq String.compare !roots;
      }
    in
    (List.rev !findings, List.rev !probes, summary)
  | _ -> ([], [], Callgraph.empty_summary file)
