let has_prefix ~prefix s =
  let pl = String.length prefix in
  String.length s >= pl && String.sub s 0 pl = prefix

let determinism file =
  List.exists
    (fun d -> has_prefix ~prefix:(d ^ "/") file)
    [ "lib/graph"; "lib/wdm"; "lib/core"; "lib/sim"; "lib/util" ]

let hot_kernel file =
  List.mem file
    [ "lib/graph/dijkstra.ml"; "lib/graph/suurballe.ml"; "lib/wdm/layered.ml" ]

let book_only file =
  String.equal file "lib/sim/simulator.ml" || has_prefix ~prefix:"lib/serve/" file

let connection_resource_functions =
  [ "Semilightpath.allocate"; "Semilightpath.release"; "Types.allocate"
  ; "Types.release" ]

let optional_labels = [ "obs"; "workspace" ]

let probe_functions =
  [ "Obs.stop"; "Obs.add"; "Obs.gauge"; "Obs.observe_ns"; "Obs.span"
  ; "Obs.event" (* journal event names share the probe grammar/manifest *)
  ]

(* --- Domain-safety vocabulary (R6/R7/R8) ------------------------------- *)

let pool_map_functions = [ "Parallel.map" ]
let pool_run_functions = [ "Parallel.run" ]
let pool_spawn_functions = [ "Domain.spawn"; "Domain.spawn_with" ]
let slot_get_functions = [ "Parallel.get_state" ]
let slot_set_functions = [ "Parallel.set_state" ]

(* Type heads (as rendered by [Printtyp]/[Path.name] on the expanded
   type) whose module-level values are shared mutable state.  [lazy_t]
   is included: forcing from two domains races on the thunk. *)
let mutable_type_heads =
  [ "ref"; "Stdlib.ref"; "array"; "Hashtbl.t"; "Stdlib.Hashtbl.t"; "Queue.t"
  ; "Stdlib.Queue.t"; "Stack.t"; "Stdlib.Stack.t"; "Buffer.t"
  ; "Stdlib.Buffer.t"; "bytes"; "lazy_t" ]

(* Type heads whose mutation protocol is already domain-safe: atomics
   and the pool's own typed slots / handles. *)
let sanctioned_type_heads =
  [ "Atomic.t"; "Stdlib.Atomic.t"; "Parallel.slot"; "Parallel.t"
  ; "Mutex.t"; "Stdlib.Mutex.t" ]

(* Modules the call graph never descends into: stdlib/runtime modules
   whose bare names could otherwise capture unresolved functor-parameter
   prefixes in the unique-bare-name fallback. *)
let extern_modules =
  [ "Stdlib"; "Unix"; "Domain"; "Mutex"; "Condition"; "Sys"; "Filename"
  ; "Printexc"; "Gc"; "Atomic"; "Obj"; "Callback"; "Arg"; "Format"
  ; "Printf"; "Scanf"; "Random"; "Hashtbl"; "Map"; "Set"; "List"; "Array"
  ; "String"; "Bytes"; "Char"; "Int"; "Float"; "Option"; "Result"; "Seq"
  ; "Queue"; "Stack"; "Buffer"; "Lazy"; "Fun"; "Either"; "In_channel"
  ; "Out_channel" ]

(* External functions known to allocate, for R8.  Matched as suffixes of
   the fully-qualified resolved path ([Stdlib.List.rev], …), so the
   entries here use the canonical [Module.name] form. *)
let allocating_externs =
  [ "List.rev"; "List.map"; "List.mapi"; "List.rev_map"; "List.append"
  ; "List.concat"; "List.concat_map"; "List.filter"; "List.filter_map"
  ; "List.init"; "List.sort"; "List.sort_uniq"; "List.stable_sort"
  ; "List.of_seq"; "List.to_seq"; "List.cons"; "List.split"; "List.combine"
  ; "Array.make"; "Array.create_float"; "Array.init"; "Array.copy"
  ; "Array.sub"; "Array.append"; "Array.concat"; "Array.map"; "Array.mapi"
  ; "Array.to_list"; "Array.of_list"; "Array.make_matrix"
  ; "Hashtbl.create"; "Hashtbl.add"; "Hashtbl.replace"; "Hashtbl.copy"
  ; "Hashtbl.fold"; "Hashtbl.to_seq"
  ; "Bytes.make"; "Bytes.create"; "Bytes.init"; "Bytes.copy"; "Bytes.sub"
  ; "Bytes.of_string"; "Bytes.to_string"; "Bytes.cat"
  ; "String.make"; "String.init"; "String.sub"; "String.concat"
  ; "String.cat"; "String.map"; "String.split_on_char"; "String.of_seq"
  ; "Printf.sprintf"; "Printf.printf"; "Printf.eprintf"; "Printf.fprintf"
  ; "Format.sprintf"; "Format.asprintf"
  ; "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes"
  ; "Queue.create"; "Queue.push"; "Queue.add"; "Stack.create"; "Stack.push"
  ; "Stdlib.ref"; "Stdlib.^"; "Stdlib.@"; "Stdlib.^^"
  ; "Option.some"; "Option.map"; "Option.bind"; "Option.to_list"
  ; "Result.ok"; "Result.error"; "Result.map"; "Result.bind"
  ; "Seq.map"; "Seq.filter"; "Seq.cons"; "Seq.append"; "Seq.of_list"
  ; "Lazy.from_fun"; "Lazy.from_val"
  ; "Sys.time"; "Filename.concat"; "Digest.string"; "Digest.to_hex"
  ; "Marshal.to_string"; "Marshal.to_bytes" ]
