(* Lint fixture (R3): a threaded optional accepted but dropped on the
   way to a callee that takes it. *)
let callee ?obs x =
  ignore obs;
  x + 1

let forwards ?obs x = callee ?obs x

let drops ?obs x =
  ignore obs;
  callee x

let justified ?obs x =
  ignore obs;
  (* lint: no-thread — deliberate in this fixture *)
  callee x

(* Not a tracked label: a dropped [?aux_cache] is no R3 finding. *)
let cached ?aux_cache x =
  ignore aux_cache;
  x

let drops_cache ?aux_cache x =
  ignore aux_cache;
  cached x
