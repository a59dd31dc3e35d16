type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"

let rule_of_string = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | _ -> None

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9 ]

let rule_summary = function
  | R1 -> "polymorphic compare/equality in determinism scope"
  | R2 -> "unordered Hashtbl.iter/fold in determinism scope"
  | R3 -> "ghost-None: threaded optional label dropped at a call site"
  | R4 -> "probe name literal outside the checked grammar/manifest"
  | R5 -> "hot-kernel raise or float equality on the per-request path"
  | R6 -> "module-level mutable state touched in worker-domain scope"
  | R7 -> "pool-slot value escaping its worker domain"
  | R8 -> "allocation reachable from a (* lint: no-alloc *) hot path"
  | R9 -> "connection resources allocated or released outside the connection book"

type t = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

let v ~file ~line ~col rule message = { file; line; col; rule; message }

let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare (rule_id a.rule) (rule_id b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let to_string t =
  Printf.sprintf "%s:%d:%d [%s] %s" t.file t.line t.col (rule_id t.rule)
    t.message

let baseline_key t = Printf.sprintf "%s [%s] %s" t.file (rule_id t.rule) t.message
