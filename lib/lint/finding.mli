(** A single diagnostic emitted by the lint pass.

    Findings print as [file:line:col [RULE-ID] message] — one line each,
    stable across runs so they can be diffed against a checked-in
    baseline.  The baseline key deliberately omits [line]/[col]: edits
    elsewhere in a file must not resurrect a grandfathered finding. *)

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

val rule_id : rule -> string
(** ["R1"] .. ["R9"]. *)

val rule_of_string : string -> rule option

val all_rules : rule list

val rule_summary : rule -> string
(** One-line description of the rule, as printed by [--emit-rules] and
    recorded in [tools/rr_lint/rules.registry]. *)

type t = {
  file : string;  (** path relative to the lint root, e.g. [lib/wdm/auxiliary.ml] *)
  line : int;     (** 1-based *)
  col : int;      (** 0-based, as the compiler reports *)
  rule : rule;
  message : string;
}

val v : file:string -> line:int -> col:int -> rule -> string -> t

val compare : t -> t -> int
(** Orders by file, line, col, rule id — the report order. *)

val to_string : t -> string
(** [file:line:col [RULE] message]. *)

val baseline_key : t -> string
(** [file [RULE] message] — the line format stored in a baseline file. *)
