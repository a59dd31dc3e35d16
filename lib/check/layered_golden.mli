(** Byte-identity golden for the layered semilightpath kernel.

    A fixed set of residual states over [Random_topo.degree_bounded]
    networks (n = 24) for W ∈ \{1, 4, 16, 63\} and every converter kind
    the search distinguishes: [No_conversion], [Full c], [Full 0.0] over
    integer link weights (so equal-cost routes abound), [Range (1, c)],
    [Range (W-1, c)] (full conversion spelled as a range), random
    [Table]s, and a mix of the four per node.  Each state carries random
    preload, failed links and a random link filter.

    Every request runs {!Rr_wdm.Layered.optimal} without and with the
    filter ([link_enabled]) and {!Rr_wdm.Layered.optimal_bounded} with
    budgets 0, 1 and 2.  One line records the hops, the bits of the
    returned cost, and the query's [heap.pop] and [heap.insert] counts:
    a kernel change that alters relaxation order, tie-breaking, float
    operations or the set of successful relaxations shows up as a diff.

    [tools/gen_pair_golden] writes {!render}'s output to
    [test/corpus/layered_paths.golden]; the wdm tests demand that every
    {!mode} reproduces that file exactly. *)

type mode =
  | Fresh_workspaces  (** no [?workspace]: every search allocates *)
  | Shared_with_suurballe
      (** one workspace that also runs {!Rr_wdm.Auxiliary.disjoint_pair}
          on the request's [G'] before each query *)

type kind = string * (Rr_util.Rng.t -> int -> int -> Rr_wdm.Conversion.spec)
(** A converter kind by name: given a generator, [W] and a node, the
    node's converter. *)

val kinds : kind list
(** The converter kinds listed above, in golden order. *)

val scenario : int -> kind -> int -> Rr_wdm.Network.t * bool array * (int * int) list
(** [scenario w kind seed]: one residual state of the golden — a fresh
    network at [W = w] with preload and failed links, a per-link filter,
    and six [(source, target)] requests.  Deterministic in its
    arguments. *)

val render : mode -> string
(** The golden text: a comment header, then one line per query. *)
