(** Byte-identity golden for the disjoint-pair kernel on [G'].

    A fixed set of residual states over [Random_topo.degree_bounded]
    WANs (n ∈ \{30, 100, 400\}, W = 32, range-1 converters): light and
    heavy preload, failed and fully used links, an isolated region
    (requests into it have no first path), nodes left with a single usable
    out-link (no second path), and integer (or unit) link weights with
    free conversion that force ties.
    For each request the network's {!Rr_wdm.Aux_cache} is synced and
    {!Rr_wdm.Auxiliary.disjoint_pair} runs over
    {!Rr_wdm.Aux_cache.gprime_view}; one line records both arc lists and
    the bits of the returned cost.

    [tools/gen_pair_golden] writes {!render}'s output to
    [test/corpus/suurballe_pairs.golden]; the graph tests demand that
    every {!mode} reproduces that file exactly, so any change to the
    kernel's relaxation order, tie-breaking or float operations shows up
    as a diff. *)

type mode =
  | Fresh_workspaces  (** no [?workspace]: every search allocates *)
  | Shared_workspace  (** one workspace reused by every pair *)
  | Shared_with_layered
      (** one workspace that also runs a {!Rr_wdm.Layered.optimal} search
          (a larger state space) before each pair *)

val render : mode -> string
(** The golden text: a comment header, then one line per request. *)
