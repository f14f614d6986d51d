(** Exact functional analysis of netlists.

    The paper's support identification (Section IV-C) only ever produces an
    {e under-approximation} S' of the true support S (Proposition 1 is a
    one-sided test under sampling). This module computes the exact
    quantities on white-box circuits — structural and functional supports —
    which the test suite uses to validate the sampling estimates and which
    evaluation code uses to characterise benchmark hardness. *)

val structural_support : Netlist.t -> output:int -> int list
(** PIs with a path to the output — an over-approximation of the true
    support. Linear in circuit size. *)

val functional_support : Netlist.t -> output:int -> int list
(** The true support S: PIs [i] such that [f|_i <> f|_~i] is satisfiable,
    decided exactly with a BDD of the output cone. Exponential worst case;
    intended for cones of moderate structural support (< ~40 PIs). *)

val output_density :
  ?patterns:int -> rng:Lr_bitvec.Rng.t -> Netlist.t -> output:int -> float
(** Monte-Carlo estimate of the output's truth density (share of 1s under
    uniform inputs) — the quantity the onset/offset choice keys on. *)
