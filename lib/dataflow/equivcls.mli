(** Functional equivalence classes of netlist nodes.

    Fraig over the 2-input-gate netlist rather than the AIG, issuing
    {e zero} black-box queries: {!compute} runs the shared
    [Lr_aig.Fraig.classes] loop under the label ["dataflow"] on a Tseitin
    encoding of the netlist itself, with [Netlist.eval_nodes] as the
    simulator. Complement pairs share a class; classes are rooted at
    their smallest node id, so substituting any member by its root
    literal can never create a cycle. *)

module N = Lr_netlist.Netlist

type t = {
  repr : int array;
      (** per node, the literal [2 * root + phase] of its proven class
          representative, where [root <= node]; a node is its own
          representative iff [repr.(n) = 2 * n]. Constant-equivalent
          nodes resolve to the constant nodes 0/1. *)
  proved : int;  (** SAT-proven equivalences (including complements) *)
  refuted : int;  (** candidate pairs separated by a counterexample *)
  sat_calls : int;
  rounds : int;
}

val repr_node : t -> N.node -> N.node
val repr_phase : t -> N.node -> bool

val gate_clauses :
  Lr_sat.Sat.t -> int -> (N.node -> int) -> N.gate -> unit
(** [gate_clauses s x lit g]: clauses making variable [x] equal to gate
    [g] with operand [a] read as the signed literal [lit a] (none for an
    input). Shared by {!cnf_of_netlist} and the sweep's ODC miter. *)

val cnf_of_netlist : N.t -> Lr_sat.Sat.t -> unit
(** Tseitin encoding: node [k] is DIMACS variable [k + 1]; the constant
    nodes 0/1 are pinned by unit clauses. *)

val compute :
  ?words:int ->
  ?max_rounds:int ->
  ?max_sat_checks:int ->
  rng:Lr_bitvec.Rng.t ->
  N.t ->
  t
(** [words] initial random pattern words (default 16), [max_rounds]
    refinement rounds (default 32), [max_sat_checks] SAT budget (default
    2000). Deterministic for a fixed [rng] state. *)
