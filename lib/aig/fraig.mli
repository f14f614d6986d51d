(** Functional reduction of AIGs (fraig), after Mishchenko et al.

    Simulation with random (and counterexample-derived) patterns partitions
    nodes into candidate-equivalence classes by signature; SAT queries on a
    miter of the two nodes then prove or refute each candidate. Proven
    pairs are merged (with phase), counterexamples refine the signatures,
    and the loop runs until no candidate survives or the effort cap is hit.

    This is the pass that makes the paper's FBDT-over-FBDD choice free of
    cost: isomorphic (indeed, any functionally equivalent) subtrees of the
    learned circuit are merged here. The loop ({!classes}), its union-find
    and clause shapes are shared with the netlist equivalence classes of
    [Lr_dataflow.Equivcls]. *)

module Uf : sig
  type t

  val find : t -> int -> int * bool
  (** [(root, phase)] with node [= root xor phase]; roots are the
      smallest id of their class, so substitution never makes a cycle. *)
end

val and_clauses : Lr_sat.Sat.t -> int -> int -> int -> unit
(** [and_clauses s x a b]: Tseitin clauses of [x <-> a /\ b] over signed
    DIMACS literals. *)

val xor_clauses : Lr_sat.Sat.t -> int -> int -> int -> unit
(** [xor_clauses s x a b]: the clauses of [x <-> a xor b]. *)

val cnf_of_aig : Aig.t -> Lr_sat.Sat.t -> unit
(** Node [k] is DIMACS variable [k + 1]; node 0 is pinned false. *)

type outcome = {
  uf : Uf.t;
  proved : int;  (** SAT-proven equivalences (including complements) *)
  refuted : int;  (** candidate pairs separated by a counterexample *)
  sat_calls : int;
  rounds : int;
}

val classes :
  label:string ->
  words:int ->
  max_rounds:int ->
  max_sat_checks:int ->
  rng:Lr_bitvec.Rng.t ->
  solver:Lr_sat.Sat.t ->
  input_var:(int -> int) ->
  num_nodes:int ->
  num_inputs:int ->
  sim:(int64 array -> int64 array) ->
  on_round:(classes:int -> unit) ->
  outcome
(** The simulate → classify → prove → refine loop. [solver] holds the
    circuit's CNF with node [k] as variable [k + 1]; [input_var i] is the
    variable of input [i]; [sim] maps one word per input to every node's
    word. Each round visits the signature classes with two or more
    members in ascending order of their smallest member and asks SAT
    whether each member equals it up to phase; counterexamples, 64 to a
    block, join the [words] random seed blocks. Rounds repeat while
    anything was proved or refuted, within [max_rounds] and
    [max_sat_checks]. Spans [label.sim] / [label.sat]; counters
    [label.sim-words], [.sat-calls], [.proved], [.refuted] per round and
    [.rounds] at the end. [on_round] gets each round's class count,
    singletons included. *)

val sweep :
  ?words:int ->
  ?max_rounds:int ->
  ?max_sat_checks:int ->
  ?kernel:bool ->
  rng:Lr_bitvec.Rng.t ->
  Aig.t ->
  Aig.t
(** [sweep ~rng aig] returns a functionally equivalent AIG with equivalent
    nodes merged: {!classes} under the label ["fraig"], which also counts
    ["fraig.classes"] and the solver's ["sat.conflicts"] /
    ["sat.restarts"] per round. [words] random 64-pattern words seed the
    signatures (default 16); [max_rounds] bounds refinement iterations
    (default 64); [max_sat_checks] bounds total SAT queries (default
    5000).

    [kernel] is a no-op that nothing reads. It stays only because the
    benchmark's layer replay in [perfbench/] still passes
    [~kernel:config.Config.kernel] here (see [Config.kernel]). *)
