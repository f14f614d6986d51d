(** Structure-of-arrays circuit simulation kernel.

    A compiled, cache-friendly form of a combinational circuit: one flat
    opcode byte per node, flat [int array] fanins, and a topologically
    batched evaluation schedule. Simulation walks the schedule with
    word-parallel (64 patterns/word) operations and no per-node allocation.

    Nothing in the production pipeline runs on this module: the
    tree-walking evaluators in [Lr_netlist] and [Lr_aig] are the only
    engines, because they measured faster end to end. [Soa] stays as the
    candidate for a future unboxed engine; the benchmark's per-layer
    replay times it against [Netlist.eval_words], and the differential
    properties in [test/prop.ml] pin it bit-identical to that reference.

    Node ids are preserved by {!of_netlist}: node [n] here is node [n] of
    the source netlist. *)

type t

val of_netlist : Lr_netlist.Netlist.t -> t
(** Compile a netlist. Bit-identical node semantics to
    [Netlist.eval_words], including unreachable nodes. *)

val num_nodes : t -> int
val num_inputs : t -> int
val num_outputs : t -> int

val num_levels : t -> int
(** Depth of the topological batching: constants and inputs are level 0,
    a gate is one past its deepest fanin. *)

val schedule : t -> int array
(** The evaluation order: a permutation of all nodes, level-major
    (every batch's fanins live in strictly earlier batches). *)

val level_offsets : t -> int array
(** [num_levels + 1] offsets into {!schedule} delimiting the batches. *)

val depends_on_arg0 : t -> int -> bool
val depends_on_arg1 : t -> int -> bool
(** Whether the node's opcode reads the first / second fanin slot as a
    node value (constants read neither; inputs read neither — their slot
    holds the input index). *)

val arg0 : t -> int -> int
val arg1 : t -> int -> int

val eval_words : t -> int64 array -> int64 array
(** Drop-in for [Netlist.eval_words]: same output words, same
    ["sim.gate-words"] accounting. *)

val eval_many : t -> Lr_bitvec.Bv.t array -> Lr_bitvec.Bv.t array
(** Drop-in for [Netlist.eval_many]: same results, same ["sim.patterns"]
    accounting. Internally simulates several 64-pattern blocks per pass
    over the schedule (wide blocks). *)
