(** The compiled circuit simulator: the one engine behind black-box
    queries and accuracy scoring.

    A circuit is compiled once ({!of_netlist}) into a flat program. Nodes
    are renumbered level by level and, inside a level, grouped by
    operation, so simulation is a list of runs of one operation each and
    the inner loops never dispatch per node. Node values are 64-pattern
    words kept unboxed in a byte buffer (a {!scratch}), so a simulation
    pass allocates nothing per node.

    [Lr_blackbox.Blackbox] compiles its circuit when the box is made and
    gives every box and every accounting shard a scratch of its own; all
    of its query paths run here, and so does [Lr_eval.Eval]'s scoring.
    [Netlist.eval_words] stays the reference evaluator: the differential
    properties in [test/prop.ml] pin this module bit-identical to it.

    A compiled program is immutable and may be shared between domains; a
    scratch must be used by one domain at a time. *)

type t

val of_netlist : Lr_netlist.Netlist.t -> t
(** Compile a netlist. Bit-identical node semantics to
    [Netlist.eval_words], including unreachable nodes. *)

type scratch
(** Node-value storage for one simulation at a time. *)

val scratch : t -> scratch

val eval_into : t -> scratch -> int64 array -> int64 array
(** [eval_into t s words] — one word per input in, one word per output
    out, simulated in [s]. Counts one ["sim.gate-words"] per node of
    the compiled circuit. *)

val eval_words : t -> int64 array -> int64 array
(** Drop-in for [Netlist.eval_words]: same output words, same
    ["sim.gate-words"] accounting. Simulates in a scratch the calling
    domain keeps for these calls. *)

val eval_many : t -> Lr_bitvec.Bv.t array -> Lr_bitvec.Bv.t array
(** Drop-in for [Netlist.eval_many]: same results, same ["sim.patterns"]
    and ["sim.gate-words"] accounting; the patterns are transposed into
    64-pattern blocks and back. Uses the same per-domain scratch as
    {!eval_words}. *)
