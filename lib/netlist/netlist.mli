(** Boolean networks of 2-input primitive gates.

    This is the circuit representation of the contest: a DAG whose nodes are
    primary inputs, constants, inverters and the six 2-input primitives
    (AND, OR, XOR, NAND, NOR, XNOR). The builder structurally hashes every
    gate and applies local constant/idempotence folding, so syntactically
    duplicated logic is shared at construction time.

    Nodes are plain integers; the builder guarantees operands precede their
    users, so node order is a topological order. *)

type t
type node = int

val create : input_names:string array -> output_names:string array -> t
(** A fresh network with named PIs and POs. Outputs are initially constant
    false; define them with {!set_output}. *)

val num_inputs : t -> int
val num_outputs : t -> int
val input_names : t -> string array
val output_names : t -> string array

val input : t -> int -> node
(** [input t i] is the node of PI [i]. *)

val const_false : t -> node
val const_true : t -> node

val not_ : t -> node -> node
val and_ : t -> node -> node -> node
val or_ : t -> node -> node -> node
val xor_ : t -> node -> node -> node
val nand_ : t -> node -> node -> node
val nor_ : t -> node -> node -> node
val xnor_ : t -> node -> node -> node

val set_output : t -> int -> node -> unit
val output : t -> int -> node

(** Structure inspection, used by format writers and AIG conversion. *)
type gate =
  | Const of bool
  | Input of int
  | Not of node
  | And2 of node * node
  | Or2 of node * node
  | Xor2 of node * node
  | Nand2 of node * node
  | Nor2 of node * node
  | Xnor2 of node * node

val gate : t -> node -> gate
val num_nodes : t -> int

val fanins : gate -> node list
(** Operand nodes of a gate (empty for constants and inputs). *)

(** {2 Cone traversal}

    The one reachability walk shared by the format writers, the metrics,
    {!Lr_netlist.Analysis} and the [Lr_check] lint pass — callers should
    not keep private copies of this recursion. *)

val reachable : t -> bool array
(** [reachable t] indexed by node: in the cone of some primary output. *)

val reachable_from : t -> node list -> bool array
(** Same, from an arbitrary root set (e.g. one output's cone). *)

val fanout_counts : t -> int array
(** Per-node fanout over the {e whole} network (every gate operand
    reference plus one per output binding); dead fanout included, so a
    node with count 0 drives nothing at all. *)

(** {2 Metrics} *)

type stats = {
  gates2 : int;  (** 2-input gates reachable from some PO — the contest's size metric *)
  inverters : int;  (** reachable inverters (not counted in [gates2]) *)
  depth : int;  (** longest PI->PO path counting 2-input gates *)
}

val stats : t -> stats
val size : t -> int
(** [size t = (stats t).gates2]. *)

(** {2 Simulation} *)

val eval : t -> Lr_bitvec.Bv.t -> Lr_bitvec.Bv.t
(** [eval t a] simulates one full input assignment ([length a = num_inputs])
    and returns the full output assignment. *)

val eval_words : t -> int64 array -> int64 array
(** Word-parallel simulation: element [i] of the argument carries 64
    assignments' worth of PI [i]; the result likewise carries the POs.
    It projects {!eval_nodes} onto the POs and counts ["sim.gate-words"]. *)

val eval_nodes : t -> int64 array -> int64 array
(** The same simulation returning every node's word, by node id: the one
    per-gate word evaluator of netlists. Counts nothing. *)

val eval_nodes_from : t -> int64 array -> node -> unit
(** [eval_nodes_from t v k] recomputes nodes [k ..] of [v] in place,
    keeping input words: re-simulation after overriding one node. *)

val eval_many : t -> Lr_bitvec.Bv.t array -> Lr_bitvec.Bv.t array
(** Batch of single-pattern simulations, internally packed into words. *)
