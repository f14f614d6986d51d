(** The contest's scoring harness.

    Accuracy is the hit rate over a hidden pattern set: a hit requires
    {e all} output bits to match the golden circuit on an input assignment.
    The contest used 1.5M patterns, one third biased toward 1s, one third
    biased toward 0s and one third uniform; [mixture] reproduces that
    composition at any scale (the benches default to a smaller count; the
    estimate's variance is what changes, not its meaning). *)

val mixture :
  rng:Lr_bitvec.Rng.t -> num_inputs:int -> count:int -> Lr_bitvec.Bv.t array
(** [count] patterns: ⌈count/3⌉ with 1-density 0.8, ⌈count/3⌉ with
    1-density 0.2, the rest uniform. *)

val accuracy :
  ?count:int ->
  rng:Lr_bitvec.Rng.t ->
  golden:Lr_netlist.Netlist.t ->
  candidate:Lr_netlist.Netlist.t ->
  unit ->
  float
(** Hit rate in [0, 1]. Default [count] is 30_000. Requires identical
    PI/PO counts. Scoring runs on [Netlist.eval_many]. *)

val accuracy_on :
  patterns:Lr_bitvec.Bv.t array ->
  golden:Lr_netlist.Netlist.t ->
  candidate:Lr_netlist.Netlist.t ->
  unit ->
  float
(** Same, over a caller-supplied pattern set (so several candidates can be
    scored against the very same patterns). The trailing [unit] is a
    leftover of a removed optional engine switch, kept so existing callers
    (the benchmark replay among them) still compile. *)

val per_output_accuracy :
  patterns:Lr_bitvec.Bv.t array ->
  golden:Lr_netlist.Netlist.t ->
  candidate:Lr_netlist.Netlist.t ->
  float array
(** Hit rate of each output separately — diagnostic, not a contest metric. *)

type stats = {
  mean : float;
  std : float;
  lo95 : float;  (** normal-approximation 95% confidence bounds *)
  hi95 : float;
  runs : int;
}

val accuracy_stats :
  ?runs:int ->
  ?count:int ->
  rng:Lr_bitvec.Rng.t ->
  golden:Lr_netlist.Netlist.t ->
  candidate:Lr_netlist.Netlist.t ->
  unit ->
  stats
(** Accuracy over [runs] (default 5) independent pattern sets with mean,
    sample standard deviation and a 95% confidence interval — the rigor
    layer the single-number contest metric lacks. *)
