(** Combinational equivalence checking (CEC).

    Builds a miter of two circuits with matched interfaces and decides
    equivalence with the {!Lr_sat} CDCL solver, after a random-simulation
    prefilter ({!sim_prefilter}) has caught the easy mismatches. Both
    entry points build one miter and solve it with {!sat_assignment}.

    This is how the test suite {e proves} (not just samples) that
    template-built circuits equal their golden counterparts, and it is
    exposed on the CLI as the [cec] command. *)

type verdict =
  | Equivalent
  | Counterexample of Lr_bitvec.Bv.t
      (** an input assignment on which some output differs *)

val check :
  ?rng:Lr_bitvec.Rng.t ->
  Lr_netlist.Netlist.t ->
  Lr_netlist.Netlist.t ->
  verdict
(** [check a b] decides whether the two circuits compute the same function.
    Requires equal PI/PO counts (names are not compared). Complete: always
    returns a definite verdict, with SAT doing the heavy lifting. *)

val check_aig : ?rng:Lr_bitvec.Rng.t -> Aig.t -> Aig.t -> verdict
(** [check] for two AIGs directly — no netlist conversion. This is what the
    checked pipeline ([Config.check_level = Full]) runs after every
    optimization sub-pass. *)

val sat_assignment : Aig.t -> Aig.lit -> Lr_bitvec.Bv.t option
(** A primary-input assignment making the literal true, or [None] when the
    literal is unsatisfiable. The raw solver entry point behind the
    verdicts above, exposed so [Lr_check] can build custom miters (e.g.
    cover-vs-netlist) and still get a concrete counterexample back. *)

val sim_prefilter :
  rng:Lr_bitvec.Rng.t ->
  ni:int ->
  (int64 array -> int64 array) ->
  Lr_bitvec.Bv.t option
(** Up to 16 blocks of [ni] random words (1024 patterns) through [diff],
    which returns difference words; the first set bit found is returned
    as an input assignment. The prefilter of {!check}, {!check_aig} and
    [Lr_check.Selfcheck.verify_cover]. *)
