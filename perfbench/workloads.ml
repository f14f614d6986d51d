(* The three workloads and the inputs they generate from a seed.

   The seed reaches the program only through what is generated here: the
   learner's [Config.seed], the serve specs' [seed], and the serve job
   order. The benchmark also draws the hidden evaluation patterns from
   it, which the program never sees. *)

module Config = Logic_regression.Config
module Proto = Lr_serve.Proto
module Cases = Lr_cases.Cases
module Rng = Lr_bitvec.Rng

type kind = Learn | Serve

type t = {
  name : string;
  kind : kind;
  cases : string list;
  budget : int;  (** black-box query budget of every learn *)
  learner_seeds : int -> int list;
      (** the learner seeds a run seed generates: one for the learn
          workloads; four for serve_mix, whose tail percentiles would
          otherwise hang on the few cases one seed learns approximately *)
  config : int -> Config.t;  (** learner configuration for a seed *)
  spec : int -> string -> Proto.spec;
      (** the serve spec with the same learning settings *)
}

let case_names ids = List.map (Printf.sprintf "case_%d") ids

(* Full scale, as in the bench's default Table II run. *)
let full_scale seed =
  {
    Config.improved with
    Config.seed;
    support_rounds = 2048;
    max_tree_nodes = 2048;
  }

let spec_of ~budget ~rounds ?(sweep = Config.Sweep_off) ?(check = Config.Off)
    seed case =
  {
    (Proto.default ~case) with
    Proto.seed;
    budget = Some budget;
    support_rounds = Some rounds;
    sweep;
    check;
  }

(* ECO and NEQ cases: no bus names, so templates find nothing and every
   output goes through support identification and the FBDT. *)
let conquer =
  {
    name = "conquer";
    kind = Learn;
    cases = case_names [ 1; 4; 5; 7; 9; 10; 11; 13; 14; 17; 18; 19 ];
    budget = 1_500_000;
    learner_seeds = (fun seed -> [ seed ]);
    config = full_scale;
    spec = spec_of ~budget:1_500_000 ~rounds:2048;
  }

(* DIAG and DATA cases: templates take the outputs, so the time goes to
   synthesis, the sweep and the checked mode's CECs. *)
let verified_synth =
  {
    name = "verified_synth";
    kind = Learn;
    cases = case_names [ 2; 3; 6; 8; 12; 15; 16; 20 ];
    budget = 1_500_000;
    learner_seeds = (fun seed -> [ seed ]);
    config =
      (fun seed ->
        {
          (full_scale seed) with
          Config.sweep = Config.Sweep_full;
          check_level = Config.Full;
        });
    spec =
      spec_of ~budget:1_500_000 ~rounds:2048 ~sweep:Config.Sweep_full
        ~check:Config.Full;
  }

(* Quick-scale specs for every case but the two slow ones (case_9 and
   case_18), served by the daemon. *)
let serve_mix =
  let spec = spec_of ~budget:400_000 ~rounds:512 in
  {
    name = "serve_mix";
    kind = Serve;
    cases =
      case_names
        (List.filter (fun i -> i <> 9 && i <> 18) (List.init 20 succ));
    budget = 400_000;
    learner_seeds = (fun seed -> List.init 4 (fun k -> (4 * seed) + k));
    config = (fun seed -> Proto.config_of_spec (spec seed "case_1"));
    spec;
  }

let all = [ conquer; verified_synth; serve_mix ]
let find name = List.find_opt (fun w -> w.name = name) all

(* Hidden evaluation patterns per case: the contest's biased mixture. *)
let eval_patterns = 30_000

let eval_rng ~seed (spec : Cases.spec) =
  Rng.create ((seed * 1_000_003) + spec.Cases.seed)

(* The serve job order: a seeded Fisher-Yates shuffle per pass, drawn
   from this stream. *)
let order_rng seed = Rng.create (seed lxor 0x5e77e)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a
