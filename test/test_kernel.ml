(* The end-to-end bit-identity leg for the engines that do all of the
   simulation-heavy work (fraig, CEC, self-checks, sweep): a learn with
   the full sweep and full checks is identical at jobs=1 and jobs=4, down
   to the query attribution. *)

module Io = Lr_netlist.Io
module Cases = Lr_cases.Cases
module Config = Logic_regression.Config
module Learner = Logic_regression.Learner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- end-to-end bit-identity ---------------- *)

let fast =
  {
    Config.default with
    Config.support_rounds = 192;
    node_rounds = 32;
    max_tree_nodes = 512;
    optimize_rounds = 1;
    fraig_words = 4;
    template_samples = 32;
    (* the full sweep plus full self-checks route fraig, CEC, the table
       and cover checks and the ODC stage into the comparison *)
    sweep = Config.Sweep_full;
    check_level = Config.Full;
  }

let learn ~jobs =
  let spec = Cases.find "case_7" in
  let box = Cases.blackbox ~budget:150_000 spec in
  let report = Learner.learn ~config:{ fast with Config.seed = 5; jobs } box in
  ( Io.write report.Learner.circuit,
    report.Learner.queries,
    report.Learner.phase_queries,
    report.Learner.checks_verified,
    report.Learner.sweep_removed )

let test_bit_identity () =
  let net1, q1, pq1, cv1, sr1 = learn ~jobs:1 in
  let net4, q4, pq4, cv4, sr4 = learn ~jobs:4 in
  Alcotest.(check string) "jobs=4: bit-identical netlist" net1 net4;
  check_int "jobs=4: equal queries" q1 q4;
  Alcotest.(check (list (pair string int)))
    "jobs=4: equal phase queries" pq1 pq4;
  check_int "jobs=4: equal checks verified" cv1 cv4;
  check_int "jobs=4: equal sweep removals" sr1 sr4;
  check "the full sweep removed gates" true (sr1 > 0);
  check "the full checks ran" true (cv1 > 0)

let tests =
  [
    Alcotest.test_case "jobs=1 vs 4, sweep and checks full" `Quick
      test_bit_identity;
  ]
